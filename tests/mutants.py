"""Named mutants: each mended defect, put back, must fail the tests named
for it (mutation analysis, DeMillo, Lipton & Sayward 1978).

    python tests/mutants.py           # every mutant in MUTANTS
    python tests/mutants.py NAME ...  # only these

A mutant names a file, an exact source fragment that must occur there
once, the text that replaces it, the defect it restores and the tests
that must kill it. The runner copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, checks that the named tests
pass there as they are, then applies one mutant at a time and runs its
tests. It prints one verdict per mutant and exits 1 when one survives,
when its fragment no longer occurs exactly once (stale), or when its
tests cannot run. A stale fragment is rewritten against the code that
replaced it, never dropped. Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KILLED = "killed"
SURVIVED = "survived"
STALE = "stale"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    restores: str  # the defect the mutant puts back
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    Mutant(
        "trust-without-a-ca", "src/dispo6/distribution.py",
        "node.ca is not None and node.ca.certifies(",
        "node.ca is None or node.ca.certifies(",
        "a node that requires signatures but has no CA trusts every "
        "request and every grant",
        ("tests/test_distribution.py::TestTrustWithoutACa",)),
    Mutant(
        "trust-ignores-the-subject", "src/dispo6/crypto.py",
        "certificate is not None and certificate.subject == subject",
        "certificate is not None",
        "a certificate the CA issued to one name vouches for any name",
        ("tests/test_distribution.py::TestResponderGates"
         "::test_a_certificate_for_another_name_is_dropped",
         "tests/test_distribution.py::TestEngineHandshake"
         "::test_a_grant_certified_for_another_name_is_refused")),
    Mutant(
        "grant-for-another-request", "src/dispo6/distribution.py",
        "        if response.request_digest != self._request_digest:\n"
        "            return\n",
        "",
        "a session takes a grant bound to a request it did not send",
        ("tests/test_distribution.py::TestEngineHandshake"
         "::test_grant_for_another_request_is_ignored",)),
    Mutant(
        "challenge-used-twice", "src/dispo6/distribution.py",
        "self._outstanding.pop(challenge_id, None)",
        "self._outstanding.get(challenge_id)",
        "the HIP gate keeps a challenge id it has accepted, so one solve "
        "passes any number of requests",
        ("tests/test_distribution.py::TestHipGate"
         "::test_verify_single_use_and_replay",)),
    Mutant(
        "challenge-past-its-ttl", "src/dispo6/distribution.py",
        "issued_us is not None and now_us - issued_us <= _HIP_TTL_US",
        "issued_us is not None",
        "the HIP gate accepts an answer after HIP_TTL_S",
        ("tests/test_distribution.py::TestHipGate"
         "::test_expired_challenge_fails",)),
    Mutant(
        "difficulty-out-of-range", "src/dispo6/distribution.py",
        "\n                    and 0 < payload.difficulty_s"
        " <= MAX_HIP_DIFFICULTY_S)",
        ")",
        "a forged challenge of difficulty -1, NaN or inf raises out of the "
        "event loop, and one of 1e9 stalls the call past its deadline",
        ("tests/test_distribution.py"
         "::test_a_challenge_the_gate_cannot_issue_keeps_the_deadline",)),
    Mutant(
        "timer-on-a-dead-battery", "src/dispo6/mobile_host.py",
        "            energy.advance(self.sim.now_us)\n",
        "",
        "MENDED: `MobileHost.on_timer` tests `energy.dead` without "
        "advancing the ledger, so a host whose battery ran out while idle "
        "still handles its timers",
        ("tests/test_mobile_host.py::TestDisposal"
         "::test_a_timer_finds_a_battery_that_died_unread",)),
)


def _pytest(tree: Path, tests) -> int:
    # no bytecode: a mutant of the source's size, written within the
    # second, would otherwise run from the unmutated file's cache
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutants, root: Path = ROOT) -> dict[str, str]:
    """Each mutant's verdict: killed, survived, stale, or an error."""
    verdicts, live = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(root / part, tree / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis"))
        shutil.copy2(root / "pyproject.toml", tree)
        for mutant in mutants:
            if (tree / mutant.path).read_text().count(mutant.fragment) == 1:
                live.append(mutant)
            else:
                verdicts[mutant.name] = STALE
        tests = sorted({test for mutant in live for test in mutant.tests})
        code = _pytest(tree, tests) if live else 0
        for mutant in live:
            if code != 0:
                verdicts[mutant.name] = f"error: unmutated tests exit {code}"
                continue
            path = tree / mutant.path
            source = path.read_text()
            path.write_text(source.replace(mutant.fragment, mutant.replacement))
            mutated = _pytest(tree, mutant.tests)
            path.write_text(source)
            verdicts[mutant.name] = {1: KILLED, 0: SURVIVED}.get(
                mutated, f"error: pytest exit {mutated}")
    return verdicts


def report(verdicts: dict[str, str], mutants) -> int:
    """Print one line per mutant; 1 unless every mutant was killed."""
    for mutant in mutants:
        print(f"{verdicts[mutant.name]:>9}  {mutant.name}: {mutant.restores}")
    return 0 if all(v == KILLED for v in verdicts.values()) else 1


def main(argv: list[str]) -> int:
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    return report(run(chosen), chosen)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
