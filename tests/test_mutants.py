"""The named-mutant runner (`tests/mutants.py`) and its catalogue. The
catalogue itself runs as a CI job, outside this suite."""

import mutants
from mutants import MUTANTS, Mutant


def test_every_catalogued_fragment_occurs_once():
    # a mutant whose code moved is rewritten in the same change
    for mutant in MUTANTS:
        source = (mutants.ROOT / mutant.path).read_text()
        assert source.count(mutant.fragment) == 1, mutant.name
        assert mutant.tests, mutant.name


def test_the_runner_reports_a_survivor_and_a_stale_fragment(tmp_path,
                                                            capsys):
    # a toy repository, so that each of the two test runs stays small;
    # the catalogue's CI job shows kills
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\npythonpath = ["src"]\n')
    (tmp_path / "src" / "toy.py").write_text(
        'def double(x):\n    """Twice x."""\n    return 2 * x\n')
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import double\n\n\n"
        "def test_double():\n    assert double(2) == 4\n")
    test = ("tests/test_toy.py::test_double",)
    planted = [
        Mutant("unkillable", "src/toy.py", "Twice x.", "Double x.",
               "a docstring", test),
        Mutant("gone", "src/toy.py", "halve", "", "code that moved", test),
    ]
    verdicts = mutants.run(planted, root=tmp_path)
    assert verdicts == {"unkillable": mutants.SURVIVED,
                        "gone": mutants.STALE}
    assert mutants.report(verdicts, planted) == 1
    assert "survived  unkillable: a docstring" in capsys.readouterr().out
