import dataclasses
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from dispo6 import InvariantError, cli
from dispo6.energy import (
    DEFAULT_PARAMS,
    Battery,
    EnergyAccount,
    LoadProfile,
    flood_profile,
    lifetime_under,
)
from dispo6.engine import Simulator
from dispo6.scenario import ScenarioConfig, fig3_config

RUN_OUTPUTS = ("calls.csv", "daily_rejections.csv", "metrics.json")
README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, config: ScenarioConfig):
    path.write_text(yaml.safe_dump(config.to_mapping(), sort_keys=True))
    return path


class TestFig3:
    def test_same_files_as_run_with_the_preset(self, tmp_path, capsys):
        assert cli.main(["fig3", "6h", "--seed", "3",
                         "--out-dir", str(tmp_path / "fig3")]) == 0
        assert capsys.readouterr().out.startswith("fig3 6h seed=3 days=1000 ")
        config = write_config(tmp_path / "config.yaml",
                              dataclasses.replace(fig3_config("6h"), seed=3))
        assert cli.main(["run", "--config", str(config),
                         "--out-dir", str(tmp_path / "run")]) == 0
        for name in RUN_OUTPUTS:
            assert ((tmp_path / "fig3" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes()), name

    def test_mode_and_days_are_honoured(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["fig3", "4h", "--mode", "explicit", "--days", "5",
                         "--out-dir", str(out)]) == 0
        rows = (out / "daily_rejections.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3", "4"]
        # explicit mode: the victim's policy blocks the prime once a day
        victim = json.loads((out / "metrics.json").read_text())["counters"]["victim"]
        assert victim["prime_disposals"] == victim["reactivations"] == 5


class TestDrain:
    @pytest.mark.parametrize("profile, load", [
        ("idle", LoadProfile()), ("flood", flood_profile(100.0))])
    def test_series_ends_dead_at_closed_form_lifetime(self, profile, load,
                                                      tmp_path):
        # the ledger's series, a row a minute; an idle radio is awake for
        # the sleep timeout first, so it dies 25 s short of the day
        assert cli.main(["drain", profile, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "battery.csv").read_text().splitlines()
        assert lines[0] == "time,remaining,state"
        hours = lifetime_under(DEFAULT_PARAMS, Battery(), load)
        died_s, remaining, state = lines[-1].split(",")
        assert float(died_s) == pytest.approx(hours * 3600.0, rel=2e-3)
        assert (remaining, state) == (f"{0.0:.9f}", "dead")
        times = [float(line.split(",")[0]) for line in lines[1:-1]]
        assert times == [60.0 * k for k in range(len(times))]
        assert times[-1] < float(died_s) <= times[-1] + 60.0
        assert all(not line.endswith(",dead") for line in lines[1:-1])

    @pytest.mark.parametrize("profile, rate", [
        ("flood", "-5"), ("flood", "0"), ("flood", "nan"), ("flood", "inf"),
        # packets under 1 us apart, and a step that overflows a float
        ("flood", "3e6"), ("flood", "1e-320"),
        # a rate the idle profile would ignore is refused, not dropped
        ("idle", "5")], ids=["-5", "0", "nan", "inf", "3e6", "1e-320", "idle-5"])
    def test_rate_that_is_not_positive_and_finite_exits_2(self, profile, rate,
                                                           tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["drain", profile, "--rate", rate,
                         "--out-dir", str(out)]) == 2
        assert "--rate" in capsys.readouterr().err
        assert not out.exists()

    # each drained run ends with the conservation check of a scenario run
    def test_engine_counter_corruption_is_caught(self, monkeypatch, tmp_path):
        original = Simulator.send

        def double_counted(self, packet):
            self.counters.sent += 1
            return original(self, packet)

        monkeypatch.setattr(Simulator, "send", double_counted)
        with pytest.raises(InvariantError, match="engine"):
            cli.main(["drain", "flood", "--out-dir", str(tmp_path)])

    def test_energy_overdraw_is_caught(self, monkeypatch, tmp_path):
        original = EnergyAccount.on_packet

        def overdrawn(self, now_us, cost):
            alive = original(self, now_us, cost)
            self.consumed_packets += self.battery.capacity  # past empty
            return alive

        monkeypatch.setattr(EnergyAccount, "on_packet", overdrawn)
        with pytest.raises(InvariantError, match="energy ledger"):
            cli.main(["drain", "flood", "--out-dir", str(tmp_path)])


class TestSweep:
    def test_trend_reported_and_decreasing(self, tmp_path):
        config = write_config(tmp_path / "config.yaml", ScenarioConfig(
            horizon_days=300, attack_hours=4, pki_enabled=False))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--seeds", "0:10",
                         "--out-dir", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["seeds"] == 10
        assert summary["trend_s"] < 0
        assert summary["trend_z"] < 0
        assert summary["trend_p_decreasing"] < 0.05

    def test_trend_null_under_three_days(self, tmp_path):
        config = write_config(tmp_path / "config.yaml", ScenarioConfig(
            horizon_days=2, correspondents=5, pki_enabled=False))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--seeds", "0,1",
                         "--out-dir", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["trend_s"] is None
        assert summary["trend_z"] is None
        assert summary["trend_p_decreasing"] is None

    @pytest.mark.parametrize("spec", ["abc", "3:3", "1,x", ",", "1,1,1", "-2:2"])
    def test_bad_seed_spec_exits_2(self, spec, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml", ScenarioConfig())
        out = tmp_path / "out"
        # `=` keeps argparse from reading "-2:2" as an option
        assert cli.main(["sweep", "--config", str(config), f"--seeds={spec}",
                         "--out-dir", str(out)]) == 2
        # a repeated seed is one run, not independent samples, and a
        # negative one reruns its absolute value
        message = {"1,1,1": "repeated: [1]",
                   "-2:2": "seed must be >= 0"}.get(spec, "--seeds")
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_1_exits_2(self, jobs, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml", ScenarioConfig())
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--seeds", "0,1",
                         "--jobs", jobs, "--out-dir", str(out)]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--config", "{config}"],
                                     ["fig3", "4h"]], ids=["run", "fig3"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    # `random.Random` seeds with |seed|: -3 would write seed 3's outputs
    config = write_config(tmp_path / "config.yaml", ScenarioConfig())
    out = tmp_path / "out"
    argv = [arg.format(config=config) for arg in command]
    assert cli.main([*argv, "--seed", "-3", "--out-dir", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_config_still_setting_removed_knob_exits_2(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"rejection_probability": 0.5}))
    assert cli.main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown config keys: rejection_probability" in capsys.readouterr().err


def test_config_with_a_mistyped_optional_field_exits_2(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"attack_hours": "four"}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert ("attack_hours must be int or null, got 'four'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_that_is_not_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("seed: [1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert "is not valid YAML" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run"], "--config is required"),
    (["run", "--config", "{tmp}/missing.yaml"], "cannot read config"),
    (["drain", "idle", "--out-dir", "{tmp}/file"], "i/o error"),
], ids=["run_without_config", "run_missing_config", "drain_out_dir_is_a_file"])
def test_missing_input_or_unusable_out_dir_exits_2(argv, message, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default --out-dir is ./out
    (tmp_path / "file").write_text("kept")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_print_defaults_round_trips(capsys):
    assert cli.main(["run", "--print-defaults"]) == 0
    mapping = yaml.safe_load(capsys.readouterr().out)
    assert ScenarioConfig.from_mapping(mapping) == ScenarioConfig()


class TestModuleEntryPoint:
    def test_import_runs_nothing(self, monkeypatch):
        # argparse would exit 2 on these arguments if the CLI ran
        monkeypatch.setattr(sys, "argv", ["pytest", "--no-such-flag"])
        monkeypatch.delitem(sys.modules, "dispo6.__main__", raising=False)
        module = importlib.import_module("dispo6.__main__")
        assert module.main is cli.main

    def test_python_m_help_exits_0(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "dispo6", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert "usage:" in proc.stdout


def readme_commands(text: str) -> list[list[str]]:
    """The arguments of each `dispo6 ...` line in the code blocks of
    `text`, up to a shell redirection."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    commands = []
    for line in "\n".join(blocks).splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["dispo6"]:
            end = next((i for i, word in enumerate(words)
                        if word in (">", "<", "|")), len(words))
            commands.append(words[1:end])
    return commands


def test_every_readme_command_parses(capsys):
    # a renamed command, flag or choice fails here before a reader hits it
    commands = readme_commands(README.read_text())
    assert {argv[0] for argv in commands} == {"run", "fig3", "sweep", "drain"}
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README.md: `dispo6 {shlex.join(argv)}` does not "
                        f"parse: {capsys.readouterr().err}")


def test_readme_command_reader():
    text = ("```\ndispo6 run --print-defaults > a.yaml\npip install x\n```\n"
            "dispo6 outside --a-block\n"
            "```sh\ndispo6 drain flood --rates 5  # renamed\n```\n")
    commands = readme_commands(text)
    assert commands == [["run", "--print-defaults"],
                        ["drain", "flood", "--rates", "5"]]
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(commands[1])
