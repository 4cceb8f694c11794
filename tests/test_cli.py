"""Command line behaviour: subcommands, system files, exit codes."""

import argparse
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cantorenv
from cantorenv.cli import build_parser, load_system, main
from cantorenv.errors import ParseError
from cantorenv.prefix_map import PrefixMap
from oracles import deep_identity_rules
from test_readme import ROOT, readme_commands

ODOMETER_DEF = {"name": "odo", "generator": {"kind": "odometer"}}
FLIP_DEF = {
    "name": "flip",
    "generator": {"kind": "rules", "rules": [["0", "1"]], "exhausts": "clopen"},
}
OPEN_DEF = {
    "name": "open-flip",
    "generator": {"kind": "rules", "rules": [["0", "1"], ["10", "01"]],
                  "exhausts": "open"},
}
# valid schedules with fewer than bound + 1 = 5 stages
SHORT_SCHEDULES = [
    {"name": "chain", "exhaustion": [1, 2, 3], "generator": {
        "kind": "rules", "rules": [["0", "1"], ["10", "01"], ["110", "001"]],
        "exhausts": "open"}},
    {**ODOMETER_DEF, "exhaustion": [1, 2, 4, 8]},
]


@pytest.fixture
def sysfile(tmp_path):
    def write(obj, name="system.json"):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def fresh_run(*argv):
    """Exit code and stdout bytes of `python -m cantorenv.cli` in a new process."""
    src = str(Path(cantorenv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "cantorenv.cli", *argv],
        capture_output=True, env=env, cwd=ROOT, timeout=60,
    )
    return proc.returncode, proc.stdout


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    try:
        return code, json.loads(out)
    except json.JSONDecodeError:
        return code, out


class TestLoadSystem:
    def test_reads_clopen_rules(self, sysfile):
        sd = load_system(sysfile(FLIP_DEF))
        assert sd.name == "flip" and not sd.is_generated

    def test_reads_open_rules_and_odometer(self, sysfile):
        assert load_system(sysfile(OPEN_DEF)).is_generated
        assert load_system(sysfile(ODOMETER_DEF)).is_generated

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_system("/no/such/file.json")

    def test_rejects_unknown_top_key(self, sysfile):
        with pytest.raises(ParseError):
            load_system(sysfile({**FLIP_DEF, "comment": "hi"}))

    def test_rejects_bad_exhausts(self, sysfile):
        bad = {"name": "x", "generator": {"kind": "rules",
                                          "rules": [["0", "1"]],
                                          "exhausts": "sometimes"}}
        with pytest.raises(ParseError):
            load_system(sysfile(bad))

    def test_rejects_exhaustion_for_clopen(self, sysfile):
        with pytest.raises(ParseError):
            load_system(sysfile({**FLIP_DEF, "exhaustion": [1, 2]}))

    def test_rejects_decreasing_exhaustion(self, sysfile):
        with pytest.raises(ParseError):
            load_system(sysfile({**OPEN_DEF, "exhaustion": [2, 1]}))

    def test_accepts_exhaustion_for_open(self, sysfile):
        sd = load_system(sysfile({**OPEN_DEF, "exhaustion": [1, 2]}))
        assert sd.counts == (1, 2)

    def test_rejects_unknown_default_key(self, sysfile):
        with pytest.raises(ParseError):
            load_system(sysfile({**FLIP_DEF, "defaults": {"volume": 11}}))

    def test_rejects_bad_rules_shape(self, sysfile):
        bad = {"name": "x", "generator": {"kind": "rules", "rules": [["0"]],
                                          "exhausts": "clopen"}}
        with pytest.raises(ParseError):
            load_system(sysfile(bad))


class TestCommands:
    def test_validate(self, sysfile, capsys):
        code, out = run(capsys, "validate", sysfile(FLIP_DEF))
        assert code == 0 and out["ok"] is True

    def test_validate_flags_overlap(self, sysfile, capsys):
        bad = {"name": "x", "generator": {"kind": "rules",
                                          "rules": [["0", "1"], ["01", "00"]],
                                          "exhausts": "clopen"}}
        code, out = run(capsys, "validate", sysfile(bad))
        assert code == 2 and out["ok"] is False

    def test_axioms(self, sysfile, capsys):
        code, out = run(capsys, "axioms", sysfile(ODOMETER_DEF),
                        "--bound", "3", "--level", "1")
        assert code == 0 and out["ok"] is True

    def test_hausdorff_clopen(self, sysfile, capsys):
        code, out = run(capsys, "hausdorff", sysfile(FLIP_DEF))
        assert code == 0 and out["verdict"] == "clopen"
        assert out["domains"]["1"] == "{1}"

    def test_hausdorff_witness(self, sysfile, capsys):
        code, out = run(capsys, "hausdorff", sysfile(ODOMETER_DEF))
        assert code == 0
        assert out["verdict"] == "non-clopen-witness"
        assert out["pair"]["first"] == {"index": 1, "point": "(1)"}

    def test_hausdorff_unknown_at_depth_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code = main(["hausdorff", "systems/odometer.json", "--depth", "0"])
        out = capsys.readouterr().out
        assert (code, out) == (0, '{\n  "verdict": "unknown",\n  "depth": 0\n}\n')

    def test_hausdorff_reads_whole_finite_enumeration(self, sysfile, capsys):
        # the schedule stops short of the third rule; the domains may not
        chain = {"name": "chain", "exhaustion": [1, 1, 1], "generator": {
            "kind": "rules", "rules": [["0", "1"], ["10", "01"], ["110", "001"]],
            "exhausts": "open"}}
        code, out = run(capsys, "hausdorff", sysfile(chain))
        assert code == 0 and out["verdict"] == "clopen"
        assert out["domains"]["-1"] == "{0,10,110}"

    def test_hausdorff_ignores_short_schedule(self, sysfile, capsys):
        plain = run(capsys, "hausdorff", sysfile(ODOMETER_DEF))
        scheduled = run(capsys, "hausdorff",
                        sysfile({**ODOMETER_DEF, "exhaustion": [1, 2, 4]}, "s.json"))
        assert scheduled == plain and plain[1]["pair"] is not None

    @pytest.mark.parametrize("command", ["validate", "axioms"])
    @pytest.mark.parametrize("system", SHORT_SCHEDULES)
    def test_level_defaults_to_last_scheduled_stage(self, sysfile, capsys,
                                                    command, system):
        path = sysfile(system)
        code, out = run(capsys, command, path)
        assert code == 0 and out["ok"] is True
        last = str(len(system["exhaustion"]) - 1)
        assert run(capsys, command, path, "--level", last) == (code, out)
        missing = (1, {"error": "exhaustion schedule has no stage 4"})
        assert run(capsys, command, path, "--level", "4") == missing
        withdef = sysfile({**system, "defaults": {"level": 4}}, "d.json")
        assert run(capsys, command, withdef) == missing

    def test_related(self, sysfile, capsys):
        code, out = run(capsys, "related", sysfile(ODOMETER_DEF),
                        "--p", "1:(0)", "--q", "0:1(0)", "--level", "0")
        assert code == 0 and out["related"] is True
        code, out = run(capsys, "related", sysfile(ODOMETER_DEF),
                        "--p", "0:(0)", "--q", "1:(0)", "--level", "0")
        assert code == 0 and out["related"] is False

    def test_related_needs_level(self, sysfile, capsys):
        code, out = run(capsys, "related", sysfile(ODOMETER_DEF),
                        "--p", "1:(0)", "--q", "0:1(0)")
        assert code == 1 and "error" in out

    def test_level_default_from_system_file(self, sysfile, capsys):
        withdef = {**ODOMETER_DEF, "defaults": {"level": 1}}
        code, out = run(capsys, "related", sysfile(withdef),
                        "--p", "1:(0)", "--q", "0:1(0)")
        assert code == 0 and out["related"] is True

    def test_etale(self, sysfile, capsys):
        code, out = run(capsys, "etale", sysfile(FLIP_DEF),
                        "--t", "1", "--s", "0", "--base", "{0}")
        assert code == 0 and out["image"] == "{1}"

    def test_deep_identity_system(self, capsys):
        # the identity cut at depth 30: refining to cells would list 2^30 words
        path = str(ROOT / "systems" / "deep_identity.json")
        rules = tuple(deep_identity_rules(30))
        assert load_system(path).generator == PrefixMap(rules)
        code, out = run(capsys, "etale", path, "--t", "1", "--s", "0")
        assert code == 0 and out["ok"] and out["image"] == "{ε}"
        code, out = run(capsys, "axioms", path, "--bound", "2")
        assert code == 0 and out["ok"]

    def test_etale_bad_base(self, sysfile, capsys):
        code, out = run(capsys, "etale", sysfile(FLIP_DEF),
                        "--t", "1", "--s", "0", "--base", "{1}")
        assert code == 1 and "error" in out

    def test_etale_blank_base_item(self, sysfile, capsys):
        for base in ("{0,}", "{0, ,1}"):
            code, out = run(capsys, "etale", sysfile(FLIP_DEF),
                            "--t", "0", "--s", "0", "--base", base)
            assert code == 1 and "blank" in out["error"]

    def test_quotient(self, sysfile, capsys):
        code, out = run(capsys, "quotient", sysfile(FLIP_DEF),
                        "--bound", "1", "--depth", "1")
        assert code == 0 and out["count"] == 4

    def test_quotient_over_the_cell_budget(self, monkeypatch, capsys):
        # 9 slots x 2^40 cells: refused before the partition reads a map
        def unreachable(a, n):
            raise AssertionError("the partition started before its budget check")

        monkeypatch.setattr(cantorenv.cells, "adapted_depth", unreachable)
        code, out = run(capsys, "quotient", str(ROOT / "systems" / "flip.json"),
                        "--depth", "40")
        assert code == 3 and "budget" in out["error"]

    def test_filtrate_witness(self, sysfile, capsys):
        code, out = run(capsys, "filtrate", sysfile(ODOMETER_DEF),
                        "--p", "2:(0)", "--q", "0:01(0)")
        assert code == 0 and out["witness_level"] == 1

    def test_filtrate_rejects_half_a_pair(self, sysfile, capsys):
        code, out = run(capsys, "filtrate", sysfile(ODOMETER_DEF),
                        "--p", "2:(0)")
        assert code == 1

    def test_filtrate_refuses_a_witness_on_a_clopen_system(self, sysfile, capsys):
        code, out = run(capsys, "filtrate", sysfile(FLIP_DEF),
                        "--p", "1:(0)", "--q", "0:1(0)")
        assert code == 1
        assert out == {"error": "inclusion witnesses need an open enumeration"}

    def test_filtrate_cap(self, sysfile, capsys):
        code, out = run(capsys, "filtrate", sysfile(ODOMETER_DEF),
                        "--p", "1:1110(0)", "--q", "0:0001(0)", "--cap", "2")
        assert code == 3 and "error" in out

    def test_filtrate_stage_relation(self, sysfile, capsys):
        code, out = run(capsys, "filtrate", sysfile(ODOMETER_DEF),
                        "--level", "1", "--bound", "2", "--depth", "2")
        assert code == 0 and len(out["classes"]) == 8

    def test_bratteli_json(self, sysfile, capsys):
        code, out = run(capsys, "bratteli", sysfile(ODOMETER_DEF),
                        "--levels", "3", "--out", "json")
        assert code == 0
        assert len(out["levels"]) == 3

    def test_bratteli_dot(self, sysfile, capsys):
        code, out = run(capsys, "bratteli", sysfile(ODOMETER_DEF),
                        "--levels", "2", "--out", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_verify_psi(self, sysfile, capsys):
        code, out = run(capsys, "verify-psi", sysfile(FLIP_DEF),
                        "--trials", "20", "--seed", "1")
        assert code == 0
        assert out["equivariance"]["epsilon"] == -1

    def test_verify_psi_depth_default_from_system_file(self, sysfile, capsys):
        withdef = {**FLIP_DEF, "defaults": {"depth": 4}}
        implicit = run(capsys, "verify-psi", sysfile(withdef),
                       "--trials", "10", "--seed", "3")
        explicit = run(capsys, "verify-psi", sysfile(FLIP_DEF, "plain.json"),
                       "--trials", "10", "--seed", "3", "--depth", "4")
        assert implicit == explicit and implicit[0] == 0

    def test_verify_psi_generated_needs_level(self, sysfile, capsys):
        code, out = run(capsys, "verify-psi", sysfile(ODOMETER_DEF),
                        "--trials", "5")
        assert code == 1

    def test_verify_psi_at_level(self, sysfile, capsys):
        code, out = run(capsys, "verify-psi", sysfile(ODOMETER_DEF),
                        "--trials", "10", "--seed", "2", "--level", "1")
        assert code == 0 and out["ok"] is True


class TestRejections:
    @pytest.mark.parametrize("argv", [
        ("related", "--p", "1:(0)", "--q", "0:1(0)"),
        ("quotient", "--bound", "1", "--depth", "2"),
        ("filtrate", "--bound", "1", "--depth", "2"),
    ])
    def test_negative_level(self, sysfile, capsys, argv):
        code, out = run(capsys, argv[0], sysfile(ODOMETER_DEF), *argv[1:],
                        "--level", "-1")
        assert code == 1 and "stage" in out["error"]

    @pytest.mark.parametrize("system, argv", [
        (ODOMETER_DEF, ("validate", "--bound", "-1")),
        (ODOMETER_DEF, ("axioms", "--bound", "-1")),
        (ODOMETER_DEF, ("hausdorff", "--depth", "-1")),
        (FLIP_DEF, ("hausdorff", "--bound", "-1")),
        (FLIP_DEF, ("quotient", "--bound", "-1")),
        (ODOMETER_DEF, ("filtrate", "--p", "2:(0)", "--q", "0:01(0)",
                        "--cap", "-1")),
        (FLIP_DEF, ("bratteli", "--levels", "0")),
        (FLIP_DEF, ("verify-psi", "--trials", "0")),
        (FLIP_DEF, ("verify-psi", "--support", "-1")),
    ])
    def test_degenerate_numbers(self, sysfile, capsys, system, argv):
        code, out = run(capsys, argv[0], sysfile(system), *argv[1:])
        assert code == 1 and "must be >=" in out["error"]

    def test_degenerate_default(self, sysfile, capsys):
        withdef = {**FLIP_DEF, "defaults": {"bound": -1}}
        code, out = run(capsys, "quotient", sysfile(withdef))
        assert code == 1 and "--bound" in out["error"]

    def test_invalid_generator_outside_the_checks(self, sysfile, capsys):
        bad = {"name": "x", "generator": {"kind": "rules",
                                          "rules": [["0", "1"], ["00", "0"]],
                                          "exhausts": "clopen"}}
        code, out = run(capsys, "quotient", sysfile(bad), "--bound", "1")
        assert code == 1 and "prefix-free" in out["error"]
        code, out = run(capsys, "hausdorff", sysfile(bad))
        assert code == 2 and out["ok"] is False

    @pytest.mark.parametrize("system", [
        {**FLIP_DEF, "defaults": {"bound": True}},
        {**OPEN_DEF, "exhaustion": [True, 2]},
    ])
    def test_bools_are_not_numbers(self, sysfile, capsys, system):
        code, out = run(capsys, "axioms", sysfile(system), "--level", "1")
        assert code == 1 and "error" in out

    def test_validate_lists_violations_under_a_valid_schedule(self, sysfile,
                                                              capsys):
        bad = {"name": "x", "generator": {"kind": "rules",
                                          "rules": [["0", "1"], ["00", "0"]],
                                          "exhausts": "open"},
               "exhaustion": [1, 2]}
        code, out = run(capsys, "validate", sysfile(bad))
        assert code == 2 and out["ok"] is False
        assert any("prefix-free" in v for v in out["violations"])


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_file_is_usage(self, capsys):
        assert main(["validate", "/no/such.json"]) == 1

    def test_unreadable_json(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("{oops")
        code, out = run(capsys, "validate", str(p))
        assert code == 1 and "line" in out["error"]

    def test_module_invocation_matches_main(self, capsys):
        flip = str(ROOT / "systems" / "flip.json")
        code = main(["validate", flip])
        out = capsys.readouterr().out
        assert out
        assert fresh_run("validate", flip) == (code, out.encode())

    def test_far_power_answers_in_json(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code, out = run(capsys, "etale", "systems/flip.json", "--t", "3000", "--s", "0")
        assert code == 0 and out["ok"] is True and out["base"] == "{}"
        code, out = run(capsys, "related", "systems/flip.json", "--p", "3000:(0)",
                        "--q", "0:(0)")
        assert code == 0 and out["related"] is False

    def test_sampled_support_over_the_cell_budget(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code, out = run(capsys, "verify-psi", "systems/flip.json", "--trials", "1",
                        "--depth", "30")
        assert code == 3 and "budget" in out["error"]


def test_closed_stdout_exits_as_sigpipe_without_a_traceback():
    # the read end is closed before the process starts, so its first write
    # to stdout fails however early it comes
    src = str(Path(cantorenv.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cantorenv.cli", "hausdorff", "systems/odometer.json"],
            stdout=write_end, stderr=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


class TestSharedParser:
    """main builds its parser once per process; no call may leak into the next."""

    def test_import_builds_no_parser(self):
        src = str(Path(cantorenv.__file__).resolve().parent.parent)
        probe = "import cantorenv.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_readme_commands_in_one_process_match_fresh_runs(self, monkeypatch,
                                                             capsys):
        monkeypatch.chdir(ROOT)
        for line in reversed(readme_commands()):
            argv = shlex.split(line)[1:]
            code = main(argv)
            assert (code, capsys.readouterr().out.encode()) == fresh_run(*argv), line
        assert build_parser() is build_parser()

    def test_refusal_leaves_the_parser_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["etale", "systems/flip.json"]) == 1
        assert capsys.readouterr().out == ""
        argv = ["etale", "systems/flip.json", "--t", "1", "--s", "0"]
        code = main(argv)
        assert (code, capsys.readouterr().out.encode()) == fresh_run(*argv)


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# every option of every subcommand, in help order: (required, default)
OPTIONAL, REQUIRED = (False, None), (True, None)
SURFACE = {
    "validate": {"--bound": OPTIONAL, "--level": OPTIONAL},
    "axioms": {"--bound": OPTIONAL, "--level": OPTIONAL},
    "hausdorff": {"--bound": OPTIONAL, "--depth": OPTIONAL},
    "related": {"--p": REQUIRED, "--q": REQUIRED, "--level": OPTIONAL},
    "etale": {"--t": REQUIRED, "--s": REQUIRED, "--base": OPTIONAL,
              "--level": OPTIONAL},
    "quotient": {"--bound": OPTIONAL, "--depth": OPTIONAL, "--level": OPTIONAL},
    "filtrate": {"--level": OPTIONAL, "--bound": OPTIONAL, "--depth": OPTIONAL,
                 "--cap": OPTIONAL, "--p": OPTIONAL, "--q": OPTIONAL},
    "bratteli": {"--levels": OPTIONAL, "--out": (False, "json")},
    "verify-psi": {"--trials": (False, 100), "--seed": OPTIONAL,
                   "--support": (False, 3), "--depth": OPTIONAL,
                   "--level": OPTIONAL},
}


class TestSurface:
    """The options of each subcommand, and which refusal wins when two compete."""

    def test_commands_in_order(self):
        assert list(_subcommands()) == list(SURFACE)

    @pytest.mark.parametrize("name", list(SURFACE))
    def test_options_required_and_defaults(self, name):
        sp = _subcommands()[name]
        options = [(s, (a.required, a.default)) for a in sp._actions
                   for s in a.option_strings if s not in ("-h", "--help")]
        assert options == list(SURFACE[name].items())
        assert [a.dest for a in sp._actions if not a.option_strings] == ["system"]

    @pytest.mark.parametrize("argv, error", [
        (("filtrate", "systems/odometer.json", "--level", "-1", "--bound", "-1"),
         "--bound must be >= 0, not -1"),
        (("quotient", "systems/odometer.json", "--level", "-1", "--bound", "-1"),
         "stage must be >= 0, not -1"),
        (("hausdorff", "systems/flip.json", "--bound", "-1", "--depth", "-1"),
         "--bound must be >= 0, not -1"),
        (("verify-psi", "systems/flip.json", "--trials", "0", "--support", "-1"),
         "--trials must be >= 1, not 0"),
        (("related", "systems/flip.json", "--p", "x", "--q", "0:(0)", "--level", "-1"),
         "germ 'x' must look like 'index:point'"),
    ])
    def test_first_refusal_wins(self, monkeypatch, capsys, argv, error):
        monkeypatch.chdir(ROOT)
        assert run(capsys, *argv) == (1, {"error": error})


def test_cli_mix_matches_every_reference_seed(tmp_path, monkeypatch):
    """Every cli_mix job of each seed recorded in perfbench/reference.json
    prints the recorded bytes, judged by the benchmark's own gate."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is only read
    gate = importlib.import_module("gate")
    shutil.copytree(ROOT / "systems", tmp_path / "systems")
    monkeypatch.chdir(tmp_path)  # the jobs name their system files relative to here
    seeds = json.loads(gate.REFERENCE.read_text())["digests"]["cli_mix"]
    assert sorted(map(int, seeds)) == list(range(21))
    failed = {}
    for seed in range(21):
        jobs = gate.workloads.make_jobs("cli_mix", seed)
        gate.workloads.write_inputs(jobs, tmp_path)
        outputs = gate.Outputs()
        for idx, job in enumerate(jobs):
            try:
                result = gate.workloads.run(cantorenv, job, lambda *_: None)
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                result = exc
            outputs.add(idx, job, result)
        verdict = gate.judge("cli_mix", seed, jobs, outputs, None)
        assert verdict["checked_by"] == "reference digests"
        if verdict["failed"]:
            failed[seed] = verdict["problems"]
    assert failed == {}
