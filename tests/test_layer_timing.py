"""Smoke test of scripts/layer_timing.py: the three fastest layers run clean.

The script reads the benchmark's job lists and the word-level oracle by
path, so a rename in either would only show when the script runs.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layer_timing.py"


def load_script():
    spec = importlib.util.spec_from_file_location("layer_timing", SCRIPT)
    layer_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_timing)
    return layer_timing


def test_join_and_psi_layers_exit_zero(capsys):
    layer_timing = load_script()
    assert layer_timing.main(["join", "--repeat", "1"]) == 0
    assert layer_timing.main(["psi", "--trials", "2", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "etale flip(base)" in out and "psi_suite jobs" in out


def test_axioms_layer_exits_zero(capsys, monkeypatch):
    # the layer runs from the root of the checkout; put the directory back
    monkeypatch.chdir(SCRIPT.parent.parent)
    assert load_script().main(["axioms", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "12 calls" in out and "axioms systems/odometer.json --bound 2" in out
