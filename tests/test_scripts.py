"""Smoke tests of the experiment scripts at tiny sizes."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _json_tail(out: str) -> dict:
    return json.loads(out[out.index("\n{") + 1:])


def test_forcing_comparison_reports_every_config(tmp_path, capsys):
    _main("forcing_comparison")(["--work-dir", str(tmp_path), "--n-utt", "20",
                                 "--steps", "2"])
    results = _json_tail(capsys.readouterr().out)
    assert set(results) == {"merge-pre", "merge-final", "merge-decoder",
                            "concat-pre", "concat-final", "concat-decoder"}
    for r in results.values():
        assert r["final_loss"] > 0 and set(r["audit"]) == {"L0", "L1"}


def test_toy_experiment_prints_summary(tmp_path, capsys):
    _main("toy_experiment")(["--work-dir", str(tmp_path), "--n-utt", "20",
                             "--steps", "2", "--accum", "1"])
    summary = _json_tail(capsys.readouterr().out)
    assert summary["updates"] == 2 and summary["n_eval"] == 3
    assert set(summary["audit"]) == {"L0", "L1", "L2"}
