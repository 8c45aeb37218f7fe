import json
import os

import numpy as np
import pytest

from multislt.audio import write_wav
from multislt.cli import build_parser, main, resolve_run_config
from multislt.manifest import read_manifest
from multislt.trainer import read_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "data")
    assert main(["synth", "--out-dir", out, "--seed", "11",
                 "--languages", "2", "--n-utt", "30"]) == 0
    return out


def _train(dataset, tmp_path, *extra):
    ckpt = str(tmp_path / "model.ckpt")
    log = str(tmp_path / "train.log")
    code = main(["train", "--manifest", os.path.join(dataset, "manifest.tsv"),
                 "--steps", "2", "--accum", "1", "--seed", "1",
                 "--save", ckpt, "--log", log, *extra])
    return code, ckpt, log


def test_synth_writes_manifest_and_archive(dataset):
    assert os.path.exists(os.path.join(dataset, "manifest.tsv"))
    assert os.path.exists(os.path.join(dataset, "data.feats"))
    assert len(read_manifest(os.path.join(dataset, "manifest.tsv"))) == 60


def test_train_saves_checkpoint_and_logs_config(dataset, tmp_path):
    code, ckpt, log = _train(dataset, tmp_path, "--forcing", "merge", "--site", "pre")
    assert code == 0
    header, _ = read_checkpoint(ckpt)
    assert header["config"]["forcing_mode"] == "merge"
    lines = open(log, encoding="utf-8").read().splitlines()
    rc = json.loads(lines[0][2:])  # "# {...}" header precedes step rows
    assert lines[0].startswith("# ")
    assert rc["seed"] == 1 and rc["forcing"] == "merge"
    assert len(lines) == 3  # header + 2 steps
    step, lr, loss, elapsed = lines[1].split("\t")
    assert int(step) == 1 and float(loss) > 0


def test_config_file_flags_win(dataset, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 1, "seed": 9}))
    log = str(tmp_path / "train.log")
    code = main(["train", "--manifest", os.path.join(dataset, "manifest.tsv"),
                 "--accum", "1", "--seed", "0", "--log", log,
                 "--config", str(cfg)])
    assert code == 0
    rc = json.loads(open(log, encoding="utf-8").readline()[2:])
    assert rc["steps"] == 1   # from file (flag not given)
    assert rc["seed"] == 0    # a given flag wins over file, even at its default


def test_default_train_run_leaves_warmup():
    rc = resolve_run_config(build_parser().parse_args(["train", "--manifest", "m.tsv"]))
    assert rc.warmup < rc.steps


def test_config_file_unknown_key_is_usage_error(dataset, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code, _, _ = _train(dataset, tmp_path, "--config", str(cfg))
    assert code == 1


@pytest.mark.parametrize("values", [{"steps": "two"}, {"forcing": "bogus"},
                                    {"mix_asr": "yes"}, [1, 2]])
def test_config_file_bad_value_is_usage_error(dataset, tmp_path, values):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values))
    code, _, _ = _train(dataset, tmp_path, "--config", str(cfg))
    assert code == 1


def test_asr_pretrain_has_no_forcing_flags(dataset, tmp_path):
    manifest = os.path.join(dataset, "manifest.tsv")
    log = str(tmp_path / "asr.log")
    for flags in (["--mix-asr"], ["--forcing", "merge"], ["--site", "post"]):
        assert main(["asr-pretrain", "--manifest", manifest, *flags]) == 1
    assert main(["train", "--manifest", manifest, "--data-dir", "/nope"]) == 1
    assert main(["asr-pretrain", "--manifest", manifest, "--steps", "1",
                 "--accum", "1", "--log", log]) == 0
    rc = json.loads(open(log, encoding="utf-8").readline()[2:])
    assert rc["subcommand"] == "asr-pretrain"
    assert rc["forcing"] == "none" and rc["mix_asr"] is False


def test_evaluate_unknown_hypothesis_id_exits_1(dataset, tmp_path, capsys):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("no_such_utt\tL0\tL0\t-1.0\tabc\n")
    assert main(["evaluate", "--hyp", str(hyp), "--manifest",
                 os.path.join(dataset, "manifest.tsv")]) == 1
    assert "no_such_utt" in capsys.readouterr().err


def test_translate_evaluate_audit_round_trip(dataset, tmp_path):
    code, ckpt, _ = _train(dataset, tmp_path)
    assert code == 0
    hyp = str(tmp_path / "hyp.tsv")
    manifest = os.path.join(dataset, "manifest.tsv")
    assert main(["translate", "--checkpoint", ckpt, "--manifest", manifest,
                 "--split", "test", "--out", hyp, "--max-len", "12"]) == 0
    rows = [l.split("\t") for l in open(hyp, encoding="utf-8").read().splitlines()]
    assert rows and all(len(r) == 5 for r in rows)
    report = str(tmp_path / "report.json")
    assert main(["evaluate", "--hyp", hyp, "--manifest", manifest,
                 "--split", "test", "--char-level", "--out", report]) == 0
    bleu = json.load(open(report))["bleu"]
    assert set(bleu) == {"L0", "L1"}
    audit = str(tmp_path / "audit.json")
    assert main(["audit", "--hyp", hyp, "--manifest", manifest,
                 "--out", audit]) == 0
    acc = json.load(open(audit))["language_accuracy"]
    assert all(0.0 <= v <= 1.0 for v in acc.values())


def test_translate_missing_checkpoint_exits_1_no_output(dataset, tmp_path):
    out = str(tmp_path / "never.tsv")
    code = main(["translate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--manifest", os.path.join(dataset, "manifest.tsv"),
                 "--out", out])
    assert code == 1
    assert not os.path.exists(out)


def test_asr_pretrain_then_transfer_and_mix(dataset, tmp_path):
    manifest = os.path.join(dataset, "manifest.tsv")
    asr = str(tmp_path / "asr.ckpt")
    assert main(["asr-pretrain", "--manifest", manifest, "--steps", "1",
                 "--accum", "1", "--save", asr]) == 0
    header, _ = read_checkpoint(asr)
    assert header["languages"] == ["en"]
    code, ckpt, log = _train(dataset, tmp_path, "--forcing", "merge",
                             "--site", "pre", "--mix-asr",
                             "--transfer-from", asr)
    assert code == 0
    header, _ = read_checkpoint(ckpt)
    assert "en" in header["languages"]


def test_extract_from_wavs(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(3):
        p = str(tmp_path / f"u{i}.wav")
        write_wav(p, rng.normal(0, 0.1, 6000).clip(-1, 1))
        rows.append(f"{p}\tabc\tABC\tL0\ttrain")
    src = tmp_path / "manifest.tsv"
    src.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "feat")
    assert main(["extract", "--manifest", str(src), "--out-dir", out]) == 0
    entries = read_manifest(os.path.join(out, "manifest.tsv"))
    assert len(entries) == 3
    assert entries[0].audio_path == "data.feats#u0"


def test_gradcheck_subcommand_passes():
    assert main(["gradcheck", "--seed", "0"]) == 0


def test_usage_errors_exit_1():
    assert main(["train"]) == 1                    # missing --manifest
    assert main(["no-such-subcommand"]) == 1
    assert main(["train", "--manifest", "/nonexistent.tsv"]) == 1
