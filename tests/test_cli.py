import gc
import hashlib
import json
import os
import shutil
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

from multislt import experiment
from multislt.cli import build_parser, main, resolve_run_config
from multislt.decoding import decode_split
from multislt.manifest import ManifestEntry, Vocabulary, read_manifest, write_manifest
from multislt.model import ModelConfig, SpeechTransformer
from multislt.trainer import read_checkpoint, save_checkpoint

from helpers import rewrite_header, write_wav


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
    lines = Path(log).read_text(encoding="utf-8").splitlines()
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
    rc = json.loads(Path(log).read_text(encoding="utf-8").splitlines()[0][2:])
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
                                    {"mix_asr": "yes"}, [1, 2],
                                    {"subcommand": "asr-pretrain"}, {"subcommand": None}])
def test_config_file_bad_value_is_usage_error(dataset, tmp_path, values):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values))
    code, _, _ = _train(dataset, tmp_path, "--config", str(cfg))
    assert code == 1


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name,value", [("accum", 0), ("accum", -2), ("warmup", 0),
                                        ("steps", -3), ("dropout", 1.0)])
def test_out_of_range_run_setting_exits_1(dataset, tmp_path, capsys, source, name, value):
    if source == "flag":
        given = ["--" + name, str(value)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({name: value}))
        given = ["--config", str(cfg)]
    ckpt = str(tmp_path / "model.ckpt")
    _exits_1_with_message(capsys, ["train", "--manifest", os.path.join(dataset, "manifest.tsv"),
                                   "--save", ckpt, *given], ckpt, name)


@pytest.mark.parametrize("token_vocab", ["0", "21", "30"])
def test_synth_token_vocab_out_of_range_exits_1(tmp_path, capsys, token_vocab):
    out = str(tmp_path / "data")
    _exits_1_with_message(capsys, ["synth", "--out-dir", out, "--n-utt", "10",
                                   "--token-vocab", token_vocab], out, "token_vocab")


def test_asr_pretrain_has_no_forcing_flags(dataset, tmp_path):
    manifest = os.path.join(dataset, "manifest.tsv")
    log = str(tmp_path / "asr.log")
    for flags in (["--mix-asr"], ["--forcing", "merge"], ["--site", "post"]):
        assert main(["asr-pretrain", "--manifest", manifest, *flags]) == 1
    assert main(["train", "--manifest", manifest, "--data-dir", "/nope"]) == 1
    assert main(["asr-pretrain", "--manifest", manifest, "--steps", "1",
                 "--accum", "1", "--log", log]) == 0
    rc = json.loads(Path(log).read_text(encoding="utf-8").splitlines()[0][2:])
    assert rc["subcommand"] == "asr-pretrain"
    assert rc["forcing"] == "none" and rc["mix_asr"] is False


@pytest.mark.parametrize("values", [{"forcing": "merge"}, {"site": "post"}, {"mix_asr": True},
                                    {"mix_asr": 0}, {"subcommand": "train"}])
def test_asr_pretrain_config_takes_fixed_fields_only_at_their_values(dataset, tmp_path, values):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values))
    assert main(["asr-pretrain", "--manifest", os.path.join(dataset, "manifest.tsv"),
                 "--steps", "1", "--accum", "1", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command", ["train", "asr-pretrain"])
def test_log_header_reruns_the_run(dataset, tmp_path, command):
    logs = [str(tmp_path / "first.log"), str(tmp_path / "second.log")]
    assert main([command, "--manifest", os.path.join(dataset, "manifest.tsv"), "--steps", "2",
                 "--accum", "1", "--seed", "3", "--log", logs[0]]) == 0
    cfg = tmp_path / "header.json"
    cfg.write_text(Path(logs[0]).read_text(encoding="utf-8").splitlines()[0][2:])
    assert main([command, "--config", str(cfg), "--log", logs[1]]) == 0
    (head1, *rows1), (head2, *rows2) = (Path(p).read_text(encoding="utf-8").splitlines()
                                        for p in logs)
    rc1, rc2 = json.loads(head1[2:]), json.loads(head2[2:])
    assert rc2.pop("log") == logs[1] and rc1.pop("log") == logs[0]
    assert rc1 == rc2 and rc1["subcommand"] == command
    assert len(rows1) == 2
    assert [r.split("\t")[:3] for r in rows1] == [r.split("\t")[:3] for r in rows2]


def test_toy_experiment_runs_the_cli_path(tmp_path, monkeypatch):
    decoded = []

    def spy(*args, **kwargs):
        decoded.append(decode_split(*args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(experiment, "decode_split", spy)
    a, b, log, hyp = (str(tmp_path / name) for name in ("a.ckpt", "b.ckpt", "b.log", "b.tsv"))
    result = experiment.run_toy_experiment(str(tmp_path / "toy"), seed=5, n_languages=2,
                                           n_utt_per_lang=20, steps=2, accum=1, checkpoint=a)
    manifest = str(tmp_path / "toy" / "data" / "manifest.tsv")
    assert main(["train", "--manifest", manifest, "--seed", "5", "--steps", "2", "--accum", "1",
                 "--forcing", "merge", "--site", "pre", "--save", b, "--log", log]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    rows = Path(log).read_text(encoding="utf-8").splitlines()[1:]
    assert [r.split("\t")[2] for r in rows] == [f"{x:.6f}" for x in result["losses"]]
    assert main(["translate", "--checkpoint", b, "--manifest", manifest,
                 "--max-len", "14", "--out", hyp]) == 0
    (examples, hyps), = decoded
    tsv = [line.split("\t") for line in Path(hyp).read_text(encoding="utf-8").splitlines()]
    assert [(r[0], r[4]) for r in tsv] == [(ex.utt_id, h.text) for ex, h in zip(examples, hyps)]
    assert len(tsv) == result["n_eval"] > 0


def test_evaluate_unknown_hypothesis_id_exits_1(dataset, tmp_path, capsys):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("no_such_utt\tL0\tL0\t-1.0\tabc\n")
    assert main(["evaluate", "--hyp", str(hyp), "--manifest",
                 os.path.join(dataset, "manifest.tsv")]) == 1
    assert "no_such_utt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@pytest.mark.parametrize("row", [b"L0_000001\tL0\n", b"L0_000001\tL0\tL0\tnotnum\tabc\n",
                                 b"L0_000001\tL0\tL0\t-1.0\tab\xffc\n"],
                         ids=["short-row", "non-numeric-score", "non-utf8"])
def test_malformed_hypothesis_row_exits_1(dataset, tmp_path, capsys, command, row):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_bytes(b"L0_000000\tL0\tL0\t-1.0\tabc\n" + row)
    out = str(tmp_path / "report.json")
    _exits_1_with_message(capsys, [command, "--hyp", str(hyp), "--manifest",
                                   os.path.join(dataset, "manifest.tsv"), "--out", out],
                          out, f"{hyp}:2")


def test_translate_evaluate_audit_round_trip(dataset, tmp_path):
    code, ckpt, _ = _train(dataset, tmp_path)
    assert code == 0
    hyp = str(tmp_path / "hyp.tsv")
    manifest = os.path.join(dataset, "manifest.tsv")
    assert main(["translate", "--checkpoint", ckpt, "--manifest", manifest,
                 "--split", "test", "--out", hyp, "--max-len", "12"]) == 0
    rows = [l.split("\t") for l in Path(hyp).read_text(encoding="utf-8").splitlines()]
    assert rows and all(len(r) == 5 for r in rows)
    report = str(tmp_path / "report.json")
    assert main(["evaluate", "--hyp", hyp, "--manifest", manifest,
                 "--split", "test", "--char-level", "--out", report]) == 0
    bleu = json.loads(Path(report).read_text())["bleu"]
    assert set(bleu) == {"L0", "L1"}
    audit = str(tmp_path / "audit.json")
    assert main(["audit", "--hyp", hyp, "--manifest", manifest,
                 "--out", audit]) == 0
    acc = json.loads(Path(audit).read_text())["language_accuracy"]
    assert all(0.0 <= v <= 1.0 for v in acc.values())


@pytest.mark.parametrize("command,key", [("evaluate", "bleu"), ("audit", "language_accuracy")])
def test_report_file_is_closed(dataset, tmp_path, command, key):
    manifest = os.path.join(dataset, "manifest.tsv")
    tests = [e for e in read_manifest(manifest) if e.split == "test"]
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("".join(f"{e.utt_id}\t{e.lang}\t{e.lang}\t-1.0\t{e.target_text}\n"
                           for e in tests), encoding="utf-8")
    report = tmp_path / "report.json"
    extra = ["--split", "test"] if command == "evaluate" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--hyp", str(hyp), "--manifest", manifest,
                     "--out", str(report), *extra]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert key in json.loads(report.read_text(encoding="utf-8"))


def test_translate_missing_checkpoint_exits_1_no_output(dataset, tmp_path):
    out = str(tmp_path / "never.tsv")
    code = main(["translate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--manifest", os.path.join(dataset, "manifest.tsv"),
                 "--out", out])
    assert code == 1
    assert not os.path.exists(out)


def test_translate_unknown_target_language_exits_1_no_output(dataset, tmp_path, capsys):
    code, ckpt, _ = _train(dataset, tmp_path, "--forcing", "merge", "--site", "pre")
    assert code == 0
    entries = [ManifestEntry(os.path.join(dataset, e.audio_path), e.transcript, e.target_text,
                             "L7" if e.split == "test" else e.lang, e.split)
               for e in read_manifest(os.path.join(dataset, "manifest.tsv"))]
    manifest = str(tmp_path / "l7.tsv")
    write_manifest(manifest, entries)
    out = str(tmp_path / "hyp.tsv")
    capsys.readouterr()
    assert main(["translate", "--checkpoint", ckpt, "--manifest", manifest,
                 "--out", out, "--max-len", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "L7" in err and "L0" in err
    assert not os.path.exists(out)


def _exits_1_with_message(capsys, argv, out, *names):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert all(name in err for name in names), err
    assert not os.path.exists(out)


ADAM = {"beta1": 0.9, "beta2": 0.98, "eps": 1e-9, "step": 0}


@pytest.mark.parametrize("edit", [lambda h: h["config"].update(bogus=1),
                                  lambda h: h["config"].pop("vocab_size"),
                                  lambda h: h.pop("vocab"),
                                  lambda h: h.update(tensors="x"),
                                  lambda h: h["tensors"].__setitem__(0, "w"),
                                  lambda h: h["tensors"][0].pop("offset"),
                                  lambda h: h["tensors"][0].update(offset=-8),
                                  lambda h: h["tensors"][0].update(offset=8.0),
                                  lambda h: h["tensors"][0].update(shape="x"),
                                  lambda h: h["tensors"][0].update(shape=[2, -1]),
                                  lambda h: h["tensors"][1].update(offset=0),
                                  lambda h: h["tensors"][0].pop("name"),
                                  lambda h: h["tensors"].append({**h["tensors"][0],
                                                                 "kind": "weights"}),
                                  lambda h: h.update(adam={}),
                                  lambda h: h.update(adam=[]),
                                  lambda h: h.update(adam={"beta1": "x", "beta2": 0.98,
                                                           "eps": 1e-9, "step": 0}),
                                  lambda h: h["config"].update(n_heads=0),
                                  lambda h: h["config"].update(d_model="8"),
                                  lambda h: h["config"].update(d_model=10**12),
                                  lambda h: h["config"].update(n_encoder_layers=10**12),
                                  lambda h: h["config"].update(dropout=1.5),
                                  lambda h: h["config"].update(languages=[["L0"], "L1"]),
                                  lambda h: h["config"].update(languages=[1, 2]),
                                  lambda h: h["config"].update(languages=["L0", "L0"]),
                                  lambda h: h.update(adam={**ADAM, "beta1": 1.5}),
                                  lambda h: h.update(adam={**ADAM, "beta2": -0.2}),
                                  lambda h: h.update(adam={**ADAM, "eps": -1}),
                                  lambda h: h.update(adam={**ADAM, "eps": 0}),
                                  lambda h: h.update(adam={**ADAM, "step": -3})],
                         ids=["unknown-config-key", "no-vocab-size", "no-vocab",
                              "tensors-not-a-list", "record-not-an-object", "no-offset",
                              "negative-offset", "float-offset", "shape-not-a-list",
                              "negative-dim", "overlapping-offset", "no-name", "unknown-kind",
                              "adam-empty", "adam-list", "adam-string-beta1", "zero-heads",
                              "string-size", "huge-d-model", "huge-layer-count", "dropout-1.5",
                              "list-language", "int-languages", "repeated-language",
                              "beta1-1.5", "beta2-negative", "eps-negative", "eps-0",
                              "step-negative"])
def test_translate_malformed_checkpoint_header_exits_1(dataset, tmp_path, capsys, edit):
    cfg = ModelConfig(vocab_size=9, d_model=8, ff_hidden=8, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    good, bad = str(tmp_path / "good.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(good, SpeechTransformer(cfg), Vocabulary("abcde"))
    rewrite_header(good, bad, edit)
    out = str(tmp_path / "hyp.tsv")
    _exits_1_with_message(capsys, ["translate", "--checkpoint", bad, "--manifest",
                                   os.path.join(dataset, "manifest.tsv"), "--out", out],
                          out, bad)


@pytest.mark.parametrize("case", ["unknown-id", "cut-header", "cut-payload",
                                  "space-in-index", "non-integer-offset", "zero-frames",
                                  "zero-features"])
def test_train_bad_feature_archive_exits_1(dataset, tmp_path, capsys, case):
    arc = str(tmp_path / "data.feats")
    for suffix in ("", ".idx"):
        shutil.copy(os.path.join(dataset, "data.feats" + suffix), arc + suffix)
    index = Path(arc + ".idx").read_text().splitlines()
    offsets = {u: int(o) for u, o in (line.split("\t") for line in index)}
    utt = max(offsets, key=offsets.get)  # the archive's last record
    if case == "unknown-id":
        utt = "nope"
    elif case.startswith("cut"):
        with open(arc, "r+b") as f:
            f.truncate(offsets[utt] + (4 if case == "cut-header" else 18))
    elif case.startswith("zero"):
        with open(arc, "r+b") as f:
            f.seek(offsets[utt] + (0 if case == "zero-frames" else 4))
            f.write(bytes(4))
    else:
        index[1] = (index[1].replace("\t", " ") if case == "space-in-index"
                    else index[1].split("\t")[0] + "\tabc")
        with open(arc + ".idx", "w") as f:
            f.write("\n".join(index) + "\n")
    names = ([arc + ".idx", "line 2"] if case in ("space-in-index", "non-integer-offset")
             else [arc, repr(utt)])
    if case.startswith("zero"):
        names.append("empty")
    manifest = str(tmp_path / "manifest.tsv")
    write_manifest(manifest, [ManifestEntry(f"data.feats#{utt}", "abc", "abc", "L0", "train")])
    out = str(tmp_path / "model.ckpt")
    _exits_1_with_message(capsys, ["train", "--manifest", manifest, "--steps", "1",
                                   "--save", out], out, *names)


def test_train_mixed_feature_dimensions_exits_1(tmp_path, capsys):
    from multislt.audio import write_feature_archive

    arc = str(tmp_path / "data.feats")
    rng = np.random.default_rng(3)
    write_feature_archive(arc, [("u0", rng.normal(size=(6, 40))),
                                ("u1", rng.normal(size=(6, 39)))])
    manifest = str(tmp_path / "manifest.tsv")
    write_manifest(manifest, [ManifestEntry(f"data.feats#{u}", "abc", "abc", "L0", "train")
                              for u in ("u0", "u1")])
    out = str(tmp_path / "model.ckpt")
    _exits_1_with_message(capsys, ["train", "--manifest", manifest, "--steps", "1",
                                   "--save", out], out, arc, "'u1'", "39 features")


def test_train_non_utf8_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"data.feats#u\xe9\tabc\tabc\tL0\ttrain\n")
    out = str(tmp_path / "model.ckpt")
    _exits_1_with_message(capsys, ["train", "--manifest", str(manifest), "--steps", "1",
                                   "--save", out], out, f"{manifest}:1", "not UTF-8")


@pytest.mark.parametrize("case", ["huge-record", "offset-past-end"])
def test_translate_bad_feature_archive_exits_1(dataset, tmp_path, capsys, case):
    arc = str(tmp_path / "data.feats")
    for suffix in ("", ".idx"):
        shutil.copy(os.path.join(dataset, "data.feats" + suffix), arc + suffix)
    utt = Path(arc + ".idx").read_text().split("\t", 1)[0]
    if case == "huge-record":
        with open(arc, "r+b") as f:
            f.write((10**9).to_bytes(4, "little"))  # the first record claims 10^9 frames
        names = [arc, repr(utt)]
    else:
        with open(arc + ".idx", "a") as f:
            f.write(f"far\t{10**30}\n")
        names = [arc + ".idx", "past the end"]
    manifest = str(tmp_path / "manifest.tsv")
    write_manifest(manifest, [ManifestEntry(f"data.feats#{utt}", "abc", "abc", "L0", "test")])
    ckpt = str(tmp_path / "model.ckpt")
    cfg = ModelConfig(vocab_size=9, d_model=8, ff_hidden=8, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    save_checkpoint(ckpt, SpeechTransformer(cfg), Vocabulary("abcde"))
    out = str(tmp_path / "hyp.tsv")
    _exits_1_with_message(capsys, ["translate", "--checkpoint", ckpt, "--manifest", manifest,
                                   "--out", out], out, *names)


@pytest.mark.parametrize("beam", ["0", "-1"])
def test_translate_bad_beam_exits_1_no_output(dataset, tmp_path, capsys, beam):
    code, ckpt, _ = _train(dataset, tmp_path)
    assert code == 0
    out = str(tmp_path / "hyp.tsv")
    capsys.readouterr()
    assert main(["translate", "--checkpoint", ckpt, "--manifest",
                 os.path.join(dataset, "manifest.tsv"), "--out", out, "--beam", beam,
                 "--max-len", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beam" in err and beam in err
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


# sha256 of what ``extract`` writes for the three WAVs below; any change to
# the bytes is a change of the features.
EXTRACT_PINNED = {
    "data.feats": "2cf8e7e9eecf4a4619481258d2d7d70959a2928f93c4c904c46602ad072c2627",
    "data.feats.idx": "75030969c08b5aee803644284f70b167163d2277ef62d84c4fe40db155a28801",
    "manifest.tsv": "a72e2240298354ea0c53d38647f51e510420023dbefba66e1bcbfa8100c837d3",
}


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
    for name, digest in EXTRACT_PINNED.items():
        with open(os.path.join(out, name), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest, name


def test_extract_bad_wav_leaves_no_archive(tmp_path, capsys):
    rows = []
    for i, rate in enumerate((16000, 16000, 8000)):
        p = str(tmp_path / f"u{i}.wav")
        with wave.open(p, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(rate)
            w.writeframes(b"\x01\x00" * 6000)
        rows.append(f"{p}\tabc\tABC\tL0\ttrain")
    src = tmp_path / "manifest.tsv"
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "feat"
    _exits_1_with_message(capsys, ["extract", "--manifest", str(src), "--out-dir", str(out)],
                          str(out / "manifest.tsv"), "u2.wav", "sample rate 8000")
    assert sorted(os.listdir(out)) == []


def test_extract_id_collision_exits_1_before_writing(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for folder, n in (("a", 4000), ("b", 8000)):
        (tmp_path / folder).mkdir()
        write_wav(str(tmp_path / folder / "x.wav"), rng.normal(0, 0.1, n))
    src = tmp_path / "manifest.tsv"
    src.write_text("a/x.wav\tabc\tABC\tL0\ttrain\nb/x.wav\tabc\tABC\tL0\ttrain\n")
    out = tmp_path / "feat"
    _exits_1_with_message(capsys, ["extract", "--manifest", str(src), "--out-dir", str(out)],
                          str(out / "manifest.tsv"), str(tmp_path / "a" / "x.wav"),
                          str(tmp_path / "b" / "x.wav"), "'x'")
    assert not out.exists()


def test_extract_shares_one_record_across_target_languages(tmp_path):
    from multislt.audio import mel_spectrogram, read_wav
    from multislt.trainer import load_examples

    rng = np.random.default_rng(0)
    frames = {}
    for utt, n in (("u", 4000), ("v", 8000)):
        write_wav(str(tmp_path / f"{utt}.wav"), rng.normal(0, 0.1, n))
        frames[utt] = mel_spectrogram(read_wav(str(tmp_path / f"{utt}.wav"))).shape[0]
    src = tmp_path / "manifest.tsv"
    src.write_text("".join(f"{utt}.wav\tabc\t{lang}\t{lang}\ttrain\n"
                           for utt in frames for lang in ("L0", "L1")))
    out = tmp_path / "feat"
    assert main(["extract", "--manifest", str(src), "--out-dir", str(out)]) == 0
    index = (out / "data.feats.idx").read_text().splitlines()
    assert [line.split("\t")[0] for line in index] == ["u", "v"]
    entries = read_manifest(str(out / "manifest.tsv"))
    assert [(e.utt_id, e.lang) for e in entries] == [("u", "L0"), ("u", "L1"),
                                                     ("v", "L0"), ("v", "L1")]
    examples = load_examples(entries, Vocabulary("L01"), str(out))
    assert [len(ex.features) for ex in examples] == [frames["u"]] * 2 + [frames["v"]] * 2
    assert frames["u"] < frames["v"]


def test_evaluate_matches_references_by_id_and_language(tmp_path, capsys):
    # one utterance, one row per target language, as the paper's one-to-many setting has
    refs = {(f"u{i}", lang): f"{lang.lower()}{i}{lang.lower() * 3}" for i in range(6)
            for lang in ("L0", "L1")}
    manifest = str(tmp_path / "manifest.tsv")
    write_manifest(manifest, [ManifestEntry(f"data.feats#{utt}", "abc", text, lang,
                                            "test" if utt in ("u0", "u1") else "train")
                              for (utt, lang), text in refs.items()])
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("".join(f"{utt}\t{lang}\t{lang}\t-1.0\t{text}\n"
                           for (utt, lang), text in refs.items() if utt in ("u0", "u1")))
    out = str(tmp_path / "report.json")
    assert main(["evaluate", "--hyp", str(hyp), "--manifest", manifest, "--char-level",
                 "--out", out]) == 0
    assert json.loads(Path(out).read_text())["bleu"] == {"L0": 100.0, "L1": 100.0}
    hyp.write_text("u0\tL2\tL2\t-1.0\tl0lll\n")
    _exits_1_with_message(capsys, ["evaluate", "--hyp", str(hyp), "--manifest", manifest,
                                   "--out", str(tmp_path / "bad.json")],
                          str(tmp_path / "bad.json"), "'u0'", "'L2'")


@pytest.mark.parametrize("rows,names", [
    (["u0", "u0", "u0"], ["hyp.tsv:2", "hyp.tsv:1", "'u0'", "'L0'"]),
    (["u0", "u2"], ["1 of the 3 rows", "'u1'", "'L0'"])], ids=["repeated", "missing"])
def test_evaluate_needs_every_split_row_once(tmp_path, capsys, rows, names):
    # one hypothesis repeated three times once scored BLEU 100 on a 3-row split
    manifest = str(tmp_path / "manifest.tsv")
    write_manifest(manifest, [ManifestEntry(f"data.feats#u{i}", "abc", f"l{i}lll", "L0", "test")
                              for i in range(3)])
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("".join(f"{utt}\tL0\tL0\t-1.0\tl{utt[1]}lll\n" for utt in rows))
    out = str(tmp_path / "report.json")
    _exits_1_with_message(capsys, ["evaluate", "--hyp", str(hyp), "--manifest", manifest,
                                   "--char-level", "--out", out], out, *names)


@pytest.mark.parametrize("command", ["train", "translate"])
def test_features_of_another_width_than_n_mels_exit_1(tmp_path, capsys, command):
    from multislt.audio import write_feature_archive

    rng = np.random.default_rng(3)
    write_feature_archive(str(tmp_path / "data.feats"),
                          [(f"u{i}", rng.normal(size=(16, 39))) for i in range(2)])
    manifest = str(tmp_path / "manifest.tsv")
    split = "train" if command == "train" else "test"
    write_manifest(manifest, [ManifestEntry(f"data.feats#u{i}", "abc", "abc", "L0", split)
                              for i in range(2)])
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--manifest", manifest, "--steps", "1", "--save", out]
    else:
        ckpt = str(tmp_path / "model.ckpt")
        cfg = ModelConfig(vocab_size=9, d_model=8, ff_hidden=8, n_heads=2,
                          n_encoder_layers=1, n_decoder_layers=1)
        save_checkpoint(ckpt, SpeechTransformer(cfg), Vocabulary("abcde"))
        argv = ["translate", "--checkpoint", ckpt, "--manifest", manifest, "--out", out]
    _exits_1_with_message(capsys, argv, out, "39 values per frame", "n_mels 40")


@pytest.mark.parametrize("command", ["extract", "train"])
@pytest.mark.parametrize("case", ["not-riff", "riff-only", "too-short"])
def test_malformed_wav_exits_1(tmp_path, capsys, command, case):
    write_wav(str(tmp_path / "good.wav"), np.random.default_rng(0).normal(0, 0.1, 6000))
    bad = tmp_path / "bad.wav"
    if case == "too-short":
        write_wav(str(bad), np.zeros(399))
    else:
        bad.write_bytes(b"RIFF" if case == "riff-only" else b"not a WAV file")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("good.wav\tabc\tABC\tL0\ttrain\nbad.wav\tabc\tABC\tL0\ttrain\n")
    out = tmp_path / "out"
    if command == "extract":
        argv = ["extract", "--manifest", str(manifest), "--out-dir", str(out)]
        made = out / "manifest.tsv"
    else:
        argv = ["train", "--manifest", str(manifest), "--steps", "1", "--save", str(out)]
        made = out
    _exits_1_with_message(capsys, argv, str(made), str(bad))
    assert not os.path.exists(out / "data.feats")


def test_train_on_absolute_archive_paths(dataset, tmp_path):
    manifest = str(tmp_path / "absolute.tsv")
    write_manifest(manifest, [ManifestEntry(os.path.join(dataset, e.audio_path), e.transcript,
                                            e.target_text, e.lang, e.split)
                              for e in read_manifest(os.path.join(dataset, "manifest.tsv"))])
    code, relative, _ = _train(dataset, tmp_path)
    assert code == 0
    absolute = str(tmp_path / "absolute.ckpt")
    assert main(["train", "--manifest", manifest, "--steps", "2", "--accum", "1", "--seed", "1",
                 "--save", absolute]) == 0
    assert Path(absolute).read_bytes() == Path(relative).read_bytes()


def test_gradcheck_subcommand_passes():
    assert main(["gradcheck", "--seed", "0"]) == 0


def test_usage_errors_exit_1():
    assert main(["train"]) == 1                    # missing --manifest
    assert main(["no-such-subcommand"]) == 1
    assert main(["train", "--manifest", "/nonexistent.tsv"]) == 1
