"""Command-line entry points: extract, synth, train, asr-pretrain,
translate, evaluate, audit, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
train and asr-pretrain run ``trainer.train_run``, translate runs
``decoding.decode_split``. A training log's "# {json}" header, saved as a
file, reruns its run with ``--config``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import Field, fields

import numpy as np

from .audio import mel_spectrogram, read_wav, write_feature_archive
from .decoding import decode_split
from .evaluate import bleu, classify_language, language_audit, target_alphabets
from .forcing import MODES, SITES
from .manifest import ManifestEntry, read_manifest, write_manifest
from .model import ModelConfig, SpeechTransformer
from .trainer import RunConfig, load_checkpoint, train_run
from . import synth as synthmod


class UsageError(ValueError):
    pass


CHOICES = {"forcing": MODES, "site": SITES}


def _run_fields(subcommand: str) -> dict[str, Field]:
    skip = {"subcommand"}
    if subcommand == "asr-pretrain":
        skip |= {"forcing", "site", "mix_asr"}
    return {f.name: f for f in fields(RunConfig) if f.name not in skip}


def _field_type(f: Field) -> type:
    return str if f.default is None else type(f.default)


def add_run_flags(parser: argparse.ArgumentParser, subcommand: str):
    """One flag per RunConfig field of ``subcommand``."""
    parser.add_argument("--config", help="JSON file of RunConfig fields; flags win")
    for name, f in _run_fields(subcommand).items():
        flag = "--" + name.replace("_", "-")
        if _field_type(f) is bool:
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(flag, type=_field_type(f), choices=CHOICES.get(name))


def _file_value(f: Field, value):
    """Parse a config-file value as its flag would parse the same text.

    null is kept where the default is None. ModelConfig checks the forcing
    mode and site.
    """
    kind = _field_type(f)
    if value is None and f.default is None:
        return None
    if kind is bool:
        if isinstance(value, bool):
            return value
    else:
        try:
            return kind(str(value))
        except ValueError:
            pass
    raise UsageError(f"config key {f.name!r}: expected {kind.__name__}, got {value!r}")


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig defaults < ``--config`` file < flags the user gave.

    Run flags default to ``argparse.SUPPRESS``, so ``args`` holds only the
    flags on the command line. Logged fields with no flag (``subcommand``,
    asr-pretrain's forcing and ASR mixing) must hold the values run with.
    """
    known = _run_fields(args.subcommand)
    fixed = {f.name: f.default for f in fields(RunConfig) if f.name not in known}
    fixed["subcommand"] = args.subcommand
    values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: expected a JSON object")
        for key, val in loaded.items():
            if key in known:
                values[key] = _file_value(known[key], val)
            elif key not in fixed:
                raise UsageError(f"unknown config key {key!r}")
            elif (type(val), val) != (type(fixed[key]), fixed[key]):
                raise UsageError(f"config key {key!r} is {val!r}, but {args.subcommand} "
                                 f"runs with {fixed[key]!r}")
    values.update({k: v for k, v in vars(args).items() if k in known})
    if values.get("manifest") is None:
        raise UsageError("a manifest is required: --manifest or a --config key")
    return RunConfig(subcommand=args.subcommand, **values)


def cmd_extract(args) -> int:
    """One record per audio file: the rows of a multi-target manifest share it."""
    entries = read_manifest(args.manifest, check_files=True)
    base = os.path.dirname(os.path.abspath(args.manifest))
    audio = {}  # utterance id -> the audio file it names
    for e in entries:
        path = os.path.normpath(os.path.join(base, e.audio_path))
        if audio.setdefault(e.utt_id, path) != path:
            raise UsageError(f"{args.manifest}: {audio[e.utt_id]} and {path} both give "
                             f"utterance id {e.utt_id!r}")
    os.makedirs(args.out_dir, exist_ok=True)
    n = write_feature_archive(os.path.join(args.out_dir, "data.feats"),
                              ((utt_id, mel_spectrogram(read_wav(path)))
                               for utt_id, path in audio.items()))
    write_manifest(os.path.join(args.out_dir, "manifest.tsv"),
                   [ManifestEntry(f"data.feats#{e.utt_id}", e.transcript, e.target_text,
                                  e.lang, e.split) for e in entries])
    print(f"extracted {n} utterances -> {args.out_dir}")
    return 0


def cmd_synth(args) -> int:
    languages = synthmod.default_languages(args.languages, args.token_vocab)
    manifest_path, entries = synthmod.synth_dataset(
        args.out_dir, seed=args.seed, n_utt_per_lang=args.n_utt,
        languages=languages, token_vocab=args.token_vocab,
        noise_sigma=args.noise)
    print(f"wrote {len(entries)} rows to {manifest_path}")
    return 0


def cmd_train(args) -> int:
    """train and asr-pretrain; the latter targets the English transcripts."""
    train_run(resolve_run_config(args), verbose=True)
    return 0


def cmd_translate(args) -> int:
    model, vocab, _ = load_checkpoint(args.checkpoint)
    entries = read_manifest(args.manifest, check_files=False)
    alphabets = target_alphabets(entries)
    examples, hyps = decode_split(model, vocab, entries,
                                  os.path.dirname(os.path.abspath(args.manifest)),
                                  args.split, args.beam, args.max_len)
    with open(args.out, "w", encoding="utf-8") as f:
        for ex, hyp in zip(examples, hyps):
            detected = classify_language(hyp.text, alphabets) or "?"
            f.write(f"{ex.utt_id}\t{ex.lang}\t{detected}\t{hyp.logprob:.6f}\t{hyp.text}\n")
    print(f"decoded {len(hyps)} utterances -> {args.out}")
    return 0


def _read_hyps(path: str):
    """(utt_id, lang, detected, score, text) rows of a hypothesis TSV."""
    rows = []
    # undecodable bytes become lone surrogates, which encode() rejects
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode("utf-8")
                utt_id, lang, detected, score, *text = line.rstrip("\n").split("\t")
                rows.append((utt_id, lang, detected, float(score), text[0] if text else ""))
            except ValueError as e:
                raise UsageError(f"{path}:{lineno}: expected UTF-8 utt_id, lang, detected, "
                                 f"score and text columns ({e})") from None
    return rows


def _report(report: dict, out: str | None) -> int:
    """Print ``report`` as JSON, and write it to ``out`` if given."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_evaluate(args) -> int:
    hyps = _read_hyps(args.hyp)
    # one utterance has a row per target language
    refs = {(e.utt_id, e.lang): e.target_text
            for e in read_manifest(args.manifest, check_files=False) if e.split == args.split}
    by_lang: dict[str, tuple[list[str], list[str]]] = {}
    lines: dict[tuple[str, str], int] = {}  # each row's line in the TSV
    for lineno, (utt_id, lang, _, _, text) in enumerate(hyps, 1):
        if (utt_id, lang) not in refs:
            raise UsageError(f"hypothesis {utt_id!r} in language {lang!r} is not in split "
                             f"{args.split!r} of {args.manifest}")
        if (utt_id, lang) in lines:
            raise UsageError(f"{args.hyp}:{lineno}: hypothesis {utt_id!r} in language {lang!r} "
                             f"repeats {args.hyp}:{lines[utt_id, lang]}")
        lines[utt_id, lang] = lineno
        ref = refs[utt_id, lang]
        by_lang.setdefault(lang, ([], []))[0].append(text)
        by_lang[lang][1].append(" ".join(ref) if args.char_level else ref)
    missing = [key for key in refs if key not in lines]
    if missing:
        raise UsageError(f"{len(missing)} of the {len(refs)} rows of split {args.split!r} of "
                         f"{args.manifest} have no hypothesis in {args.hyp}, the first "
                         f"{missing[0][0]!r} in language {missing[0][1]!r}")
    return _report({"bleu": {lang: bleu([" ".join(h) for h in hs] if args.char_level else hs, rs)
                             for lang, (hs, rs) in sorted(by_lang.items())}}, args.out)


def cmd_audit(args) -> int:
    hyps = _read_hyps(args.hyp)
    entries = read_manifest(args.manifest, check_files=False)
    alphabets = target_alphabets(entries)
    acc = language_audit([(lang, text) for _, lang, _, _, text in hyps], alphabets)
    return _report({"language_accuracy": {k: acc[k] for k in sorted(acc)}}, args.out)


def cmd_gradcheck(args) -> int:
    from . import tensor as T
    from .tensor import Tensor, grad_check
    rng = np.random.default_rng(args.seed)
    inputs, b = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=5))
    conv = [Tensor(rng.normal(size=shape)) for shape in ((2, 1, 3, 3), 2, 2, 2)]
    gamma, beta, bias = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)), rng.normal(size=4)
    ops = {  # name: (the op as a function of one operand, that operand's shape)
        "linear": (lambda w: T.linear(inputs, w, b), (4, 5)),
        "attention": (lambda q: T.attention(q, q, q, 0.5, bias, heads=2), (2, 4, 6)),
        "conv_block": (lambda x: T.conv_block(x, *conv, True, np.zeros(2), np.ones(2),
                                              stride=(2, 2)), (2, 1, 6, 5)),
        "layer_norm": (lambda x: T.layer_norm(x, gamma, beta), (3, 6)),
        "add_layer_norm": (lambda x: T.add_layer_norm(x, T.tanh(x), gamma, beta), (3, 6)),
        "embedding": (lambda t: T.embedding(t, [[1, 3, 3], [0, 6, 2]]), (7, 4)),
        "cross_entropy": (lambda x: T.cross_entropy(x, np.array([1, 3, 0, 2]), 0), (4, 5))}
    worst = {}
    for name, (op, shape) in ops.items():
        operand = Tensor(rng.normal(size=shape))
        weights = Tensor(rng.normal(size=op(operand).shape))
        worst[name] = grad_check(lambda t: T.tsum(T.mul(op(t), weights)), operand)

    # in training mode with dropout 0, batch statistics are the only change
    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=2, n_decoder_layers=2, dropout=0.0)
    model = SpeechTransformer(cfg, seed=args.seed)
    feats = rng.normal(size=(2, 12, 40))
    prefix = np.array([[1, 4, 5], [1, 6, 7]])
    labels = np.array([4, 5, 2, 6, 7, 2])

    def full(x):
        enc = model.encode(x, [12, 12])
        logits = model.decode_logits(enc, prefix)
        return T.cross_entropy(T.reshape(logits, (-1, 12)), labels, 0)

    for name, mode in (("full_model", model.eval), ("full_model_train", model.train)):
        mode()
        worst[name] = grad_check(full, Tensor(feats), sample=60,
                                 rng=np.random.default_rng(args.seed))
    for name, err in worst.items():
        print(f"{name:16s} max rel err {err:.3e}  {'ok' if err < 1e-4 else 'FAIL'}")
    return 0 if all(err < 1e-4 for err in worst.values()) else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multislt",
                                description="multilingual speech translation at desk scale")
    sub = p.add_subparsers(dest="subcommand", required=True)

    ex = sub.add_parser("extract", help="compute MEL features from a WAV manifest")
    ex.add_argument("--manifest", required=True)
    ex.add_argument("--out-dir", required=True)
    ex.set_defaults(func=cmd_extract)

    sy = sub.add_parser("synth", help="generate the deterministic synthetic dataset")
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--seed", type=int, default=17)
    sy.add_argument("--languages", type=int, default=3)
    sy.add_argument("--n-utt", type=int, default=3000)
    sy.add_argument("--token-vocab", type=int, default=20)
    sy.add_argument("--noise", type=float, default=0.05)
    sy.set_defaults(func=cmd_synth)

    for name, help_text in (("train", "train a multilingual model"),
                            ("asr-pretrain", "train with English-only (ASR) targets")):
        tp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        add_run_flags(tp, name)
        tp.set_defaults(func=cmd_train)

    td = sub.add_parser("translate", help="decode a split to a hypothesis TSV")
    td.add_argument("--checkpoint", required=True)
    td.add_argument("--manifest", required=True)
    td.add_argument("--split", default="test")
    td.add_argument("--out", required=True)
    td.add_argument("--beam", type=int, default=1)
    td.add_argument("--max-len", type=int, default=50)
    td.set_defaults(func=cmd_translate)

    ev = sub.add_parser("evaluate", help="BLEU report from a hypothesis TSV")
    ev.add_argument("--hyp", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--split", default="test")
    ev.add_argument("--char-level", action="store_true",
                    help="score with space-joined characters")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)

    au = sub.add_parser("audit", help="output-language accuracy report")
    au.add_argument("--hyp", required=True)
    au.add_argument("--manifest", required=True)
    au.add_argument("--out", default=None)
    au.set_defaults(func=cmd_audit)

    gc = sub.add_parser("gradcheck", help="finite-difference verification suite")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as e:  # UsageError and the readers' errors too
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FloatingPointError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
