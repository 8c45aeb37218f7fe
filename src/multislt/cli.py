"""Command-line entry points: extract, synth, train, asr-pretrain,
translate, evaluate, audit, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
Every run writes its resolved configuration and seed to the log before
step 0, so a run can be reproduced from its header.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import Field, asdict, dataclass, fields

import numpy as np

from .audio import mel_spectrogram, read_wav, write_feature_archive
from .decoding import decode_corpus
from .evaluate import bleu, classify_language, language_audit, target_alphabets
from .forcing import MODES, SITES
from .manifest import (ManifestError, ManifestEntry, build_vocab,
                       read_manifest, write_manifest)
from .model import DESK, ModelConfig, SpeechTransformer
from .trainer import (DESK_RECIPE, CheckpointError, LRSchedule, load_checkpoint,
                      load_examples, mix_asr, save_checkpoint, train_model)
from . import synth as synthmod


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved settings of one train or asr-pretrain run, logged for
    provenance. Each field but ``subcommand`` is a flag of those commands
    (asr-pretrain has no forcing or ASR mixing) and a ``--config`` key.
    """

    subcommand: str
    manifest: str | None = None
    seed: int = 0
    steps: int = DESK_RECIPE["steps"]
    accum: int = DESK_RECIPE["accum"]
    lr_max: float = DESK_RECIPE["lr_max"]
    lr_init: float = LRSchedule.lr_init
    warmup: int = DESK_RECIPE["warmup"]
    forcing: str = "none"
    site: str = "pre"
    mix_asr: bool = False
    transfer_from: str | None = None
    save: str | None = None
    log: str | None = None
    d_model: int = DESK["d_model"]
    ff_hidden: int = DESK["ff_hidden"]
    n_encoder_layers: int = DESK["n_encoder_layers"]
    n_decoder_layers: int = DESK["n_decoder_layers"]
    n_heads: int = DESK["n_heads"]
    dropout: float = ModelConfig.dropout


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
            parser.add_argument(flag, type=_field_type(f), choices=CHOICES.get(name),
                                required=name == "manifest")


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
    flags on the command line.
    """
    known = _run_fields(args.subcommand)
    values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: expected a JSON object")
        for key, val in loaded.items():
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = _file_value(known[key], val)
    values.update({k: v for k, v in vars(args).items() if k in known})
    return RunConfig(subcommand=args.subcommand, **values)


def cmd_extract(args) -> int:
    entries = read_manifest(args.manifest, check_files=True)
    base = os.path.dirname(os.path.abspath(args.manifest))
    os.makedirs(args.out_dir, exist_ok=True)
    sequences = []
    new_entries = []
    for e in entries:
        path = e.audio_path if os.path.isabs(e.audio_path) else os.path.join(base, e.audio_path)
        fs = mel_spectrogram(read_wav(path), e.utt_id)
        sequences.append(fs)
        new_entries.append(ManifestEntry(f"data.feats#{e.utt_id}", e.transcript,
                                         e.target_text, e.lang, e.split))
    write_feature_archive(os.path.join(args.out_dir, "data.feats"), sequences)
    write_manifest(os.path.join(args.out_dir, "manifest.tsv"), new_entries)
    print(f"extracted {len(sequences)} utterances -> {args.out_dir}")
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
    rc = resolve_run_config(args)
    entries = read_manifest(rc.manifest, check_files=False)
    if rc.subcommand == "asr-pretrain":
        entries = [ManifestEntry(e.audio_path, e.transcript, e.transcript, "en", e.split)
                   for e in entries if e.transcript]
    elif rc.mix_asr:
        entries = mix_asr(entries)
    languages = sorted({e.lang for e in entries})
    vocab = build_vocab(entries, languages)
    base = os.path.dirname(os.path.abspath(rc.manifest))
    examples = load_examples(entries, vocab, base_dir=base, split="train")

    cfg = ModelConfig.desk(len(vocab), languages, dropout=rc.dropout,
                           forcing_mode=rc.forcing, forcing_site=rc.site,
                           **{name: getattr(rc, name) for name in DESK})
    sched = LRSchedule(lr_init=rc.lr_init, lr_max=rc.lr_max, warmup=rc.warmup)
    model, state, _ = train_model(cfg, examples, rc.seed, sched, rc.steps, rc.accum,
                                  transfer_from=rc.transfer_from, log_path=rc.log,
                                  run_config=asdict(rc), verbose=True)
    if rc.save:
        save_checkpoint(rc.save, model, vocab, state)
        print(f"saved checkpoint {rc.save}")
    return 0


def cmd_translate(args) -> int:
    model, vocab, _ = load_checkpoint(args.checkpoint)
    model.eval()
    entries = read_manifest(args.manifest, check_files=False)
    alphabets = target_alphabets(entries)
    base = os.path.dirname(os.path.abspath(args.manifest))
    examples = load_examples(entries, vocab, base_dir=base, split=args.split)
    items = [(ex.features, ex.lang) for ex in examples]
    hyps = decode_corpus(model, vocab, items, beam=args.beam,
                         max_len=args.max_len, workers=args.workers)
    with open(args.out, "w", encoding="utf-8") as f:
        for ex, hyp in zip(examples, hyps):
            detected = classify_language(hyp.text, alphabets) or "?"
            f.write(f"{ex.utt_id}\t{ex.lang}\t{detected}\t{hyp.logprob:.6f}\t{hyp.text}\n")
    print(f"decoded {len(hyps)} utterances -> {args.out}")
    return 0


def _read_hyps(path: str):
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            utt_id, lang, detected, score, *text = line.rstrip("\n").split("\t")
            rows.append((utt_id, lang, detected, float(score), text[0] if text else ""))
    return rows


def cmd_evaluate(args) -> int:
    hyps = _read_hyps(args.hyp)
    entries = {e.utt_id: e for e in read_manifest(args.manifest, check_files=False)
               if e.split == args.split}
    by_lang: dict[str, tuple[list[str], list[str]]] = {}
    for utt_id, lang, _, _, text in hyps:
        if utt_id not in entries:
            raise UsageError(f"hypothesis {utt_id!r} is not in split {args.split!r} "
                             f"of {args.manifest}")
        ref = entries[utt_id].target_text
        by_lang.setdefault(lang, ([], []))[0].append(text)
        by_lang[lang][1].append(" ".join(ref) if args.char_level else ref)
    report = {"bleu": {lang: bleu([" ".join(h) for h in hs] if args.char_level else hs, rs)
                       for lang, (hs, rs) in sorted(by_lang.items())}}
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        open(args.out, "w", encoding="utf-8").write(out + "\n")
    print(out)
    return 0


def cmd_audit(args) -> int:
    hyps = _read_hyps(args.hyp)
    entries = read_manifest(args.manifest, check_files=False)
    alphabets = target_alphabets(entries)
    acc = language_audit([(lang, text) for _, lang, _, _, text in hyps], alphabets)
    report = {"language_accuracy": {k: acc[k] for k in sorted(acc)}}
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        open(args.out, "w", encoding="utf-8").write(out + "\n")
    print(out)
    return 0


def cmd_gradcheck(args) -> int:
    from . import tensor as T
    from .tensor import Tensor, grad_check
    rng = np.random.default_rng(args.seed)
    worst = {}
    m_rhs = Tensor(rng.normal(size=(6, 4)))
    worst["matmul"] = grad_check(
        lambda x: T.tsum(T.matmul(x, m_rhs)), Tensor(rng.normal(size=(5, 6))))
    s_weights = Tensor(rng.normal(size=(3, 7)))
    worst["softmax"] = grad_check(
        lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), s_weights)),
        Tensor(rng.normal(size=(3, 7))))
    w, b = Tensor(rng.normal(size=(2, 1, 3, 3))), Tensor(rng.normal(size=2))
    worst["conv2d"] = grad_check(
        lambda x: T.tsum(T.conv2d(x, w, b, stride=(2, 2))),
        Tensor(rng.normal(size=(1, 1, 6, 5))))
    targets = np.array([1, 3, 0, 2])
    worst["cross_entropy"] = grad_check(
        lambda x: T.cross_entropy(x, targets, 0), Tensor(rng.normal(size=(4, 5))))

    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=2, n_decoder_layers=2)
    model = SpeechTransformer(cfg, seed=args.seed).eval()
    feats = rng.normal(size=(2, 12, 40))
    prefix = np.array([[1, 4, 5], [1, 6, 7]])
    labels = np.array([4, 5, 2, 6, 7, 2])

    def full(x):
        enc = model.encode(x, [12, 12])
        logits = model.decode_logits(enc, prefix)
        return T.cross_entropy(T.reshape(logits, (-1, 12)), labels, 0)

    worst["full_model"] = grad_check(full, Tensor(feats), sample=60,
                                     rng=np.random.default_rng(args.seed))
    ok = True
    for name, err in worst.items():
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{name:14s} max rel err {err:.3e}  {status}")
        ok &= err < 1e-4
    return 0 if ok else 2


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
    td.add_argument("--workers", type=int, default=1)
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
    except (UsageError, ManifestError, CheckpointError, FileNotFoundError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FloatingPointError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
