"""The benchmark's workloads: set-up, closed loops, output checks and metrics.

Every workload runs on the criterion-7 synthetic task (3 languages, 3,000
utterances each, generated from the workload seed) and the desk model with
merge-at-pre target forcing. Each loop is closed: the next update or
utterance starts when the previous one returns.

- ``train_merge_pre``: optimizer updates of ``train_step`` on the batch
  stream of criterion 7 (up to 8 utterances per language per batch,
  4 batches accumulated per update).
- ``decode_beam5``: an untrained, frozen model beam-decodes (beam 5) the
  held-out ``test`` split one utterance at a time through ``decode_corpus``
  (max_len 14, one worker). Greedy decoding runs only in the output check
  that it equals beam 1. It makes the same decoder calls as beam 5, five
  times fewer, and as a workload of its own it would halve the measuring
  time of the others (on a shared 2-vCPU VM, 30-second runs spread by up to
  a quarter from run to run).

The decode model is built from ``DECODE_MODEL_SEED``, not from the workload
seed. Its hypotheses all run to max_len, so decoder work per utterance is
the same under every workload seed. Untrained models from some other seeds
emit EOS within a step or two, which would change the workload's shape
from seed to seed. The workload seed still makes the utterances.
"""

from __future__ import annotations

import itertools
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multislt.decoding import beam_decode, decode_corpus, greedy_decode
from multislt.evaluate import language_audit, token_accuracy
from multislt.manifest import BOS_ID, EOS_ID, Vocabulary, build_vocab, read_manifest
from multislt.model import ModelConfig, SpeechTransformer
from multislt.optim import AdamState
from multislt.synth import alphabet_map, default_languages, synth_dataset
from multislt.trainer import (BatchComposer, Example, LRSchedule, load_examples,
                              train_step)

from spans import (ENCODER_MODULES, NAMED_OPS, TENSOR_OPS, SpanSummary, Tracer,
                   trace_model, traced_program)

N_LANGUAGES = 3
N_UTT_PER_LANG = 3000
ACCUM = 4
SCHEDULE = LRSchedule(lr_max=0.003, warmup=130)
MAX_LEN = 14
ALPHA = 0.6
WARMUP_ITEMS = 2      # updates or utterances run before timing starts
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups
CHECK_SAMPLE = 4      # utterances on which greedy must equal beam-1
DECODE_MODEL_SEED = 17


@dataclass(frozen=True)
class Workload:
    name: str
    split: str        # the manifest split the workload reads
    beam: int         # 0 trains; otherwise the beam width it decodes with


WORKLOADS = {w.name: w for w in (Workload("train_merge_pre", "train", 0),
                                  Workload("decode_beam5", "test", 5))}


@dataclass
class Inputs:
    seed: int
    model_seed: int
    vocab: Vocabulary
    examples: list[Example]
    cfg: ModelConfig
    model: SpeechTransformer


@dataclass
class Run:
    """One closed loop. ``results`` holds warm-up items too; None marks a failure."""

    results: list = field(default_factory=list)
    infos: list = field(default_factory=list)       # measured items only
    latencies: list = field(default_factory=list)   # seconds, measured items only
    wall: float = 0.0
    failed: int = 0

    @property
    def utts(self) -> int:
        return sum(i["utts"] for i in self.infos if i is not None)


@dataclass
class Outcome:
    problems: list[str]
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict


def _plain(name, fn):
    return fn


def make_model(cfg: ModelConfig, seed: int, training: bool) -> SpeechTransformer:
    """The model as criterion 7 builds it; frozen unless it is to be trained."""
    model = SpeechTransformer(cfg, seed=seed)
    if training:
        return model.set_rng(np.random.default_rng((seed, 999)))
    return model.eval()


def setup(work_dir: Path, seed: int, wl: Workload, wrap=_plain) -> Inputs:
    """Data generation, archive load, vocab build and model construction."""
    languages = default_languages(N_LANGUAGES)
    manifest_path, _ = wrap("synth.dataset", synth_dataset)(
        str(work_dir), seed=seed, n_utt_per_lang=N_UTT_PER_LANG, languages=languages)
    entries = wrap("manifest.read", read_manifest)(manifest_path)
    lang_ids = [lang.lang_id for lang in languages]
    vocab = build_vocab(entries, lang_ids)
    examples = load_examples(entries, vocab, base_dir=str(work_dir), split=wl.split)
    cfg = ModelConfig.desk(len(vocab), lang_ids, forcing_mode="merge", forcing_site="pre")
    model_seed = seed if wl.beam == 0 else DECODE_MODEL_SEED
    return Inputs(seed, model_seed, vocab, examples, cfg,
                  make_model(cfg, model_seed, training=wl.beam == 0))


def training_step(inputs: Inputs, model: SpeechTransformer, wrap=_plain):
    composer = BatchComposer(inputs.examples, seed=inputs.seed)
    next_batch = wrap("trainer.next_batch", composer.next_batch)
    state = AdamState()

    def step():
        batches = [next_batch() for _ in range(ACCUM)]
        loss = train_step(model, batches, state, SCHEDULE)
        return loss, {"utts": sum(len(b.langs) for b in batches),
                      "groups": tuple(tuple(sorted(b.group_sizes.values())) for b in batches),
                      "valid_frames": int(sum(b.lengths.sum() for b in batches)),
                      "padded_frames": sum(b.features.shape[0] * b.features.shape[1]
                                           for b in batches)}
    return step


def decoding_step(inputs: Inputs, model: SpeechTransformer, beam: int, counter=None):
    order = itertools.cycle(np.random.default_rng((inputs.seed, 5)).permutation(len(inputs.examples)))

    def step():
        i = int(next(order))
        ex = inputs.examples[i]
        hyp = decode_corpus(model, inputs.vocab, [(ex.features, ex.lang)], beam=beam,
                            alpha=ALPHA, max_len=MAX_LEN, workers=1)[0]
        if counter is not None:
            counter.end_utterance()
        return hyp, {"utts": 1, "index": i, "tokens": len(hyp.ids) - 1}
    return step


def closed_loop(step, seconds: float | None = None, items: int | None = None,
                tracer: Tracer | None = None, on_measure=None) -> Run:
    """Warm up, then run ``step`` back to back for ``seconds`` or ``items``.

    A step that raises is a failed operation: it is counted and the loop
    goes on. With a tracer, spans of the warm-up are dropped and each
    measured item's spans carry its index as request id.
    """
    run = Run()

    def attempt():
        try:
            return step()
        except Exception:
            run.failed += 1
            if run.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None, None

    for _ in range(WARMUP_ITEMS):
        run.results.append(attempt()[0])
    if tracer is not None:
        tracer.clear()
    if on_measure is not None:
        on_measure()
    start = time.perf_counter()
    deadline = start + (seconds if seconds is not None else math.inf)
    while (len(run.latencies) < items) if items is not None else (time.perf_counter() < deadline):
        if tracer is not None:
            tracer.request = len(run.latencies)
        t0 = time.perf_counter()
        result, info = attempt()
        run.latencies.append(time.perf_counter() - t0)
        run.results.append(result)
        run.infos.append(info)
    run.wall = time.perf_counter() - start
    return run


# output checks -----------------------------------------------------------

def check_losses(losses) -> list[str]:
    done = [x for x in losses if x is not None]
    problems = [f"non-finite training loss {x!r}" for x in done if not math.isfinite(x)]
    if len(done) >= 2 and not done[-1] < done[0]:
        problems.append(f"training loss did not fall: first {done[0]!r}, last {done[-1]!r}")
    return problems


def check_hypotheses(hyps, vocab_size: int) -> list[str]:
    problems = []
    for h in hyps:
        if h is None:
            continue
        ended = h.ids[-1] == EOS_ID and not h.truncated
        cut = h.truncated and len(h.ids) - 1 == MAX_LEN
        if h.ids[0] != BOS_ID or not (ended or cut) or not all(0 <= t < vocab_size for t in h.ids):
            problems.append(f"malformed hypothesis ids={h.ids} truncated={h.truncated}")
    if len(problems) > 3:
        problems[3:] = [f"... {len(problems) - 3} more malformed hypotheses"]
    return problems


def check_greedy_is_beam1(inputs: Inputs) -> list[str]:
    problems = []
    for ex in inputs.examples[:CHECK_SAMPLE]:
        g = greedy_decode(inputs.model, inputs.vocab, ex.features, ex.lang, MAX_LEN)
        b = beam_decode(inputs.model, inputs.vocab, ex.features, ex.lang, beam=1, max_len=MAX_LEN)
        if g.ids != b.ids or abs(g.logprob - b.logprob) > 1e-12:
            problems.append(f"{ex.utt_id}: greedy {g.ids} != beam-1 {b.ids}")
    return problems


def check_run(wl: Workload, inputs: Inputs, run: Run) -> list[str]:
    if wl.beam == 0:
        return check_losses(run.results)
    return check_hypotheses(run.results, len(inputs.vocab))


def shape(wl: Workload, inputs: Inputs, run: Run) -> dict:
    """Properties that must not depend on the seed: the workload's shape."""
    infos = [i for i in run.infos if i is not None]
    if wl.beam == 0:
        groups = Counter(g for i in infos for g in i["groups"])
        return {"train_utts": len(inputs.examples), "utts_per_update": sorted({i["utts"] for i in infos}),
                "groups_per_batch": {"+".join(map(str, g)): n for g, n in sorted(groups.items())}}
    return {"test_utts": len(inputs.examples),
            "tokens_per_hyp": dict(sorted(Counter(i["tokens"] for i in infos).items()))}


# end-to-end run ------------------------------------------------------------

def run_untraced(wl: Workload, seed: int, seconds: float, work_dir: Path) -> Outcome:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # release the previous set-up before building the next
        shutil.rmtree(work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        inputs = setup(work_dir, seed, wl)
        setup_s.append(time.perf_counter() - t0)
    problems = [] if wl.beam == 0 else check_greedy_is_beam1(inputs)
    step = (training_step(inputs, inputs.model) if wl.beam == 0
            else decoding_step(inputs, inputs.model, wl.beam))
    run = closed_loop(step, seconds=seconds)
    problems += check_run(wl, inputs, run)
    lat_ms = np.array(run.latencies) * 1e3
    metrics = {"setup_s": statistics.median(setup_s),
               "utt_per_s": run.utts / run.wall,
               "latency_ms.p50": float(np.percentile(lat_ms, 50)),
               "latency_ms.p90": float(np.percentile(lat_ms, 90)),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    item = "updates" if wl.beam == 0 else "utterances"
    notes = {"samples": f"{len(run.latencies)} {item} in {run.wall:.1f} s; "
                        f"setup_s median of {SETUP_REPEATS}",
             "failed_frac": run.failed / len(run.results),
             "shape": shape(wl, inputs, run)}
    return Outcome(problems, len(run.results), run.failed, metrics, notes)


# traced run ------------------------------------------------------------------

class DecodeCounter:
    """Counts decoder calls and the prefix positions each one recomputes."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = self.positions = self.steps = self._longest = 0

    def wrap(self, decode_logits):
        def counted(enc, prefix_ids, *args, **kwargs):
            n = np.shape(prefix_ids)[-1]
            self.calls += 1
            self.positions += n
            self._longest = max(self._longest, n)
            return decode_logits(enc, prefix_ids, *args, **kwargs)
        return counted

    def end_utterance(self):
        # step k of a search feeds prefixes of length k, so the longest
        # prefix fed is the number of steps the search made
        self.steps += self._longest
        self._longest = 0


def run_traced(wl: Workload, seed: int, seconds: float, work_dir: Path,
               trace_path: Path) -> Outcome:
    """Per-layer metrics, and proof that tracing changes no result.

    An untraced loop runs for half of ``seconds``; a traced loop with fresh
    state then repeats exactly the same items. Both must give bit-identical
    losses or hypotheses; their wall-time difference is the tracing overhead.
    """
    setup_tr = Tracer()
    with traced_program(setup_tr):
        inputs = setup(work_dir, seed, wl, wrap=setup_tr.wrap)
    training = wl.beam == 0
    problems = [] if training else check_greedy_is_beam1(inputs)
    plain_step = (training_step(inputs, inputs.model) if training
                  else decoding_step(inputs, inputs.model, wl.beam))
    plain = closed_loop(plain_step, seconds=seconds / 2)

    tr = Tracer()
    counter = DecodeCounter()
    model = trace_model(tr, make_model(inputs.cfg, inputs.model_seed, training))
    if training:
        step = training_step(inputs, model, wrap=tr.wrap)
    else:
        model.decode_logits = counter.wrap(model.decode_logits)
        step = decoding_step(inputs, model, wl.beam, counter)
    with traced_program(tr):
        traced = closed_loop(step, items=len(plain.latencies), tracer=tr, on_measure=counter.reset)
        tr.request = -1
        if not training:
            measured = [(inputs.examples[i["index"]], h)
                        for h, i in zip(traced.results[WARMUP_ITEMS:], traced.infos) if h is not None]
            tr.wrap("evaluate.audit", language_audit)(
                [(ex.lang, h.text) for ex, h in measured],
                alphabet_map(default_languages(N_LANGUAGES)))
            tr.wrap("evaluate.token_accuracy", token_accuracy)(
                [h.text for _, h in measured],
                [inputs.vocab.decode(ex.target_ids) for ex, _ in measured])
    np.savez_compressed(trace_path, **{f"setup_{k}": v for k, v in setup_tr.arrays().items()},
                        **{f"loop_{k}": v for k, v in tr.arrays().items()})

    problems += check_run(wl, inputs, traced)
    if plain.results != traced.results:
        diff = next(i for i, (a, b) in enumerate(zip(plain.results, traced.results)) if a != b)
        problems.append(f"traced run differs from untraced run at item {diff}")
    metrics = layer_metrics(wl, setup_tr, tr, plain, traced, counter)
    item = "update" if training else "utterance"
    notes = {"samples": f"{len(traced.latencies)} {item}s per loop, untraced then traced; "
                        f"time metrics per {item} unless the unit says otherwise",
             "failed_frac": (plain.failed + traced.failed) / (len(plain.results) + len(traced.results)),
             "shape": {**shape(wl, inputs, traced),
                       **({} if training else {"decoding.steps": counter.steps / traced.utts})}}
    return Outcome(problems, len(plain.results) + len(traced.results),
                   plain.failed + traced.failed, metrics, notes)


def layer_metrics(wl: Workload, setup_tr: Tracer, tr: Tracer, plain: Run, traced: Run,
                  counter: DecodeCounter) -> dict[str, float]:
    s, t = SpanSummary(setup_tr), SpanSummary(tr)
    n = len(traced.latencies)          # updates or utterances
    utts = traced.utts
    training = wl.beam == 0
    updates = n if training else 0
    per = 1e3 / n                      # seconds in total -> ms per item
    m = {"synth.dataset_s": s.total("synth.dataset"),
         "manifest.read_ms": s.total("manifest.read") * 1e3,
         "audio.archive_load_ms": s.total("audio.archive_load") * 1e3,
         "audio.loads": s.count("audio.archive_load"),
         "audio.normalize_ms": s.total("audio.normalize") * 1e3}

    infos = [i for i in traced.infos if i is not None]
    m["trainer.next_batch_ms"] = t.total("trainer.next_batch") * per
    m["trainer.batch_loss_ms"] = t.total("trainer.batch_loss") * per
    m["trainer.valid_frame_frac"] = (sum(i["valid_frames"] for i in infos)
                                     / sum(i["padded_frames"] for i in infos)) if training else 0.0
    m["trainer.utts"] = utts / updates if training else 0.0

    m["tensor.backward_ms"] = t.total("tensor.backward") * per
    ops = 0
    other_ms = other_calls = 0.0
    for op in TENSOR_OPS:
        calls = t.count(f"tensor.{op}")
        ops += calls
        if op in NAMED_OPS:
            m[f"tensor.{op}.fwd_ms"] = t.self_time(f"tensor.{op}") * per
            m[f"tensor.{op}.calls"] = calls / n
        else:
            other_ms += t.self_time(f"tensor.{op}") * per
            other_calls += calls / n
    m["tensor.other.fwd_ms"] = other_ms
    m["tensor.other.calls"] = other_calls
    m["tensor.ops_per_update"] = ops / updates if training else 0.0
    m["tensor.ops_per_utt"] = ops / utts

    m["model.encode_ms"] = t.total("model.encode") * per
    m["model.decode_logits_ms"] = t.total("model.decode_logits") * per
    for name in ENCODER_MODULES + ("enc_layers", "dec_layers", "out_proj"):
        m[f"model.{name}.fwd_ms"] = t.self_time(f"model.{name}") * per
    m["forcing.inject_ms"] = t.total("forcing.inject") * per
    m["optim.adam_step_ms"] = t.total("optim.adam_step") * per

    enc_s = t.total_under("model.encode", "decoding.utterance")
    m["decoding.encode_ms"] = enc_s * per
    m["decoding.step_ms"] = ((t.total("decoding.utterance") - enc_s) * 1e3 / counter.steps
                             if counter.steps else 0.0)
    m["decoding.steps"] = counter.steps / n
    m["decoding.decoder_calls"] = counter.calls / n
    hyps = [h for h in traced.results[WARMUP_ITEMS:] if h is not None]
    m["decoding.truncated_frac"] = (sum(h.truncated for h in hyps) / len(hyps)) if not training else 0.0
    tokens = sum(len(h.ids) - 1 for h in hyps) if not training else 0
    m["decoding.positions_per_token"] = counter.positions / tokens if tokens else 0.0
    m["evaluate.audit_ms"] = t.total("evaluate.audit") * per
    m["evaluate.token_accuracy_ms"] = t.total("evaluate.token_accuracy") * per

    m["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    m["trace.overhead_ms"] = (traced.wall - plain.wall) * per
    return m
