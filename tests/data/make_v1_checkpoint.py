"""Write the version-1 checkpoint fixture ``v1_merge_post.ckpt`` and its
reference values ``v1_merge_post.npz`` into the given directory.

The checkpoint must come from a program that writes version 1 (the source
tree of commit 6473960 or earlier), so run this against that tree:

    dir=$(mktemp -d) && git archive 6473960 | tar -x -C "$dir"
    PYTHONPATH="$dir/src" python3 tests/data/make_v1_checkpoint.py tests/data

The model is a tiny merge-post model after two Adam updates. The ``.npz``
holds a seeded input, the model's eval logits for it, and the Adam moments
of every SA2D q/k/v tensor under their version-1 names (``m.<name>`` and
``v.<name>``).
"""

import os
import re
import sys

import numpy as np

from multislt.manifest import Vocabulary
from multislt.model import ModelConfig, SpeechTransformer
from multislt.optim import AdamState
from multislt.trainer import (VERSION, Example, LRSchedule, make_batch, save_checkpoint,
                              train_step)

if VERSION != 1:
    sys.exit(f"this program writes checkpoint version {VERSION}; run against a version-1 tree")
out = sys.argv[1]
cfg = ModelConfig(vocab_size=9, languages=("L0", "L1"), d_model=4, ff_hidden=8, n_heads=1,
                  n_encoder_layers=1, n_decoder_layers=1, n_mels=8, frontend_channels=2,
                  sa2d_channels=2, sa2d_out_channels=2, forcing_mode="merge",
                  forcing_site="post")
model = SpeechTransformer(cfg, seed=3).set_rng(np.random.default_rng(4))
rng = np.random.default_rng(5)
examples = [Example(f"u{i}", rng.normal(size=(int(rng.integers(6, 14)), 8)),
                    [int(t) for t in rng.integers(4, 9, size=3)], ("L0", "L1")[i % 2])
            for i in range(4)]
state = AdamState()
for _ in range(2):
    train_step(model, [make_batch(examples)], state, LRSchedule(lr_max=0.01, warmup=2))
save_checkpoint(os.path.join(out, "v1_merge_post.ckpt"), model, Vocabulary("abcde"), state)

model.eval()
ref = {"features": rng.normal(size=(2, 11, 8)), "lengths": np.array([11, 7]),
       "prefix_ids": np.array([[1, 4, 5, 6], [1, 7, 8, 4]]), "langs": np.array(["L0", "L1"])}
enc = model.encode(ref["features"], ref["lengths"], list(ref["langs"]))
ref["logits"] = model.decode_logits(enc, ref["prefix_ids"], list(ref["langs"])).data
for name in state.m:
    if re.fullmatch(r"encoder\.sa2d\d\.[qkv]\.(conv|bn)\.\w+", name):
        ref["m." + name], ref["v." + name] = state.m[name], state.v[name]
np.savez(os.path.join(out, "v1_merge_post.npz"), **ref)
