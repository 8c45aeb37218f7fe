"""Test-only utilities shared by several test modules."""

import json
import os
import struct
import wave

import numpy as np

from multislt.audio import SAMPLE_RATE


def write_wav(path: str, samples: np.ndarray):
    """Float samples in [-1, 1) -> 16-bit PCM mono WAV at 16 kHz, the format
    ``audio.read_wav`` accepts."""
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "v1_merge_post")


def rewrite_header(src: str, dst: str, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(header)`` applied to its
    JSON header; the magic, version and tensor payloads are kept."""
    with open(src, "rb") as f:
        blob = f.read()
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    with open(dst, "wb") as f:
        f.write(blob[:12] + struct.pack("<Q", len(new)) + new + blob[20 + hlen:])
