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


def rewrite_checkpoint(src: str, dst: str, edit):
    """Copy checkpoint ``src`` to ``dst``; ``edit(header, payload)`` changes
    the JSON header in place and returns the new tensor payload bytes. The
    magic and version are kept."""
    with open(src, "rb") as f:
        blob = f.read()
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + hlen])
    payload = edit(header, blob[20 + hlen:])
    new = json.dumps(header).encode("utf-8")
    with open(dst, "wb") as f:
        f.write(blob[:12] + struct.pack("<Q", len(new)) + new + payload)


def rewrite_header(src: str, dst: str, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(header)`` applied to its
    JSON header; the magic, version and tensor payloads are kept."""
    def edit_header(header, payload):
        edit(header)
        return payload

    rewrite_checkpoint(src, dst, edit_header)


def record_opens(monkeypatch, module) -> list:
    """Every file that ``module`` opens from now on, in order; ``module``'s
    own ``open`` is replaced, the builtin is left alone."""
    opened = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(module, "open", recording_open, raising=False)
    return opened
