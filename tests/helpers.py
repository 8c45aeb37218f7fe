"""Test-only utilities shared by several test modules."""

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
