"""MEL filterbank features from 16 kHz mono PCM, plus feature-file I/O.

Frames: 25 ms Hann windows, 10 ms hop, 512-point spectrum, 40 triangular
MEL filters spanning 0-8000 Hz, log energies floored at 1e-10. Each
utterance is normalized to zero mean / unit std over the whole T×F matrix.
"""

from __future__ import annotations

import os
import struct
import wave
from collections.abc import Iterable

import numpy as np

SAMPLE_RATE = 16000
WIN_LENGTH = 400    # 25 ms
HOP_LENGTH = 160    # 10 ms
N_FFT = 512
N_MELS = 40
LOG_FLOOR = 1e-10


class AudioFormatError(ValueError):
    """Input file is not 16-bit mono PCM at 16 kHz."""


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """N_MELS×(N_FFT//2+1) triangular filters on the MEL scale, spanning 0
    to SAMPLE_RATE / 2."""
    n_bins = N_FFT // 2 + 1
    fft_freqs = np.arange(n_bins) * SAMPLE_RATE / N_FFT
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    filters = np.zeros((N_MELS, n_bins))
    for i in range(N_MELS):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (fft_freqs - lo) / (mid - lo)
        down = (hi - fft_freqs) / (hi - mid)
        filters[i] = np.maximum(0.0, np.minimum(up, down))
    return filters


_FILTERS = mel_filterbank()


def frame_count(n_samples: int) -> int:
    return (n_samples - WIN_LENGTH) // HOP_LENGTH + 1


def mel_spectrogram(samples: np.ndarray) -> np.ndarray:
    """Log-MEL energies, T = floor((N-400)/160)+1 frames of 40 coefficients."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or len(samples) < WIN_LENGTH:
        raise ValueError(f"need >= {WIN_LENGTH} mono samples, got shape {samples.shape}")
    n_frames = frame_count(len(samples))
    window = np.hanning(WIN_LENGTH)
    idx = np.arange(WIN_LENGTH)[None, :] + HOP_LENGTH * np.arange(n_frames)[:, None]
    frames = samples[idx] * window
    spectrum = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2
    energies = spectrum @ _FILTERS.T
    return np.log(np.maximum(energies, LOG_FLOOR))


def normalize(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit std over the whole matrix; std floored to guard silence.

    The steps of ``np.mean`` and ``np.std``, written out so that the centred
    matrix is computed once; the result is bit-identical to theirs.
    """
    centred = x - x.sum() / x.size
    sd = max(np.sqrt((centred * centred).sum() / x.size), 1e-8)
    return centred / sd


def read_wav(path: str) -> np.ndarray:
    """16-bit PCM mono WAV at 16 kHz, of at least one window, -> float samples
    in [-1, 1). Any other file raises ``AudioFormatError`` naming it."""
    try:
        w = wave.open(path, "rb")
    except (wave.Error, EOFError, RuntimeError) as e:
        # a bare EOFError: a cut header; RuntimeError: a chunk overruns RIFF's
        reason = str(e) or "a chunk is cut short or overruns the RIFF chunk"
        raise AudioFormatError(f"{path}: not a WAV file ({reason})") from None
    with w:
        if w.getframerate() != SAMPLE_RATE:
            raise AudioFormatError(f"{path}: sample rate {w.getframerate()}, need {SAMPLE_RATE}")
        if w.getnchannels() != 1:
            raise AudioFormatError(f"{path}: {w.getnchannels()} channels, need mono")
        if w.getsampwidth() != 2:
            raise AudioFormatError(f"{path}: {8 * w.getsampwidth()}-bit, need 16-bit PCM")
        n, size = w.getnframes(), os.path.getsize(path)
        raw = w.readframes(n) if 2 * n <= size else b""  # allocate no more than the file holds
    if len(raw) < 2 * n:
        raise AudioFormatError(f"{path}: truncated (its header claims {n} samples, "
                               f"more than its {size} bytes hold)")
    if n < WIN_LENGTH:
        raise AudioFormatError(f"{path}: {n} samples, need at least {WIN_LENGTH}")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


# feature archive -------------------------------------------------------
# Flat binary records: u32 T, u32 F (little-endian), then T*F float32.
# The sidecar index (<archive>.idx) maps utterance id -> byte offset.

def write_feature_archive(path: str, records: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write each (utterance id, T×F frames) record and its index line as it
    arrives; returns the count.

    Memory stays that of one utterance when ``records`` is a generator. If
    the iteration raises, both files are removed and the error propagates.
    """
    n = 0
    try:
        with open(path, "wb") as f, open(path + ".idx", "w", encoding="utf-8") as idx:
            for utt_id, frames in records:
                idx.write(f"{utt_id}\t{f.tell()}\n")
                f.write(struct.pack("<II", *frames.shape))
                f.write(frames.astype("<f4").tobytes())
                n += 1
    except BaseException:
        for leftover in (path, path + ".idx"):
            if os.path.exists(leftover):
                os.remove(leftover)
        raise
    return n


class FeatureArchive:
    """Random access into a flat feature file via its sidecar index.

    Offsets and record sizes are checked against the file size taken here,
    before anything is read. Each ``load`` and ``check`` opens the file and
    closes it before returning, so no handle outlives a call and concurrent
    loads share no file position.
    """

    def __init__(self, path: str):
        if not os.path.exists(path) or not os.path.exists(path + ".idx"):
            raise FileNotFoundError(f"feature archive {path} (or its .idx sidecar) not found")
        self.path = path
        self.size = os.path.getsize(path)
        self.index: dict[str, int] = {}
        lines: dict[str, int] = {}  # utterance id -> its index line
        with open(path + ".idx", encoding="utf-8") as f:
            try:
                for n, line in enumerate(f, 1):
                    utt_id, tab, off = line.rstrip("\n").partition("\t")
                    if not (tab and off.isascii() and off.isdigit()):
                        raise ValueError(f"{path}.idx line {n}: expected "
                                         f"'<utterance id><tab><byte offset>', got {line!r}")
                    if int(off) > self.size:
                        raise ValueError(f"{path}.idx line {n}: offset {off} is past the end "
                                         f"of {path} ({self.size} bytes)")
                    if utt_id in lines:
                        raise ValueError(f"{path}.idx line {n}: utterance {utt_id!r} "
                                         f"repeats line {lines[utt_id]}")
                    lines[utt_id] = n
                    self.index[utt_id] = int(off)
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}.idx: not UTF-8 text ({e})") from None

    def _header(self, f, utt_id: str) -> tuple[int, int]:
        """Seek ``f`` to ``utt_id``'s record and read its (frames, features)
        header, checked to be non-empty and to fit in the file."""
        if utt_id not in self.index:
            raise ValueError(f"feature archive {self.path} has no utterance {utt_id!r}")
        off = self.index[utt_id]
        f.seek(off)
        head = f.read(8)
        t, fdim = struct.unpack("<II", head) if len(head) == 8 else (0, 0)
        if len(head) < 8 or 4 * t * fdim > self.size - off - 8:
            raise ValueError(f"feature archive {self.path}: the record of utterance {utt_id!r} "
                             f"is truncated (it claims {t}x{fdim} frames; "
                             f"{self.size - off} bytes remain)")
        if t == 0 or fdim == 0:
            raise ValueError(f"feature archive {self.path}: the record of utterance {utt_id!r} "
                             f"is empty (it claims {t}x{fdim} frames)")
        return t, fdim

    def check(self, utt_ids: Iterable[str], fdim: int | None = None) -> int | None:
        """Read and check the header of each named record, through one handle.

        A missing, truncated, oversized or empty record, or one whose feature
        dimension is not ``fdim`` (by default the first record's), raises
        ``ValueError`` naming the archive and the utterance; no payload is
        read. Returns the feature dimension.
        """
        with open(self.path, "rb") as f:
            for utt_id in utt_ids:
                _, n = self._header(f, utt_id)
                if fdim is not None and n != fdim:
                    raise ValueError(f"feature archive {self.path}: the record of utterance "
                                     f"{utt_id!r} has {n} features per frame, not the "
                                     f"{fdim} of the records before it")
                fdim = n
        return fdim

    def load(self, utt_id: str) -> np.ndarray:
        """The record's T×F frames, as float64."""
        with open(self.path, "rb") as f:
            t, fdim = self._header(f, utt_id)
            payload = f.read(4 * t * fdim)
        if len(payload) < 4 * t * fdim:
            raise ValueError(f"feature archive {self.path}: the record of utterance {utt_id!r} "
                             f"is truncated (the file shrank below {self.size} bytes)")
        return np.frombuffer(payload, dtype="<f4").reshape(t, fdim).astype(np.float64)
