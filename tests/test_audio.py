import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multislt import audio
from multislt.audio import mel_spectrogram, normalize

from helpers import record_opens, write_wav


def test_one_second_gives_98_frames():
    assert mel_spectrogram(np.zeros(16000)).shape == (98, 40)


def test_single_window_boundary():
    assert mel_spectrogram(np.zeros(400)).shape == (1, 40)


def test_too_short_rejected():
    with pytest.raises(ValueError):
        mel_spectrogram(np.zeros(399))


@given(st.integers(400, 48000))
@settings(max_examples=60, deadline=None)
def test_frame_count_formula(n):
    assert mel_spectrogram(np.zeros(n)).shape[0] == (n - 400) // 160 + 1


def test_sine_hits_nearest_filter():
    t = np.arange(16000) / audio.SAMPLE_RATE
    frames = mel_spectrogram(0.5 * np.sin(2 * np.pi * 1000.0 * t))
    edges = np.linspace(audio.hz_to_mel(0.0), audio.hz_to_mel(audio.SAMPLE_RATE / 2),
                        audio.N_MELS + 2)
    centers_hz = audio.mel_to_hz(edges)[1:-1]
    expected_bin = int(np.argmin(np.abs(centers_hz - 1000.0)))
    hits = np.argmax(frames, axis=1)
    assert np.all(hits == expected_bin)


def test_extraction_deterministic():
    rng = np.random.default_rng(0)
    samples = rng.normal(scale=0.1, size=8000)
    a = mel_spectrogram(samples)
    b = mel_spectrogram(samples)
    assert np.array_equal(a, b)


def test_normalize_statistics():
    rng = np.random.default_rng(1)
    x = normalize(rng.normal(3.0, 7.0, (50, 40)))
    assert abs(x.mean()) < 1e-9
    assert abs(x.std() - 1.0) < 1e-9


def test_normalize_constant_matrix():
    np.testing.assert_array_equal(normalize(np.full((10, 40), 2.5)), 0.0)


def test_normalize_idempotent():
    rng = np.random.default_rng(2)
    once = normalize(rng.normal(size=(20, 40)))
    np.testing.assert_allclose(normalize(once), once, atol=1e-12)


def test_wav_round_trip_and_format_errors(tmp_path):
    rng = np.random.default_rng(3)
    samples = rng.uniform(-0.5, 0.5, 1600)
    path = str(tmp_path / "a.wav")
    write_wav(path, samples)
    back = audio.read_wav(path)
    np.testing.assert_allclose(back, samples, atol=1.0 / 32768)

    import wave
    bad = str(tmp_path / "b.wav")
    with wave.open(bad, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00" * 400)
    with pytest.raises(audio.AudioFormatError, match="channels"):
        audio.read_wav(bad)


def test_feature_archive_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    records = [(f"utt{i}", rng.normal(size=(5 + i, 40)).astype(np.float32)) for i in range(4)]
    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, records)
    arc = audio.FeatureArchive(path)
    for utt_id, frames in records:
        back = arc.load(utt_id)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, frames)


def test_feature_archive_missing_sidecar(tmp_path):
    path = str(tmp_path / "y.feats")
    open(path, "wb").close()
    with pytest.raises(FileNotFoundError):
        audio.FeatureArchive(path)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 90), st.integers(1, 50), st.floats(-50, 50), st.floats(1e-3, 20),
       st.integers(0, 2**32 - 1), st.sampled_from(["normal", "float32", "constant"]))
def test_normalize_equals_numpy_mean_std(t, f, loc, scale, seed, kind):
    x = np.random.default_rng(seed).normal(loc, scale, (t, f))
    if kind == "float32":
        x = x.astype(np.float32).astype(np.float64)
    elif kind == "constant":
        x = np.full((t, f), loc)
    if x.size < 2:
        return
    want = (x - x.mean()) / max(x.std(), 1e-8)
    assert np.array_equal(normalize(x), want)


def _sequences(n=4):
    rng = np.random.default_rng(4)
    return [(f"utt{i}", rng.normal(size=(5 + i, 40))) for i in range(n)]


def _record_offset(i: int) -> int:
    """Where record i of an archive of ``_sequences()`` starts: record j is
    an 8-byte header and (5 + j)×40 float32 frames."""
    return sum(8 + 4 * 40 * (5 + j) for j in range(i))


def test_write_feature_archive_generator_equals_list(tmp_path):
    seqs = _sequences()
    a, b = str(tmp_path / "a.feats"), str(tmp_path / "b.feats")
    assert audio.write_feature_archive(a, seqs) == 4
    assert audio.write_feature_archive(b, (r for r in seqs)) == 4
    for suffix in ("", ".idx"):
        assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()


def test_write_feature_archive_removes_files_when_iteration_fails(tmp_path):
    path = str(tmp_path / "x.feats")

    def failing():
        yield from _sequences(2)
        raise audio.AudioFormatError("bad wav")

    with pytest.raises(audio.AudioFormatError):
        audio.write_feature_archive(path, failing())
    assert not (tmp_path / "x.feats").exists() and not (tmp_path / "x.feats.idx").exists()


def test_feature_archive_load_leaves_no_open_handle(tmp_path, monkeypatch):
    seqs = _sequences()
    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, seqs)
    arc = audio.FeatureArchive(path)
    opened = record_opens(monkeypatch, audio)
    first = arc.load("utt2")
    arc.check(["utt0", "utt3"])
    np.testing.assert_array_equal(arc.load("utt2"), first)
    assert len(opened) == 3 and all(f.closed for f in opened)


def test_feature_archive_huge_record_header_rejected_before_reading(tmp_path):
    import time
    import tracemalloc

    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, _sequences())
    with open(path, "r+b") as f:
        f.write(struct.pack("<I", 10**9))  # utt0 now claims 10^9 frames of 40
    arc = audio.FeatureArchive(path)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{re.escape(path)}.*'utt0'.*truncated"):
            arc.load("utt0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 and time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("field", [0, 1], ids=["frames", "features"])
def test_feature_archive_empty_record_rejected(tmp_path, field):
    from multislt.manifest import ManifestEntry, Vocabulary
    from multislt.trainer import load_examples

    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, _sequences())
    with open(path, "r+b") as f:
        f.seek(_record_offset(2) + 4 * field)
        f.write(bytes(4))  # utt2 now claims 0 frames, or 0 features
    arc = audio.FeatureArchive(path)
    message = f"{re.escape(path)}.*'utt2' is empty"
    with pytest.raises(ValueError, match=message):
        arc.load("utt2")
    with pytest.raises(ValueError, match=message):
        arc.check(["utt0", "utt2"])
    entries = [ManifestEntry(f"x.feats#utt{i}", "ab", "ab", "L0", "train") for i in range(4)]
    with pytest.raises(ValueError, match=message):
        load_examples(entries, Vocabulary("ab"), base_dir=str(tmp_path))


def test_split_with_mixed_feature_dimensions_rejected(tmp_path):
    """Every archive record of a split has one feature dimension; the first
    record that differs, in this archive or a later one, is named."""
    from multislt.manifest import ManifestEntry, Vocabulary
    from multislt.trainer import load_examples

    rng = np.random.default_rng(9)
    a, b = str(tmp_path / "a.feats"), str(tmp_path / "b.feats")
    audio.write_feature_archive(a, [("u0", rng.normal(size=(6, 40))),
                                    ("u1", rng.normal(size=(6, 39))),
                                    ("u2", rng.normal(size=(6, 38)))])
    audio.write_feature_archive(b, [("v0", rng.normal(size=(6, 40))),
                                    ("v1", rng.normal(size=(6, 41)))])
    vocab = Vocabulary("ab")

    def rows(*ids):
        return [ManifestEntry(i, "ab", "ab", "L0", "train") for i in ids]
    with pytest.raises(ValueError, match=f"{re.escape(a)}: .*'u1' has 39 features.*40"):
        load_examples(rows("a.feats#u0", "a.feats#u1", "a.feats#u2"), vocab, str(tmp_path))
    with pytest.raises(ValueError, match=f"{re.escape(b)}: .*'v1' has 41 features"):
        load_examples(rows("a.feats#u0", "b.feats#v0", "b.feats#v1"), vocab, str(tmp_path))
    with pytest.raises(ValueError, match=f"{re.escape(b)}: .*'v0' has 40 features.*39"):
        load_examples(rows("a.feats#u1", "b.feats#v0"), vocab, str(tmp_path))
    examples = load_examples(rows("a.feats#u2", "b.feats#v1"), vocab, str(tmp_path),
                             split="test")  # another split's rows are not read
    assert examples == []


@pytest.mark.parametrize("offset", [10**4, 10**30])
def test_feature_archive_offset_past_end_rejected_at_parse(tmp_path, offset):
    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, _sequences())
    with open(path + ".idx", "a") as f:
        f.write(f"far\t{offset}\n")
    with pytest.raises(ValueError, match=f"{re.escape(path)}.idx line 5: offset {offset} is past"):
        audio.FeatureArchive(path)


def test_feature_archive_repeated_id_rejected_at_parse(tmp_path):
    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, _sequences())
    with open(path + ".idx", "w") as f:
        f.write(f"utt0\t0\nutt1\t{_record_offset(1)}\nutt0\t{_record_offset(2)}\n")
    with pytest.raises(ValueError, match=f"{re.escape(path)}.idx line 3: .*'utt0' repeats line 1"):
        audio.FeatureArchive(path)


def _flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, value in flips:
        out[pos % len(out)] = value
    return bytes(out)


_POSITION = st.one_of(st.builds(lambda i, b: _record_offset(i) + b,
                                st.integers(0, 5), st.integers(0, 7)),
                      st.integers(0, 2**16))
_FLIPS = st.lists(st.tuples(_POSITION, st.integers(0, 255)), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", ".idx"]), _FLIPS)
def test_flipped_archive_bytes_raise_only_value_error_naming_it(tmp_path_factory, suffix, flips):
    """Random bytes of a small archive or its index overwritten: reading every
    record either works or raises ValueError naming the archive, within time
    and memory bounds."""
    import time
    import tracemalloc

    from multislt.manifest import ManifestEntry, Vocabulary
    from multislt.trainer import load_examples

    tmp = tmp_path_factory.mktemp("flip")
    path = str(tmp / "x.feats")
    audio.write_feature_archive(path, _sequences(6))
    with open(path + suffix, "rb") as f:
        blob = f.read()
    with open(path + suffix, "wb") as f:
        f.write(_flip(blob, flips))
    entries = [ManifestEntry(f"x.feats#utt{i}", "ab", "ab", "L0", "train") for i in range(6)]
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        for ex in load_examples(entries, Vocabulary("ab"), base_dir=str(tmp)):
            assert ex.features.ndim == 2
    except ValueError as e:
        assert path in str(e), e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000 and time.perf_counter() - t0 < 1.0


def _wav_bytes(tmp_path, n_samples: int) -> bytes:
    path = str(tmp_path / "valid.wav")
    write_wav(path, np.random.default_rng(5).uniform(-0.5, 0.5, n_samples))
    return Path(path).read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 44 + 2 * 600),
       st.lists(st.tuples(st.integers(0, 47), st.integers(0, 255)), max_size=4),
       st.one_of(st.none(), st.binary(max_size=64)))
def test_malformed_wav_raises_only_audio_format_error_naming_it(tmp_path_factory, cut, flips,
                                                                 random_bytes):
    """A 600-sample WAV cut short, with header bytes overwritten, or random
    bytes: read_wav returns at least one window of samples or raises
    AudioFormatError naming the file, within time and memory bounds."""
    import time
    import tracemalloc

    tmp = tmp_path_factory.mktemp("wav")
    blob = _wav_bytes(tmp, 600)[:cut] if random_bytes is None else random_bytes
    path = tmp / "x.wav"
    path.write_bytes(_flip(blob, flips) if blob else blob)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        samples = audio.read_wav(str(path))
        assert samples.ndim == 1 and len(samples) >= audio.WIN_LENGTH
    except audio.AudioFormatError as e:
        assert str(path) in str(e), e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000 and time.perf_counter() - t0 < 1.0
