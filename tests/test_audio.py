import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multislt import audio
from multislt.audio import FeatureSequence, mel_spectrogram, normalize

from helpers import write_wav


def test_one_second_gives_98_frames():
    fs = mel_spectrogram(np.zeros(16000))
    assert fs.frames.shape == (98, 40)


def test_single_window_boundary():
    fs = mel_spectrogram(np.zeros(400))
    assert fs.frames.shape == (1, 40)


def test_too_short_rejected():
    with pytest.raises(ValueError):
        mel_spectrogram(np.zeros(399))


@given(st.integers(400, 48000))
@settings(max_examples=60, deadline=None)
def test_frame_count_formula(n):
    fs = mel_spectrogram(np.zeros(n))
    assert fs.frames.shape[0] == (n - 400) // 160 + 1


def test_sine_hits_nearest_filter():
    t = np.arange(16000) / audio.SAMPLE_RATE
    fs = mel_spectrogram(0.5 * np.sin(2 * np.pi * 1000.0 * t))
    expected_bin = int(np.argmin(np.abs(audio.FILTER_CENTERS_HZ - 1000.0)))
    hits = np.argmax(fs.frames, axis=1)
    assert np.all(hits == expected_bin)


def test_extraction_deterministic():
    rng = np.random.default_rng(0)
    samples = rng.normal(scale=0.1, size=8000)
    a = mel_spectrogram(samples)
    b = mel_spectrogram(samples)
    assert np.array_equal(a.frames, b.frames)


def test_normalize_statistics():
    rng = np.random.default_rng(1)
    fs = normalize(FeatureSequence("u", rng.normal(3.0, 7.0, (50, 40))))
    assert abs(fs.frames.mean()) < 1e-9
    assert abs(fs.frames.std() - 1.0) < 1e-9


def test_normalize_constant_matrix():
    fs = normalize(FeatureSequence("u", np.full((10, 40), 2.5)))
    np.testing.assert_array_equal(fs.frames, 0.0)


def test_normalize_idempotent():
    rng = np.random.default_rng(2)
    once = normalize(FeatureSequence("u", rng.normal(size=(20, 40))))
    twice = normalize(once)
    np.testing.assert_allclose(twice.frames, once.frames, atol=1e-12)


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
    seqs = [FeatureSequence(f"utt{i}", rng.normal(size=(5 + i, 40)).astype(np.float32))
            for i in range(4)]
    path = str(tmp_path / "x.feats")
    audio.write_feature_archive(path, seqs)
    arc = audio.FeatureArchive(path)
    for fs in seqs:
        back = arc.load(fs.utt_id)
        np.testing.assert_array_equal(back.frames, np.asarray(fs.frames, dtype=np.float64))


def test_feature_archive_missing_sidecar(tmp_path):
    path = str(tmp_path / "y.feats")
    open(path, "wb").close()
    with pytest.raises(FileNotFoundError):
        audio.FeatureArchive(path)
