import re

import pytest
from hypothesis import given, settings, strategies as st

from multislt import manifest as M
from multislt.manifest import ManifestEntry, Vocabulary, build_vocab, read_manifest


def _write(tmp_path, rows):
    path = tmp_path / "m.tsv"
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def test_read_manifest_basic(tmp_path):
    (tmp_path / "a.wav").touch()
    path = _write(tmp_path, [["a.wav", "hello", "hallo", "de", "train"]])
    entries = read_manifest(path)
    assert entries == [ManifestEntry("a.wav", "hello", "hallo", "de", "train")]


def test_asr_row_accepted(tmp_path):
    (tmp_path / "a.wav").touch()
    path = _write(tmp_path, [["a.wav", "hello", "hello", "en", "train"]])
    entries = read_manifest(path)
    assert entries[0].lang == "en"
    assert entries[0].target_text == entries[0].transcript


def test_empty_target_rejected_with_line_number(tmp_path):
    (tmp_path / "a.wav").touch()
    path = _write(tmp_path, [["a.wav", "x", "y", "de", "train"],
                             ["a.wav", "x", "", "de", "train"]])
    with pytest.raises(M.ManifestError, match=":2:"):
        read_manifest(path)


def test_missing_file_rejected(tmp_path):
    path = _write(tmp_path, [["nope.wav", "x", "y", "de", "train"]])
    with pytest.raises(M.ManifestError, match="missing file"):
        read_manifest(path)


def test_malformed_row_rejected(tmp_path):
    path = _write(tmp_path, [["a.wav", "x", "y", "de"]])
    with pytest.raises(M.ManifestError, match="columns"):
        read_manifest(path, check_files=False)


def test_non_utf8_row_names_file_and_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"a\tx\ty\tde\ttrain\nb\tx\xff\ty\tde\ttrain\n")
    with pytest.raises(M.ManifestError, match=f"{re.escape(str(path))}:2: not UTF-8"):
        read_manifest(str(path), check_files=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=40), min_size=1, max_size=4), st.booleans())
def test_random_row_bytes_raise_only_manifest_error(tmp_path_factory, rows, check_files):
    """Rows of random bytes either parse or raise ManifestError naming the file."""
    path = tmp_path_factory.mktemp("rows") / "m.tsv"
    path.write_bytes(b"\n".join(rows))
    try:
        read_manifest(str(path), check_files=check_files)
    except M.ManifestError as e:
        assert str(path) in str(e), e


def test_archive_path_utt_id(tmp_path):
    e = ManifestEntry("feats/train.feats#utt7", "x", "y", "de", "train")
    assert e.utt_id == "utt7"


def test_vocab_reserved_ids():
    v = Vocabulary("abc")
    assert (M.PAD_ID, M.BOS_ID, M.EOS_ID, M.UNK_ID) == (0, 1, 2, 3)
    assert len(v) == 7


def test_vocab_sorted_by_codepoint():
    v = Vocabulary("cba")
    assert v.chars == ["a", "b", "c"]
    assert v.char_to_id["a"] == 4


def test_vocab_round_trip_lossless():
    v = Vocabulary("abcdef é !")
    text = "café!"
    assert v.decode(v.encode(text)) == text


def test_vocab_unseen_maps_to_unk():
    v = Vocabulary("ab")
    assert v.encode("axb") == [v.char_to_id["a"], M.UNK_ID, v.char_to_id["b"]]


def test_build_vocab_deterministic_and_train_only():
    entries = [
        ManifestEntry("a", "s", "abc", "de", "train"),
        ManifestEntry("b", "s", "cde", "nl", "train"),
        ManifestEntry("c", "s", "zzz", "de", "dev"),
    ]
    v1 = build_vocab(entries, ["de", "nl"])
    v2 = build_vocab(list(reversed(entries)), ["de", "nl"])
    assert v1.chars == ["a", "b", "c", "d", "e"]
    assert v1.chars == v2.chars
