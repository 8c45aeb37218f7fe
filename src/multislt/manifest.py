"""Manifest parsing and the character vocabulary.

Manifest rows are tab-separated, UTF-8, LF:

    audio_path <TAB> transcript <TAB> target_text <TAB> lang <TAB> split

``audio_path`` is either a WAV file or ``archive.feats#utt_id`` for
precomputed features. Rows with lang "en" and target == transcript are
ASR rows; "en" is treated like any other target language.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = {"<pad>": PAD_ID, "<bos>": BOS_ID, "<eos>": EOS_ID, "<unk>": UNK_ID}


class ManifestError(ValueError):
    """Malformed manifest row; message carries the line number."""


@dataclass
class ManifestEntry:
    audio_path: str
    transcript: str
    target_text: str
    lang: str
    split: str

    @property
    def utt_id(self) -> str:
        if "#" in self.audio_path:
            return self.audio_path.split("#", 1)[1]
        return os.path.splitext(os.path.basename(self.audio_path))[0]


def read_manifest(path: str, languages: list[str] | None = None,
                  check_files: bool = True) -> list[ManifestEntry]:
    entries = []
    base = os.path.dirname(os.path.abspath(path))
    # undecodable bytes become lone surrogates, which UTF-8 text never holds
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                raise ManifestError(f"{path}:{lineno}: not UTF-8 text "
                                    f"(at character {e.start + 1})") from None
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise ManifestError(f"{path}:{lineno}: expected 5 tab-separated columns, got {len(cols)}")
            audio_path, transcript, target, lang, split = cols
            if not target:
                raise ManifestError(f"{path}:{lineno}: empty target text")
            if languages is not None and lang not in languages:
                raise ManifestError(f"{path}:{lineno}: unknown language tag {lang!r}")
            if check_files:
                fpath = os.path.join(base, audio_path.split("#", 1)[0])
                if not os.path.exists(fpath):
                    raise ManifestError(f"{path}:{lineno}: missing file {audio_path!r}")
            entries.append(ManifestEntry(audio_path, transcript, target, lang, split))
    return entries


def write_manifest(path: str, entries: list[ManifestEntry]):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for e in entries:
            f.write(f"{e.audio_path}\t{e.transcript}\t{e.target_text}\t{e.lang}\t{e.split}\n")


class Vocabulary:
    """Character→id map with reserved pad/bos/eos/unk ids.

    Construction is deterministic: characters sorted by codepoint.
    """

    def __init__(self, chars):
        self.chars = sorted(set(chars))
        self.char_to_id = {c: i + len(RESERVED) for i, c in enumerate(self.chars)}
        self.id_to_char = {i: c for c, i in self.char_to_id.items()}

    def __len__(self):
        return len(RESERVED) + len(self.chars)

    def encode(self, text: str, add_bos_eos: bool = True) -> list[int]:
        ids = [self.char_to_id.get(c, UNK_ID) for c in text]
        return [BOS_ID] + ids + [EOS_ID] if add_bos_eos else ids

    def decode(self, ids) -> str:
        return "".join(self.id_to_char[i] for i in ids if i in self.id_to_char)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.chars == other.chars


def build_vocab(entries: list[ManifestEntry], languages: list[str]) -> Vocabulary:
    """Every character in the training split's target texts, plus reserved ids."""
    chars = set()
    for e in entries:
        if e.split == "train" and e.lang in languages:
            chars.update(e.target_text)
    return Vocabulary(chars)
