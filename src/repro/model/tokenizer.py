"""A deterministic word-level toy tokenizer.

The reproduction does not ship a trained BPE vocabulary; questions and
answers in the synthetic COIN workload are short English-like strings, so a
hash-based word-level tokenizer is sufficient to drive the text path of the
streaming pipeline (question prefill and answer generation).
"""

from __future__ import annotations

import hashlib

import numpy as np

_SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<question>", "<answer>")


class ToyTokenizer:
    """Deterministic word-level tokenizer with a fixed-size vocabulary."""

    def __init__(self, vocab_size: int = 512):
        if vocab_size <= len(_SPECIAL_TOKENS):
            raise ValueError(
                f"vocab_size must exceed the {len(_SPECIAL_TOKENS)} special tokens"
            )
        self.vocab_size = vocab_size
        self.special_tokens = dict(zip(_SPECIAL_TOKENS, range(len(_SPECIAL_TOKENS)), strict=True))
        self._word_space = vocab_size - len(_SPECIAL_TOKENS)

    @property
    def bos_id(self) -> int:
        return self.special_tokens["<bos>"]

    def _word_id(self, word: str) -> int:
        digest = hashlib.sha256(word.lower().encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % self._word_space
        return bucket + len(_SPECIAL_TOKENS)

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> np.ndarray:
        """Encode a string into token ids."""
        ids: list[int] = []
        if add_bos:
            ids.append(self.bos_id)
        for word in text.split():
            if word in self.special_tokens:
                ids.append(self.special_tokens[word])
            else:
                ids.append(self._word_id(word))
        if add_eos:
            ids.append(self.special_tokens["<eos>"])
        return np.asarray(ids, dtype=np.int64)
