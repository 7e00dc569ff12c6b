"""Log-line tokenizer for full-text inverted indexing.

The paper adds "an inverted index based on Lucene" to LogBlock.  We use a
Lucene-StandardAnalyzer-flavoured tokenizer suited to machine logs:
alphanumeric runs (plus a few intra-token connectors common in log
fields, like ``.`` in IPs/hostnames and ``-``/``_`` in identifiers) are
emitted lowercased.  Tokenization is deterministic and shared between
write (index build) and read (query term extraction), which is the only
property the experiments rely on.
"""

from __future__ import annotations

import re
import string
from itertools import chain

import numpy as np

# A token is a run of word characters possibly joined by . - _ : /
# (so "192.168.0.1", "user_id", "GET:/api/v1" survive as useful units),
# but trailing/leading connectors are trimmed.
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[._\-:/][A-Za-z0-9]+)*")

MAX_TOKEN_LENGTH = 128

# The pattern's character classes as ``bytes.translate`` tables: keep
# token characters and the value separator (blank the rest), and flag
# word and connector bytes.
_WORD_BYTES = (string.ascii_letters + string.digits).encode()
_CONNECTOR_BYTES = b"._-:/"
_KEEP = bytes(b if b in _WORD_BYTES + _CONNECTOR_BYTES + b"\n" else ord(" ") for b in range(256))
_WORD_FLAGS = bytes(b in _WORD_BYTES for b in range(256))
_CONNECTOR_FLAGS = bytes(b in _CONNECTOR_BYTES for b in range(256))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase index terms.

    Overlong tokens are truncated to :data:`MAX_TOKEN_LENGTH` so a single
    pathological log line cannot bloat the term dictionary.
    """
    return [match.group(0).lower()[:MAX_TOKEN_LENGTH] for match in _TOKEN_RE.finditer(text)]


def tokenize_unique(text: str) -> set[str]:
    """Distinct terms of ``text`` (postings store each doc once per term)."""
    return set(tokenize(text))


def tokenize_many(values: list[str]) -> tuple[list[str], list[int]] | None:
    """:func:`tokenize` of every value in one numpy pass: all tokens in
    order, and each value's token count.

    A character belongs to a token iff it is a word character, or a
    connector between two word characters; the tokens are the maximal
    runs of such characters, which is what the pattern matches.
    Returns ``None`` when the pass cannot be proven equal to the
    per-value tokenizer and the caller must go value by value:

    * the text must be ASCII — the byte tables see one byte per
      character, and lowercasing the whole text equals lowercasing each
      match only there (U+212A KELVIN SIGN lowercases to ASCII ``k``);
    * no value may contain ``\n``, the separator between values.
    """
    joined = "\n".join(values)
    if not joined.isascii() or joined.count("\n") != len(values) - 1:
        return None
    text = joined.lower().encode("ascii").translate(_KEEP)
    is_word = np.frombuffer(text.translate(_WORD_FLAGS), dtype=bool)
    between_words = np.zeros_like(is_word)
    between_words[1:-1] = is_word[:-2] & is_word[2:]
    loose = np.frombuffer(text.translate(_CONNECTOR_FLAGS), dtype=bool) & ~between_words
    if loose.any():
        blanked = np.frombuffer(text, dtype=np.uint8).copy()
        blanked[loose] = ord(" ")
        text = blanked.tobytes()
    per_value = [line.split() for line in text.decode("ascii").split("\n")]
    tokens = list(chain.from_iterable(per_value))
    if max(map(len, values)) > MAX_TOKEN_LENGTH:
        tokens = [token[:MAX_TOKEN_LENGTH] for token in tokens]
    return tokens, list(map(len, per_value))


def normalize_term(term: str) -> str:
    """Normalize a query term the same way indexed terms were normalized."""
    return term.lower()[:MAX_TOKEN_LENGTH]
