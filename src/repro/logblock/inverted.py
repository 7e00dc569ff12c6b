"""Inverted index over a string column (Lucene-style, §3.2).

Maps terms to sorted posting lists of row ids.  For a *tokenized* column
each row contributes all distinct terms of its tokenized value
(full-text search over log lines; terms are lowercased by the
tokenizer).  For an untokenized column each row contributes a single
term equal to its **raw** whole value — exact-match semantics must agree
byte-for-byte with the scan path's ``==``, so no case folding happens
(SQL string equality is case-sensitive).

Serialized layout::

    term_count: uvarint
    per term:  term (len-prefixed utf-8)
               postings: delta-encoded uvarint list

Terms are written sorted, so readers can binary-search the decoded term
dictionary.  Postings are delta-encoded row ids, which compress well for
clustered terms.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Iterable

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError
from repro.common.varint import decode_uvarint
from repro.logblock.encode_kernels import (
    interleave,
    str_stream,
    uvarint_decode_stream,
    uvarint_stream,
)
from repro.logblock.tokenizer import normalize_term, tokenize_many, tokenize_unique


class InvertedIndexBuilder:
    """Accumulates ``(term, row id)`` pairs while rows are appended.

    Each distinct term gets a serial number when first seen; the pairs
    are kept as flat ``(serial, row)`` chunks (python lists from
    :meth:`add`, numpy arrays from :meth:`add_many`), and :meth:`build`
    groups them once.
    """

    def __init__(self, tokenize: bool) -> None:
        self._tokenize = tokenize
        # Serial -1 marks a null value (untokenized columns look nulls up
        # with the values); it is never a term.
        self._serials: dict = {None: -1}
        self._next_serial = itertools.count()
        self._serial_chunks: list = []
        self._row_chunks: list = []
        self._row_count = 0

    def _serials_of(self, terms: Iterable) -> Iterable[int]:
        return map(self._serials.setdefault, terms, self._next_serial)

    def add(self, row_id: int, value: str | None) -> None:
        """Index ``value`` for ``row_id``.  Nulls are simply absent."""
        self._row_count = max(self._row_count, row_id + 1)
        if value is None:
            return
        if self._tokenize:
            terms: Iterable[str] = tokenize_unique(value)
        else:
            terms = (value,)  # raw: exact-match must mirror scan equality
        if not self._serial_chunks or not isinstance(self._serial_chunks[-1], list):
            self._serial_chunks.append([])
            self._row_chunks.append([])
        serials = self._serial_chunks[-1]
        before = len(serials)
        serials.extend(self._serials_of(terms))
        self._row_chunks[-1].extend([row_id] * (len(serials) - before))

    def add_many(self, start_row_id: int, values: list) -> None:
        """Batch :meth:`add` for rows ``start_row_id ..+ len(values)``.

        A tokenized column is tokenized in one pass when
        :func:`tokenize_many` can prove that equal to the per-row
        tokenizer, else row by row.
        """
        count = len(values)
        if not count:
            return
        self._row_count = max(self._row_count, start_row_id + count)
        if not self._tokenize:
            serials = np.fromiter(self._serials_of(values), dtype=np.int64, count=count)
            present = serials >= 0
            self._serial_chunks.append(serials[present])
            self._row_chunks.append(np.flatnonzero(present) + start_row_id)
            return
        rows = [row for row, value in enumerate(values) if value is not None]
        if not rows:
            return
        tokenized = tokenize_many([values[row] for row in rows])
        if tokenized is None:
            for row in rows:
                self.add(start_row_id + row, values[row])
            return
        tokens, counts = tokenized
        self._serial_chunks.append(
            np.fromiter(self._serials_of(tokens), dtype=np.int64, count=len(tokens))
        )
        self._row_chunks.append(np.repeat(np.asarray(rows, dtype=np.int64) + start_row_id, counts))

    def build(self) -> "InvertedIndex":
        """Group the pairs: sorted distinct terms, each with its sorted,
        distinct row ids."""
        terms = sorted(term for term, serial in self._serials.items() if serial >= 0)
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        if not terms:
            no_rows = np.empty(0, dtype=np.int64)
            return InvertedIndex([], no_rows, offsets, self._row_count, self._tokenize)
        serials = np.concatenate([np.asarray(c, dtype=np.int64) for c in self._serial_chunks])
        rows = np.concatenate([np.asarray(c, dtype=np.int64) for c in self._row_chunks])
        rank = np.empty(int(serials.max()) + 1, dtype=np.int64)
        rank[[self._serials[term] for term in terms]] = np.arange(len(terms))
        # One sort of (term, row) keys; a term that repeats within one
        # row is posted once.
        keys = rank[serials] * self._row_count + rows
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        term_ids, rows = np.divmod(keys[distinct], self._row_count)
        np.cumsum(np.bincount(term_ids, minlength=len(terms)), out=offsets[1:])
        return InvertedIndex(terms, rows, offsets, self._row_count, self._tokenize)


class InvertedIndex:
    """Immutable queryable inverted index.

    Postings are one flat row-id array; term ``i`` owns
    ``rows[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(
        self,
        terms: list[str],
        rows: np.ndarray,
        offsets: np.ndarray,
        row_count: int,
        tokenize: bool,
    ) -> None:
        if len(offsets) != len(terms) + 1:
            raise ValueError("terms and postings length mismatch")
        self._terms = terms
        self._rows = rows
        self._offsets = offsets
        self._row_count = row_count
        self._tokenize = tokenize

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def tokenized(self) -> bool:
        return self._tokenize

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def lookup(self, term: str) -> np.ndarray:
        """Row ids containing ``term`` (empty array when absent).

        Query terms are normalized only for tokenized (full-text)
        indexes, mirroring how the indexed terms were produced.
        """
        needle = normalize_term(term) if self._tokenize else term
        idx = bisect_left(self._terms, needle)
        if idx < len(self._terms) and self._terms[idx] == needle:
            return self._rows[self._offsets[idx] : self._offsets[idx + 1]]
        return np.empty(0, dtype=np.int64)

    def lookup_prefix(self, prefix: str) -> np.ndarray:
        """Row ids containing any term with the given prefix."""
        needle = normalize_term(prefix) if self._tokenize else prefix
        start = bisect_left(self._terms, needle)
        stop = start
        while stop < len(self._terms) and self._terms[stop].startswith(needle):
            stop += 1
        # Matching terms are adjacent, so their postings are one slice.
        return np.unique(self._rows[self._offsets[start] : self._offsets[stop]])

    def match_all(self, terms: Iterable[str]) -> Bitset:
        """Rows containing *all* the given terms (full-text AND match)."""
        result: Bitset | None = None
        for term in terms:
            rows = self.lookup(term)
            bits = Bitset.from_indices(self._row_count, rows)
            result = bits if result is None else (result & bits)
            if not result.any():
                break
        if result is None:
            return Bitset.full(self._row_count)
        return result

    def match_any(self, terms: Iterable[str]) -> Bitset:
        """Rows containing *any* of the given terms (OR match)."""
        result = Bitset(self._row_count)
        for term in terms:
            rows = self.lookup(term)
            result = result | Bitset.from_indices(self._row_count, rows)
        return result

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        writer.write_u8(1 if self._tokenize else 0)
        writer.write_uvarint(self._row_count)
        writer.write_uvarint(len(self._terms))
        if not self._terms:
            return writer.getvalue()
        # Per term: the term string, then one uvarint stream holding the
        # posting count and the row-id deltas (reset at each term).
        starts = self._offsets[:-1]
        counts = np.diff(self._offsets)
        deltas = self._rows.copy()
        deltas[1:] -= self._rows[:-1]
        deltas[starts] = self._rows[starts]
        count_at = starts + np.arange(len(self._terms))
        ints = np.empty(self._rows.size + len(self._terms), dtype=np.int64)
        is_delta = np.ones(ints.size, dtype=bool)
        is_delta[count_at] = False
        ints[count_at] = counts
        ints[is_delta] = deltas
        posting_bytes, n_bytes = uvarint_stream(ints)
        term_bytes, term_lens = str_stream(self._terms)
        body = interleave(term_bytes, term_lens, posting_bytes, np.add.reduceat(n_bytes, count_at))
        writer.write_bytes(body.tobytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "InvertedIndex":
        reader = BinaryReader(data)
        tokenize = bool(reader.read_u8())
        row_count = reader.read_uvarint()
        term_count = reader.read_uvarint()
        # Walk the terms and posting counts only.  A posting run of n
        # deltas ends at the n-th byte from its start that has no
        # continuation bit; those bytes are found by bisection.
        buf = np.frombuffer(data, dtype=np.uint8)
        stops = np.flatnonzero(buf < 0x80).tolist()
        terms: list[str] = []
        counts: list[int] = []
        run_starts: list[int] = []
        run_stops: list[int] = []
        pos, size = reader.offset, len(data)
        for _ in range(term_count):
            if pos < size and data[pos] < 0x80:
                end = pos + 1 + data[pos]
                pos += 1
            else:
                length, pos = decode_uvarint(data, pos)
                end = pos + length
            if end > size:
                raise SerializationError(
                    f"read of {end - pos} bytes at {pos} overruns buffer of {size}"
                )
            terms.append(data[pos:end].decode("utf-8"))
            if end < size and data[end] < 0x80:
                n_rows, pos = data[end], end + 1
            else:
                n_rows, pos = decode_uvarint(data, end)
            counts.append(n_rows)
            run_starts.append(pos)
            if n_rows:
                last = bisect_left(stops, pos) + n_rows - 1
                if last >= len(stops):
                    raise SerializationError("truncated uvarint")
                pos = stops[last] + 1
            run_stops.append(pos)
        counts_arr = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(term_count + 1, dtype=np.int64)
        np.cumsum(counts_arr, out=offsets[1:])
        # Decode every run as one stream, then prefix-sum the deltas
        # with the sum restarting at each term.
        starts = np.asarray(run_starts, dtype=np.int64)
        lens = np.asarray(run_stops, dtype=np.int64) - starts
        shift = starts - (np.cumsum(lens) - lens)
        deltas = uvarint_decode_stream(buf[np.arange(int(lens.sum())) + np.repeat(shift, lens)])
        if deltas.size != offsets[-1]:
            raise SerializationError(
                f"decoded {deltas.size} postings, expected {int(offsets[-1])}"
            )
        sums = np.zeros(deltas.size + 1, dtype=np.int64)
        np.cumsum(deltas, out=sums[1:])
        rows = sums[1:] - np.repeat(sums[offsets[:-1]], counts_arr)
        return cls(terms, rows, offsets, row_count, tokenize)
