"""Vectorized write-side encode kernels (builder hot loop).

PR 7 compiled the *scan* side into numpy block kernels; this module is
the same recipe applied to the archive encode path: the per-value
python loops in :func:`repro.logblock.column.encode_block` and
:func:`repro.logblock.sma.compute_sma` become columnar numpy kernels
with **byte-identical** output.  BtrLog's observation motivates the
work: in cloud log systems the CPU spent producing log bytes — not the
device — is the bottleneck.

Byte-identity is the contract, checked three ways:

* construction — every kernel mirrors the interpreted encoder's exact
  byte layout (same null bitsets, same dictionary sort, same LEB128
  codes, same sequential float accumulation for SMA sums);
* fallback — shapes whose vectorized result could diverge (NaN or
  signed-zero float SMAs, ints stored in FLOAT64 columns, unsupported
  value types) raise :class:`EncodeFallback` or
  return the interpreted result, exactly like ``VectorizeFallback`` on
  the scan side;
* tests — differential + hypothesis suites compare whole packed
  LogBlocks member-by-member across both modes.

A column is *prepared* once (type gate, null mask, typed vector), then
every block slice encodes from the shared arrays — the per-block cost
is O(1) numpy calls instead of O(rows) python bytecode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryWriter
from repro.common.errors import SerializationError
from repro.common.varint import _MAX_VARINT_BYTES
from repro.logblock.schema import ColumnType
from repro.logblock.sma import Sma, compute_sma, compute_sma_arrays

# STRING column block encodings (shared with repro.logblock.column,
# which imports the stream decoder from here).
_STRING_PLAIN = 0
_STRING_DICT = 1

# Use dictionary encoding when distinct values are at most this fraction
# of the row count (and the block is non-trivial).
_DICT_MAX_CARDINALITY_FRACTION = 0.5

MODE_VECTORIZED = "vectorized"
MODE_INTERPRETED = "interpreted"


class EncodeFallback(Exception):
    """A column shape the encode kernels do not cover.

    Raising this is always *safe*: the caller re-encodes the column with
    the interpreted oracle, which by definition produces the canonical
    bytes (and surfaces the canonical error for invalid values, e.g. an
    out-of-int64 integer).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class EncodeStats:
    """Per-writer accounting: column values encoded per mode.

    ``rows_vectorized`` / ``rows_interpreted`` count *column cells*
    (one per row per column block), mirroring how the scan side counts
    per-leaf evaluated rows; ``fallbacks`` maps reason → occurrence
    count (one per column block that fell back).
    """

    rows_vectorized: int = 0
    rows_interpreted: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)

    def note_fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def merge(self, other: "EncodeStats") -> None:
        self.rows_vectorized += other.rows_vectorized
        self.rows_interpreted += other.rows_interpreted
        for reason, count in other.fallbacks.items():
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count


@dataclass
class PreparedColumn:
    """One column transposed into numpy form, shared by all its blocks."""

    ctype: ColumnType
    values: list  # original python values — oracle fallback
    null_mask: np.ndarray  # bool, one per row
    vector: np.ndarray  # int64/float64/bool vector; object array for STRING
    # SMA fast path eligibility is a column-level property (e.g. a
    # FLOAT64 column holding python ints must keep the oracle's
    # value-kind-preserving min/max); per-block hazards (NaN, -0.0) are
    # detected inside compute_sma_range.
    sma_vectorized: bool = True
    sma_reason: str | None = None


def uvarint_stream(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of every value, plus each value's byte count."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    top = int(values.max()) if values.size else 0
    if top < 0x80:
        # Dictionary codes and short-string lengths are < 128 in the
        # common case, so the whole stream is one cast.
        return values.astype(np.uint8), np.ones(values.size, dtype=np.int64)
    n_bytes = np.ones(values.size, dtype=np.int64)
    for shift in range(7, top.bit_length(), 7):
        n_bytes += values >= (1 << shift)
    ends = np.cumsum(n_bytes)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # Write every value's low 7 bits, then carry on with the values that
    # have more: a continuation bit on all but each value's last byte.
    pos, rest, left = ends - n_bytes, values, n_bytes
    while pos.size:
        more = left > 1
        out[pos] = (rest & np.uint64(0x7F)).astype(np.uint8) | (more * np.uint8(0x80))
        pos, rest, left = pos[more] + 1, rest[more] >> np.uint64(7), left[more] - 1
    return out, n_bytes


def encode_uvarint_array(values: np.ndarray) -> bytes:
    """LEB128-encode a vector of unsigned ints, byte-identical to a
    per-value :meth:`BinaryWriter.write_uvarint` loop."""
    return uvarint_stream(values)[0].tobytes()


def uvarint_decode_stream(data: np.ndarray) -> np.ndarray:
    """Every LEB128 value of the uint8 buffer ``data`` (back to back), as int64.

    The inverse of :func:`uvarint_stream`.  Raises
    :class:`SerializationError` where a :func:`decode_uvarint` walk
    would (a truncated last value, a value longer than 10 bytes) and
    for a value that does not fit int64.
    """
    if not data.size:
        return np.empty(0, dtype=np.int64)
    # A value ends at each byte without the continuation bit.
    stops = np.flatnonzero(data < 0x80)
    if not stops.size or stops[-1] != data.size - 1:
        raise SerializationError("truncated uvarint")
    if stops.size == data.size:
        return data.astype(np.int64)
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    n_bytes = stops - starts + 1
    longest = int(n_bytes.max())
    if longest > _MAX_VARINT_BYTES:
        raise SerializationError(f"uvarint longer than {_MAX_VARINT_BYTES} bytes")
    # Nine 7-bit groups hold 63 bits; any payload in a tenth byte is >= 2**63.
    if longest == _MAX_VARINT_BYTES and data[stops[n_bytes == _MAX_VARINT_BYTES]].any():
        raise SerializationError("uvarint does not fit int64")
    values = (data[starts] & 0x7F).astype(np.uint64)
    # Add byte k of every value that has one, for k = 1 .. longest - 1.
    more = np.flatnonzero(n_bytes > 1)
    for k in range(1, longest):
        payload = (data[starts[more] + k] & 0x7F).astype(np.uint64)
        values[more] |= payload << np.uint64(7 * k)
        more = more[n_bytes[more] > k + 1]
    return values.view(np.int64)


def interleave(
    first: np.ndarray, first_lens: np.ndarray, second: np.ndarray, second_lens: np.ndarray
) -> np.ndarray:
    """Two item-wise byte streams merged as item 0 of ``first``, item 0
    of ``second``, item 1 of ``first``, ...; ``*_lens`` give each
    item's byte count."""
    out = np.empty(first.size + second.size, dtype=np.uint8)
    # A byte of item i moves forward by the other stream's bytes that
    # precede it: items < i of ``second``, items <= i of ``first``.
    first_ends, second_ends = np.cumsum(first_lens), np.cumsum(second_lens)
    out[np.arange(first.size) + np.repeat(second_ends - second_lens, first_lens)] = first
    out[np.arange(second.size) + np.repeat(first_ends, second_lens)] = second
    return out


def str_stream(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Length-prefixed UTF-8 of every value, plus each item's byte count."""
    joined = "".join(values)
    if joined.isascii():
        data = joined.encode("ascii")
        lens = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    else:
        encoded = [value.encode("utf-8") for value in values]
        data = b"".join(encoded)
        lens = np.fromiter(map(len, encoded), dtype=np.int64, count=len(values))
    prefix, prefix_lens = uvarint_stream(lens)
    out = interleave(prefix, prefix_lens, np.frombuffer(data, dtype=np.uint8), lens)
    return out, prefix_lens + lens


def encode_str_stream(values: list[str]) -> bytes:
    """Byte-identical to a :meth:`BinaryWriter.write_str` loop over ``values``."""
    return str_stream(values)[0].tobytes()


def _object_array(values: list) -> np.ndarray:
    # np.array() would try to build multi-dimensional arrays from
    # sequence-valued cells; pre-sizing keeps the array strictly 1-D.
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def prepare_column(
    values: list, ctype: ColumnType, trusted: bool = False
) -> PreparedColumn:
    """Transpose one column into numpy form, or raise :class:`EncodeFallback`.

    ``trusted=True`` skips the per-value type gate — callers that
    schema-validated every appended row (the writer's default) already
    guarantee the exact type set the kernels assume.
    """
    obj = _object_array(values)
    null_mask = np.equal(obj, None)
    # One C-driven sweep collecting the exact types present.  The gate
    # is deliberately stricter than the schema validator (which also
    # accepts int/str/bool *subclasses*): a subclassed value falls back
    # to the oracle rather than risking a representation the kernels
    # did not anticipate.  Falling back is always byte-safe.
    vtypes = set(map(type, values))
    vtypes.discard(type(None))

    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        if not trusted and not vtypes <= {int}:
            raise EncodeFallback("non-int value")
        filled = obj.copy()
        filled[null_mask] = 0
        try:
            vector = filled.astype(np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            # The oracle's np.array(..., dtype=int64) raises the same
            # OverflowError — falling back surfaces the canonical one.
            raise EncodeFallback("int64 overflow") from exc
        return PreparedColumn(ctype, values, null_mask, vector)

    if ctype is ColumnType.FLOAT64:
        if not trusted and not vtypes <= {int, float}:
            raise EncodeFallback("non-float value")
        filled = obj.copy()
        filled[null_mask] = 0.0
        try:
            vector = filled.astype(np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise EncodeFallback("float64 overflow") from exc
        prep = PreparedColumn(ctype, values, null_mask, vector)
        if not vtypes <= {float}:
            # The oracle SMA keeps the *original* min/max objects, so a
            # python int min serializes as KIND_INT; the float64 vector
            # cannot reproduce that.  Encoding is unaffected (both
            # paths store float64 bits).
            prep.sma_vectorized = False
            prep.sma_reason = "float column holds ints (sma)"
        return prep

    if ctype is ColumnType.BOOL:
        if not trusted and not vtypes <= {bool}:
            raise EncodeFallback("non-bool value")
        # bool(None) is False, matching the oracle's placeholder.
        return PreparedColumn(ctype, values, null_mask, obj.astype(bool))

    if ctype is ColumnType.STRING:
        if not trusted and not vtypes <= {str}:
            raise EncodeFallback("non-str value")
        return PreparedColumn(ctype, values, null_mask, obj)

    raise EncodeFallback(f"unsupported column type {ctype}")


def encode_block_range(
    prep: PreparedColumn, start: int, stop: int
) -> tuple[bytes, str, str | None]:
    """Encode rows ``[start, stop)`` of a prepared column.

    Returns ``(payload, mode, fallback_reason)`` where ``payload`` is
    byte-identical to ``encode_block(values[start:stop], ctype)``.
    """
    nulls = prep.null_mask[start:stop]
    writer = BinaryWriter()
    writer.write_len_prefixed(Bitset.from_bool_array(nulls).to_bytes())

    if prep.ctype in (ColumnType.INT64, ColumnType.TIMESTAMP, ColumnType.FLOAT64):
        writer.write_bytes(prep.vector[start:stop].tobytes())
        return writer.getvalue(), MODE_VECTORIZED, None

    if prep.ctype is ColumnType.BOOL:
        writer.write_len_prefixed(
            Bitset.from_bool_array(prep.vector[start:stop]).to_bytes()
        )
        return writer.getvalue(), MODE_VECTORIZED, None

    # STRING: DICT when few distinct values, else PLAIN — the oracle's
    # choice, dictionary order and codes, with C-driven set/map passes.
    values = prep.values[start:stop]
    n_present = len(values) - int(nulls.sum())
    distinct = set(values)
    distinct.discard(None)
    few = len(distinct) <= _DICT_MAX_CARDINALITY_FRACTION * n_present
    if n_present and len(values) >= 16 and few:
        ordered = sorted(distinct)
        writer.write_u8(_STRING_DICT)
        writer.write_uvarint(len(ordered))
        writer.write_bytes(encode_str_stream(ordered))
        # Code 0 is reserved for null; real codes are shifted by one.
        code_of = dict(zip(ordered, range(1, len(ordered) + 1)))
        code_of[None] = 0
        codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.uint64, count=len(values))
        writer.write_bytes(encode_uvarint_array(codes))
        return writer.getvalue(), MODE_VECTORIZED, None
    writer.write_u8(_STRING_PLAIN)
    # Nulls are written as "" placeholders, as the oracle does.
    writer.write_bytes(encode_str_stream(["" if v is None else v for v in values]))
    return writer.getvalue(), MODE_VECTORIZED, None


def compute_sma_range(
    prep: PreparedColumn, start: int, stop: int
) -> tuple[Sma, str | None]:
    """SMA of rows ``[start, stop)``: array fast path, oracle fallback."""
    if prep.sma_vectorized:
        sma = compute_sma_arrays(
            prep.vector[start:stop], prep.null_mask[start:stop], prep.ctype
        )
        if sma is not None:
            return sma, None
        reason = "float sma needs sequential accumulation"
    else:
        reason = prep.sma_reason or "sma fallback"
    return compute_sma(prep.values[start:stop], prep.ctype), reason
