"""Read-side decode kernels against the per-value decoders they replace.

The reference decoders below are the per-value loops that
``InvertedIndex.from_bytes`` and ``column._decode_strings`` ran before
the stream decoder: one ``read_uvarint`` / ``read_str`` call per
value.  The columnar decoders must return exactly what they return,
and raise :class:`SerializationError` on exactly the truncated inputs
they reject.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.bitset import Bitset
from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError
from repro.common.varint import decode_uvarint, encode_uvarint
from repro.logblock.column import decode_block, decode_block_arrays, encode_block
from repro.logblock.encode_kernels import (
    _STRING_DICT,
    _STRING_PLAIN,
    uvarint_decode_stream,
)
from repro.logblock.inverted import InvertedIndex, InvertedIndexBuilder
from repro.logblock.schema import ColumnType

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Reference decoders: the per-value loops, kept only as the oracle.


def reference_from_bytes(data: bytes) -> InvertedIndex:
    reader = BinaryReader(data)
    tokenize = bool(reader.read_u8())
    row_count = reader.read_uvarint()
    term_count = reader.read_uvarint()
    terms: list[str] = []
    rows: list[int] = []
    offsets = [0]
    for _ in range(term_count):
        terms.append(reader.read_str())
        n_rows = reader.read_uvarint()
        prev = 0
        for _ in range(n_rows):
            prev += reader.read_uvarint()
            rows.append(prev)
        offsets.append(len(rows))
    return InvertedIndex(
        terms,
        np.array(rows, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
        row_count,
        tokenize,
    )


def reference_decode_strings(reader: BinaryReader, null_mask: np.ndarray, row_count: int) -> list:
    encoding = reader.read_u8()
    if encoding == _STRING_DICT:
        dict_size = reader.read_uvarint()
        dictionary = [reader.read_str() for _ in range(dict_size)]
        out: list = []
        for i in range(row_count):
            code = reader.read_uvarint()
            if code == 0 or null_mask[i]:
                out.append(None)
            else:
                out.append(dictionary[code - 1])
        return out
    if encoding == _STRING_PLAIN:
        out = []
        for i in range(row_count):
            text = reader.read_str()  # nulls were written as "" placeholders
            out.append(None if null_mask[i] else text)
        return out
    raise SerializationError(f"unknown string encoding {encoding}")


def reference_decode_string_block(data: bytes, row_count: int) -> list:
    reader = BinaryReader(data)
    nulls = Bitset.from_bytes(reader.read_len_prefixed())
    if len(nulls) != row_count:
        raise SerializationError("null bitset size does not match row count")
    return reference_decode_strings(reader, nulls.to_bool_array(), row_count)


def reference_dict_codes(data: bytes, row_count: int) -> list[int]:
    """The DICT codes a per-value ``read_uvarint`` walk yields."""
    reader = BinaryReader(data)
    reader.read_len_prefixed()
    assert reader.read_u8() == _STRING_DICT
    for _ in range(reader.read_uvarint()):
        reader.read_str()
    return [reader.read_uvarint() for _ in range(row_count)]


def assert_same_index(got: InvertedIndex, want: InvertedIndex) -> None:
    assert got.tokenized == want.tokenized
    assert got.row_count == want.row_count
    assert got.terms() == want.terms()
    assert got._offsets.dtype == want._offsets.dtype == np.int64
    assert got._rows.dtype == want._rows.dtype == np.int64
    assert np.array_equal(got._offsets, want._offsets)
    assert np.array_equal(got._rows, want._rows)


def same_outcome(new, reference, *args):
    """Both decoders return equal values, or both raise SerializationError."""
    try:
        want = reference(*args)
    except SerializationError:
        with pytest.raises(SerializationError):
            new(*args)
        return None
    got = new(*args)
    return got, want


# ---------------------------------------------------------------------------
# Strategies

short_or_long_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="éλ数😀ab", max_size=6),  # multi-byte UTF-8
    st.text(min_size=128, max_size=160),  # a length prefix of two bytes
)

# Every term has at least one posting, as the index builder guarantees.
row_ids = st.one_of(
    st.lists(st.integers(0, 127), min_size=1, max_size=10, unique=True),
    st.lists(st.integers(0, 40_000), min_size=1, max_size=40, unique=True),  # multi-byte deltas
    st.lists(st.integers(0, 400), min_size=130, max_size=200, unique=True),  # count >= 128
)


@st.composite
def indexes(draw) -> InvertedIndex:
    terms = sorted(draw(st.sets(short_or_long_text, max_size=6)))
    postings = [sorted(draw(row_ids)) for _ in terms]
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in postings], out=offsets[1:])
    rows = np.array([r for p in postings for r in p], dtype=np.int64)
    row_count = max([r + 1 for p in postings for r in p], default=0)
    return InvertedIndex(terms, rows, offsets, row_count, draw(st.booleans()))


def dict_block_values(draw, n_distinct: int, n_rows: int) -> list:
    # DICT is chosen when distinct values are at most half the present ones.
    dictionary = [f"v{i:04d}" for i in range(n_distinct)]
    values = draw(st.lists(st.sampled_from(dictionary), min_size=n_rows, max_size=n_rows))
    values[:n_distinct] = dictionary
    nulls = draw(st.lists(st.integers(0, n_rows - 1), max_size=8))
    for i in nulls:
        values[i] = None
    return values


@st.composite
def string_blocks(draw) -> list:
    kind = draw(st.sampled_from(["plain", "long_plain", "all_null", "dict", "big_dict"]))
    if kind == "plain":
        return draw(st.lists(st.one_of(st.none(), short_or_long_text), max_size=40))
    if kind == "long_plain":
        return draw(st.lists(st.one_of(st.none(), st.text(min_size=128, max_size=300)), min_size=1, max_size=8))
    if kind == "all_null":
        return [None] * draw(st.integers(0, 300))
    if kind == "dict":
        return dict_block_values(draw, draw(st.integers(1, 8)), 40)
    return dict_block_values(draw, draw(st.integers(128, 140)), 300)  # codes >= 128


# ---------------------------------------------------------------------------
# The stream kernel


def decode_stream(data: bytes) -> np.ndarray:
    return uvarint_decode_stream(np.frombuffer(data, dtype=np.uint8))


class TestUvarintDecodeStream:
    @SETTINGS
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=50))
    def test_matches_per_value_decode(self, values):
        data = b"".join(encode_uvarint(v) for v in values)
        got = decode_stream(data)
        assert got.dtype == np.int64
        assert got.tolist() == values

    def test_empty(self):
        assert decode_stream(b"").size == 0

    def test_truncated_last_value(self):
        data = encode_uvarint(7) + encode_uvarint(1 << 40)[:-1]
        with pytest.raises(SerializationError):
            decode_uvarint(data, 1)
        with pytest.raises(SerializationError, match="truncated"):
            decode_stream(data)

    def test_longer_than_ten_bytes(self):
        data = b"\x80" * 10 + b"\x01"
        with pytest.raises(SerializationError):
            decode_uvarint(data)
        with pytest.raises(SerializationError, match="longer than 10"):
            decode_stream(b"\x05" + data)

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1])
    def test_value_past_int64(self, value):
        with pytest.raises(SerializationError, match="int64"):
            decode_stream(encode_uvarint(3) + encode_uvarint(value))

    def test_int64_max_and_padded_ten_byte_zero(self):
        data = encode_uvarint(2**63 - 1) + b"\x80" * 9 + b"\x00"
        assert decode_stream(data).tolist() == [2**63 - 1, 0]


# ---------------------------------------------------------------------------
# InvertedIndex.from_bytes


class TestInvertedFromBytes:
    @SETTINGS
    @given(indexes())
    def test_matches_reference(self, index):
        data = index.to_bytes()
        assert_same_index(InvertedIndex.from_bytes(data), reference_from_bytes(data))
        assert_same_index(InvertedIndex.from_bytes(data), index)

    @pytest.mark.parametrize("row_count", [0, 5])
    def test_empty_index(self, row_count):
        builder = InvertedIndexBuilder(tokenize=True)
        for row in range(row_count):
            builder.add(row, None)
        data = builder.build().to_bytes()
        assert_same_index(InvertedIndex.from_bytes(data), reference_from_bytes(data))

    def test_terms_without_postings(self):
        # The builder never writes an empty posting run, but the format allows it.
        writer = BinaryWriter()
        for value in (0, 301, 3):  # untokenized, row_count, term_count
            writer.write_uvarint(value)
        for term, rows in (("a", []), ("b", [3, 300]), ("c", [])):
            writer.write_str(term)
            writer.write_uvarint(len(rows))
            for delta in np.diff(rows, prepend=0).tolist():
                writer.write_uvarint(delta)
        data = writer.getvalue()
        index = InvertedIndex.from_bytes(data)
        assert_same_index(index, reference_from_bytes(data))
        assert index.lookup("b").tolist() == [3, 300] and index.lookup("c").size == 0

    def test_truncation_parity(self):
        builder = InvertedIndexBuilder(tokenize=True)
        builder.add_many(0, ["get /api ok", None, "POST /api é", "get"] * 40)
        data = builder.build().to_bytes()
        for cut in range(len(data)):
            outcome = same_outcome(InvertedIndex.from_bytes, reference_from_bytes, data[:cut])
            if outcome is not None:
                assert_same_index(*outcome)

    def test_overlong_posting_delta(self):
        # tokenize=0, row_count=1, one term "a" with one 11-byte delta.
        data = b"\x00\x01\x01\x01a\x01" + b"\x80" * 10 + b"\x00"
        for decode in (InvertedIndex.from_bytes, reference_from_bytes):
            with pytest.raises(SerializationError):
                decode(data)


# ---------------------------------------------------------------------------
# STRING column blocks


class TestStringBlocks:
    @SETTINGS
    @given(string_blocks())
    def test_matches_reference(self, values):
        data = encode_block(values, ColumnType.STRING)
        got = decode_block(data, ColumnType.STRING, len(values))
        assert got == reference_decode_string_block(data, len(values)) == values

    @SETTINGS
    @given(string_blocks())
    def test_dict_codes_match_reference(self, values):
        data = encode_block(values, ColumnType.STRING)
        arrays = decode_block_arrays(data, ColumnType.STRING, len(values))
        if arrays is None:
            return  # PLAIN: no vector form
        codes, dictionary, null_mask = arrays
        assert codes.dtype == np.int64
        assert codes.tolist() == reference_dict_codes(data, len(values))
        assert dictionary == sorted({v for v in values if v is not None})
        assert null_mask.tolist() == [v is None for v in values]

    def test_big_dictionary_is_dict_encoded(self):
        values = [f"v{i % 200:04d}" for i in range(400)]
        data = encode_block(values, ColumnType.STRING)
        codes, dictionary, _ = decode_block_arrays(data, ColumnType.STRING, 400)
        assert len(dictionary) == 200 and int(codes.max()) == 200

    @pytest.mark.parametrize(
        "values",
        [
            ["a", None, "bcd", "é"] * 3,  # PLAIN
            ["x", "y", None, "x"] * 5,  # DICT
            [None] * 20,  # all null
        ],
    )
    def test_truncation_parity(self, values):
        data = encode_block(values, ColumnType.STRING)
        for cut in range(len(data)):
            outcome = same_outcome(
                lambda d: decode_block(d, ColumnType.STRING, len(values)),
                lambda d: reference_decode_string_block(d, len(values)),
                data[:cut],
            )
            if outcome is not None:
                assert outcome[0] == outcome[1]
