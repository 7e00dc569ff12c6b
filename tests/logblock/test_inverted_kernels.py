"""Columnar inverted-index build and string-stream encode: byte identity.

The columnar builder (one-pass tokenizing, one grouping sort) and the
numpy serializer must produce exactly the bytes of the reference below:
a dict of posting lists filled row by row and written one
``write_str`` / ``write_uvarint`` at a time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.bytesio import BinaryWriter
from repro.logblock.encode_kernels import encode_str_stream
from repro.logblock.inverted import InvertedIndex, InvertedIndexBuilder
from repro.logblock.schema import (
    ColumnSpec,
    ColumnType,
    IndexType,
    TableSchema,
    request_log_schema,
)
from repro.logblock.tokenizer import (
    MAX_TOKEN_LENGTH,
    tokenize,
    tokenize_many,
    tokenize_unique,
)
from repro.logblock.writer import LogBlockWriter, index_member

from tests.conftest import make_rows
from tests.logblock.test_encode_kernels import unpack_members

KELVIN = "K"  # lowercases to an ASCII "k"
DOTTED_I = "İ"  # lowercases to two code points


def reference_bytes(values: list, tokenize: bool, start: int = 0) -> bytes:
    """The row-at-a-time index: dict of posting lists, scalar writes."""
    postings: dict[str, list[int]] = {}
    for row_id, value in enumerate(values, start):
        if value is None:
            continue
        terms = tokenize_unique(value) if tokenize else (value,)
        for term in terms:
            bucket = postings.setdefault(term, [])
            if not bucket or bucket[-1] != row_id:
                bucket.append(row_id)
    writer = BinaryWriter()
    writer.write_u8(1 if tokenize else 0)
    writer.write_uvarint(start + len(values))
    writer.write_uvarint(len(postings))
    for term in sorted(postings):
        writer.write_str(term)
        writer.write_uvarint(len(postings[term]))
        prev = 0
        for row in postings[term]:
            writer.write_uvarint(row - prev)
            prev = row
    return writer.getvalue()


def per_row_bytes(values: list, tokenize: bool) -> bytes:
    builder = InvertedIndexBuilder(tokenize)
    for row_id, value in enumerate(values):
        builder.add(row_id, value)
    return builder.build().to_bytes()


def batch_bytes(values: list, tokenize: bool) -> bytes:
    builder = InvertedIndexBuilder(tokenize)
    builder.add_many(0, values)
    return builder.build().to_bytes()


def assert_identical(values: list, tokenize: bool) -> None:
    expected = reference_bytes(values, tokenize)
    assert per_row_bytes(values, tokenize) == expected
    assert batch_bytes(values, tokenize) == expected


LONG_A = "a" * MAX_TOKEN_LENGTH
CASES = {
    "plain": ["GET /api/v1 ok", "POST /api/v2 error", "GET /api/v1 ok"],
    "nulls": [None, "a b", None, "b c", None],
    "all_null": [None, None, None],
    "empty_strings": ["", "x", "", None, ""],
    "repeat_in_row": ["spam spam SPAM eggs", "eggs eggs", "spam"],
    "long_token_collision": [LONG_A + "x y", LONG_A + "y", LONG_A, "b" * 300],
    "kelvin": [f"{KELVIN}elvin k", "kelvin", f"{KELVIN}"],
    "dotted_i": [f"{DOTTED_I}stanbul istanbul", "i̇", DOTTED_I],
    "non_ascii": ["café CAFÉ naïve", "über", "日本"],
    "newline_in_value": ["a\nb", "b c", "\n", "c\n\nd"],
    "trailing_nul": ["a\x00", "a", "b\x00\x00", "\x00", "b"],
    "connectors": ["a..b", "-a-", "x.y_z:w/v", "/api/v1/t5/op2", "a._b"],
    "many_rows": [f"rid_{i} status {'ok' if i % 3 else 'error'}" for i in range(400)],
}


class TestBuilderIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("tokenize", [True, False])
    def test_case(self, name, tokenize):
        assert_identical(CASES[name], tokenize)

    def test_empty_builder(self):
        for tokenize in (True, False):
            assert batch_bytes([], tokenize) == reference_bytes([], tokenize)
            assert InvertedIndexBuilder(tokenize).build().term_count == 0

    def test_add_many_at_offsets_mixed_with_add(self):
        values = [f"v{i % 7} rid_{i} x" if i % 5 else None for i in range(120)]
        for tokenize in (True, False):
            builder = InvertedIndexBuilder(tokenize)
            builder.add_many(0, values[:30])
            for row_id in range(30, 45):
                builder.add(row_id, values[row_id])
            builder.add_many(45, values[45:100])
            builder.add(100, values[100])
            builder.add_many(101, values[101:])
            assert builder.build().to_bytes() == reference_bytes(values, tokenize)

    def test_add_many_starting_past_zero(self):
        values = ["a b", None, "b c"]
        builder = InvertedIndexBuilder(tokenize=True)
        builder.add_many(1000, values)
        assert builder.build().to_bytes() == reference_bytes(values, True, start=1000)

    def test_multibyte_row_deltas(self):
        # First postings and gaps >= 128 need two-byte varints.
        values = [None] * 300 + ["a"] + [None] * 200 + ["a b"] + ["b"] * 20000
        assert_identical(values, tokenize=True)

    def test_round_trip(self):
        builder = InvertedIndexBuilder(tokenize=True)
        builder.add_many(0, CASES["many_rows"])
        index = builder.build()
        decoded = InvertedIndex.from_bytes(index.to_bytes())
        assert decoded.terms() == index.terms()
        for term in index.terms():
            assert decoded.lookup(term).tolist() == index.lookup(term).tolist()
        assert decoded.lookup_prefix("rid_1").tolist() == index.lookup_prefix("rid_1").tolist()


class TestTokenizeMany:
    def test_equals_per_value_tokenize(self):
        values = ["GET /API/v1 ok", "", "x.y..z", LONG_A + "bc d", "-a- _b_ a:/b"]
        tokens, counts = tokenize_many(values)
        assert tokens == ["get", "api/v1", "ok", "x.y", "z", LONG_A, "d", "a", "b", "a", "b"]
        assert counts == [3, 0, 2, 2, 4]
        assert tokens == [t for value in values for t in tokenize(value)]

    @pytest.mark.parametrize(
        "values",
        [[f"{KELVIN}elvin"], [DOTTED_I], ["café"], ["a\nb", "c"], ["\n"]],
    )
    def test_refuses_unprovable_input(self, values):
        assert tokenize_many(values) is None

    @given(
        st.lists(
            st.text(alphabet=st.sampled_from(list("aZ9._-:/ \t\r\x0b\x1c,;")), max_size=40),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_equals_regex(self, values):
        tokens, counts = tokenize_many(values)
        assert counts == [len(tokenize(value)) for value in values]
        assert tokens == [t for value in values for t in tokenize(value)]


text_alphabet = st.sampled_from(
    list("abcXYZ019 ._-:/") + ["\n", "\x00", KELVIN, DOTTED_I, "é", "Σ"]
)
value_strategy = st.one_of(
    st.none(),
    st.text(alphabet=text_alphabet, max_size=24),
    st.builds(lambda a, b: "q" * 126 + a + b, st.text("ab", max_size=4), st.text(" x", max_size=3)),
)


@given(
    values=st.lists(value_strategy, max_size=60),
    tokenize=st.booleans(),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_builder_identity(values, tokenize, cuts):
    """Any split into add_many batches, with single adds at the cuts."""
    expected = reference_bytes(values, tokenize)
    assert per_row_bytes(values, tokenize) == expected
    builder = InvertedIndexBuilder(tokenize)
    bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            builder.add(lo, values[lo])
        else:
            builder.add_many(lo, values[lo:hi])
    assert builder.build().to_bytes() == expected


# ---------------------------------------------------------------------------
# encode_str_stream ≡ a write_str loop


def write_str_loop(values: list[str]) -> bytes:
    writer = BinaryWriter()
    for value in values:
        writer.write_str(value)
    return writer.getvalue()


class TestStrStream:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [""],
            ["a", "", "bc"],
            ["x" * 127, "y" * 128, "z" * 129, "w" * 16_384],
            ["é" * 64, "日" * 43, "a\x00", "\x00"],
            [KELVIN, DOTTED_I, "\U0001f600"],
        ],
    )
    def test_edges(self, values):
        assert encode_str_stream(values) == write_str_loop(values)

    @given(st.lists(st.one_of(st.text(max_size=200), st.text("ab", min_size=120, max_size=300))))
    @settings(max_examples=100, deadline=None)
    def test_differential(self, values):
        assert encode_str_stream(values) == write_str_loop(values)

    def test_unencodable_raises_like_write_str(self):
        with pytest.raises(UnicodeEncodeError):
            write_str_loop(["\ud800"])
        with pytest.raises(UnicodeEncodeError):
            encode_str_stream(["\ud800"])


# ---------------------------------------------------------------------------
# whole LogBlocks

TEXT_SCHEMA = TableSchema(
    name="text",
    columns=(
        ColumnSpec("ts", ColumnType.TIMESTAMP),
        ColumnSpec("tag", ColumnType.STRING, IndexType.INVERTED),
        ColumnSpec("msg", ColumnType.STRING, IndexType.INVERTED, tokenize=True),
    ),
)


def pack_both_modes(schema, rows, block_rows=32):
    """codec="none" keeps every index member equal to ``to_bytes``."""
    packs = {}
    for vectorized in (True, False):
        writer = LogBlockWriter(
            schema, codec="none", block_rows=block_rows, vectorized=vectorized
        )
        if vectorized:
            writer.append_many(rows)
        else:
            for row in rows:
                writer.append(row)
        packs[vectorized] = unpack_members(writer.finish())
    return packs


def assert_members_identical(schema, rows, block_rows=32):
    packs = pack_both_modes(schema, rows, block_rows)
    assert packs[True] == packs[False]
    for col in schema.columns:
        if col.index is IndexType.INVERTED:
            values = [row.get(col.name) for row in rows]
            for members in packs.values():
                assert members[index_member(col.name)] == reference_bytes(values, col.tokenize)


class TestLogBlockIdentity:
    def test_request_log(self):
        rows = make_rows(700, seed=11)
        for i, row in enumerate(rows):
            if i % 9 == 0:
                row["log"] = None
            if i % 7 == 0:
                row["ip"] = None
        assert_members_identical(request_log_schema(), rows, block_rows=128)

    def test_awkward_text(self):
        texts = [v for case in CASES.values() for v in case]
        rows = [
            {"ts": i, "tag": text, "msg": text}
            for i, text in enumerate(texts)
        ]
        assert_members_identical(TEXT_SCHEMA, rows)

    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {"ts": st.integers(0, 2**40), "tag": value_strategy, "msg": value_strategy}
            ),
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hypothesis(self, rows):
        assert_members_identical(TEXT_SCHEMA, rows)


def test_postings_are_flat_slices():
    builder = InvertedIndexBuilder(tokenize=False)
    builder.add_many(0, ["b", "a", "b", None, "a", "c"])
    index = builder.build()
    assert index.terms() == ["a", "b", "c"]
    assert index.lookup("a").tolist() == [1, 4]
    assert index.lookup("b").tolist() == [0, 2]
    assert index.lookup("zz").dtype == np.int64 and index.lookup("zz").size == 0
