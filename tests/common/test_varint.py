"""Varint encoding tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.varint import decode_uvarint, encode_uvarint


class TestUvarint:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"
        assert decode_uvarint(b"\x00") == (0, 1)

    def test_single_byte_boundary(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_known_value(self):
        # 300 = 0b100101100 → LEB128 [0xAC, 0x02]
        assert encode_uvarint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        data = encode_uvarint(1 << 40)
        with pytest.raises(SerializationError):
            decode_uvarint(data[:-1])

    def test_overlong_raises(self):
        with pytest.raises(SerializationError):
            decode_uvarint(b"\x80" * 11)

    def test_offset_decoding(self):
        data = b"junk" + encode_uvarint(42)
        value, pos = decode_uvarint(data, offset=4)
        assert value == 42
        assert pos == len(data)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, pos = decode_uvarint(encoded)
        assert decoded == value
        assert pos == len(encoded)
