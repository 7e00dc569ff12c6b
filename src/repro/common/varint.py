"""LEB128 variable-length integers.

LogBlock column blocks store row counts, offsets and deltas as varints to
keep the metadata sections compact, mirroring what ORC/Parquet-style
formats (and the paper's LogBlock) do.
"""

from __future__ import annotations

from repro.common.errors import SerializationError

_MAX_VARINT_BYTES = 10  # enough for any unsigned 64-bit value


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128 bytes."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an unsigned LEB128 integer.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past
    the varint.
    """
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise SerializationError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise SerializationError("uvarint longer than 10 bytes")
