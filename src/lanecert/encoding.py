"""Bit-exact label encoding: bitstrings, varints, section framing, term codec.

Labels are bitstrings built MSB-first.  A label is a sequence of sections,
each framed as (8-bit type, varint payload length in bits, payload), so a
decoder can walk arbitrary input without trusting it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union


class DecodeError(ValueError):
    """Raised when a bitstring cannot be decoded as the expected structure."""


class Bits:
    """Immutable bitstring, stored as (integer value, bit count), MSB-first."""

    __slots__ = ("value", "nbits")

    def __init__(self, value: int = 0, nbits: int = 0):
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError("value does not fit in nbits")
        self.value = value
        self.nbits = nbits

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bits)
            and self.nbits == other.nbits
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.nbits))

    def __repr__(self) -> str:
        return "Bits(%d bits)" % self.nbits

    def to_bytes(self) -> bytes:
        """Pack as bytes: LEB128 bit count, then payload padded to a byte."""
        head = _leb128(self.nbits)
        nbytes = (self.nbits + 7) // 8
        pad = nbytes * 8 - self.nbits
        return head + (self.value << pad).to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        nbits, off = _read_leb128(data, 0)
        nbytes = (nbits + 7) // 8
        if len(data) - off < nbytes:
            raise DecodeError("truncated bitstring")
        pad = nbytes * 8 - nbits
        value = int.from_bytes(data[off : off + nbytes], "big") >> pad
        return cls(value, nbits)

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_hex(cls, text: str) -> "Bits":
        try:
            data = bytes.fromhex(text)
        except ValueError as exc:
            raise DecodeError("bad hex: %s" % exc) from None
        return cls.from_bytes(data)


def _leb128(v: int) -> bytes:
    out = bytearray()
    while v >= 0x80:
        out.append(0x80 | (v & 0x7F))
        v >>= 7
    out.append(v)
    return bytes(out)


def _read_leb128(data: bytes, off: int) -> Tuple[int, int]:
    v = 0
    shift = 0
    while True:
        if off >= len(data) or shift > 63:
            raise DecodeError("truncated varint")
        b = data[off]
        off += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, off
        shift += 7


# A BitWriter gathers its newest bits in one int and moves them to its list
# of chunks once that int passes this many bits, checked where long runs
# are written (write_bits, write_term).  Appending to one ever growing int
# copies it each time, which makes a long bitstring quadratic.
_CHUNK_BITS = 1 << 12


class BitWriter:
    """Accumulates bits MSB-first."""

    __slots__ = ("value", "nbits", "chunks")

    def __init__(self):
        self.value = 0
        self.nbits = 0  # bits in value, the part not yet in chunks
        # (value, nbits) of the full chunks, oldest first; None until the
        # first, so short bitstrings never build the list.
        self.chunks: Optional[List[Tuple[int, int]]] = None

    def write_uint(self, v: int, width: int) -> None:
        if v < 0 or width < 0 or v >> width:
            raise ValueError("uint %d does not fit in %d bits" % (v, width))
        self.value = (self.value << width) | v
        self.nbits += width

    def _flush(self) -> None:
        if self.chunks is None:
            self.chunks = []
        self.chunks.append((self.value, self.nbits))
        self.value = 0
        self.nbits = 0

    def write_bit(self, b: int) -> None:
        self.write_uint(1 if b else 0, 1)

    def write_varint(self, v: int) -> None:
        # 8-bit groups, low 7 bits of the value first, high bit = continue.
        if v < 0:
            raise ValueError("varint must be non-negative")
        groups = nb = 0
        while v >= 0x80:
            groups = (groups << 8) | 0x80 | (v & 0x7F)
            nb += 8
            v >>= 7
        self.value = (self.value << (nb + 8)) | (groups << 8) | v
        self.nbits += nb + 8

    def write_bits(self, bits: Bits) -> None:
        self.value = (self.value << bits.nbits) | bits.value
        self.nbits += bits.nbits
        if self.nbits > _CHUNK_BITS:
            self._flush()

    def getvalue(self) -> Bits:
        if self.chunks is None:
            return Bits(self.value, self.nbits)
        # Join neighbouring chunks pairwise, so each bit is copied
        # O(log chunks) times.
        parts = self.chunks + [(self.value, self.nbits)]
        while len(parts) > 1:
            joined = [
                ((a << nb) | b, na + nb)
                for (a, na), (b, nb) in zip(parts[::2], parts[1::2])
            ]
            if len(parts) % 2:
                joined.append(parts[-1])
            parts = joined
        return Bits(*parts[0])


class BitReader:
    """Sequential reader over a Bits value; raises DecodeError on overrun."""

    __slots__ = ("bits", "pos", "_value", "_end")

    def __init__(self, bits: Bits):
        self.bits = bits
        self.pos = 0
        self._value = bits.value
        self._end = bits.nbits

    def remaining(self) -> int:
        return self._end - self.pos

    def read_uint(self, width: int) -> int:
        pos = self.pos + width
        if width < 0 or pos > self._end:
            raise DecodeError("read past end of bitstring")
        self.pos = pos
        return (self._value >> (self._end - pos)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_varint(self) -> int:
        b = self.read_uint(8)
        if not b & 0x80:
            return b  # the usual case: one byte
        v = b & 0x7F
        shift = 7
        while True:
            if shift > 63:
                raise DecodeError("varint too long")
            b = self.read_uint(8)
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v
            shift += 7

    def read_bits(self, width: int) -> Bits:
        return Bits(self.read_uint(width), width)


# A read shifts the whole bitstring's int, so reading many short fields from
# a long bitstring is quadratic.  A long term is read through a
# _WindowReader instead, from windows of this many bits.
_WINDOW_BITS = 1 << 12


class _WindowReader(BitReader):
    """A BitReader from pos on that reads from windows cut from the
    bitstring's bytes.  Cutting a window costs more than one shift, so
    readers of a few long fields stay plain BitReaders."""

    __slots__ = ("_win", "_wend", "_data")

    def __init__(self, bits: Bits, pos: int):
        super().__init__(bits)
        self.pos = pos
        self._data = bits.value.to_bytes((bits.nbits + 7) // 8, "big")
        self._load(0)

    def _load(self, width: int) -> None:
        """Cut a window from pos that holds at least width bits: _win holds
        the bitstring's bits up to position _wend, least significant last
        (bits before pos may be missing)."""
        n = self._end
        end = min(n, self.pos + max(_WINDOW_BITS, width))
        pad = -n % 8
        b1 = (pad + end + 7) // 8
        chunk = int.from_bytes(self._data[(pad + self.pos) // 8 : b1], "big")
        self._win = chunk >> (8 * b1 - pad - end)
        self._wend = end

    def read_uint(self, width: int) -> int:
        if width < 0 or self.pos + width > self._end:
            raise DecodeError("read past end of bitstring")
        if self.pos + width > self._wend:
            self._load(width)
        shift = self._wend - self.pos - width
        self.pos += width
        return (self._win >> shift) & ((1 << width) - 1)


def write_section(w: BitWriter, sec_type: int, payload: Bits) -> None:
    w.write_uint(sec_type, 8)
    w.write_varint(payload.nbits)
    w.write_bits(payload)


def read_sections(bits: Bits) -> List[Tuple[int, Bits]]:
    """Split a label into (type, payload) frames; DecodeError on bad framing.
    The frame fields are cut from the label's int here: a label is split
    once per decode, and a reader's calls would cost more than the cuts."""
    value, end = bits.value, bits.nbits
    out = []
    pos = 0
    while pos < end:
        pos += 8
        if pos > end:
            raise DecodeError("read past end of bitstring")
        stype = value >> (end - pos) & 0xFF
        n = shift = 0
        while True:  # the payload length, a varint as BitReader reads it
            if shift > 63:
                raise DecodeError("varint too long")
            pos += 8
            if pos > end:
                raise DecodeError("read past end of bitstring")
            byte = value >> (end - pos) & 0xFF
            n |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        pos += n
        if pos > end:
            raise DecodeError("read past end of bitstring")
        out.append((stype, Bits(value >> (end - pos) & ((1 << n) - 1), n)))
    return out


# A "term" is a non-negative int or a tuple of terms.  Canonical class states
# are terms, so one codec serves every property plugin.
Term = Union[int, Tuple]


def write_term(w: BitWriter, t: Term) -> None:
    if isinstance(t, int):
        w.write_bit(0)
        w.write_varint(t)
    elif isinstance(t, tuple):
        w.write_bit(1)
        w.write_varint(len(t))
        for item in t:
            write_term(w, item)
            if w.nbits > _CHUNK_BITS:
                w._flush()
    else:
        raise ValueError("term must be int or tuple")


def read_term(r: BitReader, depth: int = 0) -> Term:
    if depth > 64:
        raise DecodeError("term nesting too deep")
    if depth == 0 and r.remaining() > _WINDOW_BITS and type(r) is BitReader:
        # A term is read one short field at a time.
        wr = _WindowReader(r.bits, r.pos)
        t = read_term(wr)
        r.pos = wr.pos
        return t
    if r.read_bit() == 0:
        return r.read_varint()
    n = r.read_varint()
    if n > r.remaining():
        raise DecodeError("term length exceeds data")
    return tuple(read_term(r, depth + 1) for _ in range(n))
