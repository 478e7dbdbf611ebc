"""Bit-exact label encoding: bitstrings, varints, section framing, term codec.

Labels are bitstrings built MSB-first.  A label is a sequence of sections,
each framed as (8-bit type, varint payload length in bits, payload), so a
decoder can walk arbitrary input without trusting it.  A varint is 8-bit
groups, the low 7 bits of the value first, the high bit set on all but the
last; a last group of 0 after another is refused, so each value has one
wire form.
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
        """Pack as bytes: the bit count as a varint, then the payload
        zero-padded to a byte."""
        w = BitWriter()
        w.write_varint(self.nbits)
        pad = -self.nbits % 8
        w.write_uint(self.value << pad, self.nbits + pad)
        out = w.getvalue()
        return out.value.to_bytes(out.nbits // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        """The inverse of to_bytes, which gives each bitstring one byte
        form: a non-minimal bit count, a set padding bit and bytes after
        the payload are refused."""
        r = BitReader(cls(int.from_bytes(data, "big"), 8 * len(data)))
        nbits = r.read_varint()
        pad = r.remaining() - nbits  # the count ends on a byte boundary
        if pad < 0:
            raise DecodeError("truncated bitstring")
        if pad >= 8:
            raise DecodeError("bytes after the bitstring")
        value = r.read_uint(nbits + pad)
        if value & ((1 << pad) - 1):
            raise DecodeError("padding bits set")
        return cls(value >> pad, nbits)

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_hex(cls, text: str) -> "Bits":
        try:
            data = bytes.fromhex(text)
        except ValueError as exc:
            raise DecodeError("bad hex: %s" % exc) from None
        return cls.from_bytes(data)


_new = object.__new__


def _slice(value: int, nbits: int) -> Bits:
    """Bits(value, nbits) without the check that value fits: for slices a
    reader cuts, which are masked to nbits bits, so the check cannot fail."""
    out = _new(Bits)
    out.value = value
    out.nbits = nbits
    return out


# A BitWriter gathers its newest bits in one int and moves them to its list
# of chunks once that int passes this many bits, checked where long runs
# are written (write_bits).  Appending to one ever growing int copies it
# each time, which makes a long bitstring quadratic.
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
                if not b:
                    # A last group of 0 would give v a second wire form.
                    raise DecodeError("non-minimal varint")
                return v
            shift += 7

    def read_bits(self, width: int) -> Bits:
        return _slice(self.read_uint(width), width)


def write_section(w: BitWriter, sec_type: int, payload: Bits) -> None:
    w.write_uint(sec_type, 8)
    w.write_varint(payload.nbits)
    w.write_bits(payload)


def write_sections(secs: List[Tuple[int, Bits]]) -> Bits:
    """The bits of (type, payload) frames: the inverse of read_sections."""
    w = BitWriter()
    for sec_type, payload in secs:
        write_section(w, sec_type, payload)
    return w.getvalue()


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
                if not byte and shift:
                    raise DecodeError("non-minimal varint")
                break
            shift += 7
        pos += n
        if pos > end:
            raise DecodeError("read past end of bitstring")
        out.append((stype, _slice(value >> (end - pos) & ((1 << n) - 1), n)))
    return out


# A "term" is a non-negative int or a flat tuple of non-negative ints.
# Canonical class states are terms, so one codec serves every property
# plugin.  An int is written as tag bit 0 and a varint.  A tuple is tag bit 1,
# varints for its count c and width w (the widest entry's bit length, 0 when
# every entry is 0), then its entries as one packed field of c * w bits, so a
# long term is one read.  Only the minimal width is read back, so each term
# has one wire form.  A tuple may list no more entries than its bitstring has
# bits: zero-width entries cost nothing on the wire.
Term = Union[int, Tuple[int, ...]]

# _pack and _split halve a tuple until its part fits in a few machine words,
# so a long packed field costs O(bits * log count), not one shift of the
# whole field per entry.
_LEAF_ENTRIES = 64


def _pack(t: Tuple[int, ...], width: int) -> int:
    c = len(t)
    if c <= _LEAF_ENTRIES:
        v = 0
        for e in t:
            v = v << width | e
        return v
    h = c // 2
    return _pack(t[:h], width) << (c - h) * width | _pack(t[h:], width)


def _split(v: int, c: int, width: int) -> List[int]:
    if c <= _LEAF_ENTRIES:
        low = (1 << width) - 1
        return [v >> s & low for s in range((c - 1) * width, -1, -width)]
    h = c // 2
    shift = (c - h) * width
    return _split(v >> shift, h, width) + _split(v & ((1 << shift) - 1), c - h, width)


def write_term(w: BitWriter, t: Term) -> None:
    if isinstance(t, int):
        w.write_bit(0)
        w.write_varint(t)
        return
    if not isinstance(t, tuple) or not all(isinstance(e, int) and e >= 0 for e in t):
        raise ValueError("term must be an int or a tuple of non-negative ints")
    width = max(t, default=0).bit_length()
    w.write_bit(1)
    w.write_varint(len(t))
    w.write_varint(width)
    w.write_uint(_pack(t, width), len(t) * width)


def read_term(r: BitReader) -> Term:
    if r.read_bit() == 0:
        return r.read_varint()
    c = r.read_varint()
    width = r.read_varint()
    if c > r.bits.nbits or c * width > r.remaining():
        raise DecodeError("term length exceeds data")
    if not (c and width):
        if width:
            raise DecodeError("an empty tuple has width 0")
        return (0,) * c
    t = _split(r.read_uint(c * width), c, width)
    if max(t) >> (width - 1) != 1:
        raise DecodeError("term width is not its widest entry's")
    return tuple(t)
