"""Bit-exact label encoding: bitstrings, integer codes, section framing,
term codec.

Labels are bitstrings built MSB-first.  A label is a sequence of sections,
each framed as (2-bit type, payload length in bits, payload), so a decoder
can walk arbitrary input without trusting it.  Every integer on the wire
is one of three codes that give small values few bits (Elias, IEEE Trans.
Inf. Theory 21(2), 1975):

- gamma: v is written as the Elias-gamma code of v + 1, that is z zeros
  and then the z + 1 bits of v + 1, whose top bit is 1; 0 is the one bit
  1.  A code with a zero run longer than 63 bits is refused.
- signed gamma: an int s as the gamma code of its zigzag form (2s for
  s >= 0, -2s - 1 below 0), so 0 costs 1 bit and -1 and 1 cost 3.
- Exp-Golomb of order k: v as z zeros and then the z + k + 1 bits of
  v + 2**k (gamma is order 0 of v), so values below 2**k cost k + 1 bits.

Each code gives each value one wire form: the zero run fixes the length
and the top bit of what follows it is 1.  Every bit length on the wire (a
section's payload, a bitstring's byte form, and in ``certify`` and
``graph`` a table group and a stored edge label) is an Exp-Golomb code of
order LENGTH_ORDER, so lengths below 128 cost 8 bits.
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
        """Pack as bytes: the bit count's length code, then the payload,
        zero-padded to a byte."""
        w = BitWriter()
        w.write_expgolomb(self.nbits, LENGTH_ORDER)
        pad = -(w.nbits + self.nbits) % 8
        w.write_uint(self.value << pad, self.nbits + pad)
        out = w.getvalue()
        return out.value.to_bytes(out.nbits // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        """The inverse of to_bytes, which gives each bitstring one byte
        form: a set padding bit and bytes after the payload are refused."""
        r = BitReader(cls(int.from_bytes(data, "big"), 8 * len(data)))
        nbits = r.read_expgolomb(LENGTH_ORDER)
        pad = r.remaining() - nbits
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


# The longest zero run an Exp-Golomb code may open with, so a gamma code
# holds at most 64 bits of value.
_MAX_ZEROS = 63

# The Exp-Golomb order of every bit length on the wire.  Of orders 3 to 9,
# 7 gives the smallest labels on both a cycle and a wide random-ops
# instance.
LENGTH_ORDER = 7
_LENGTH_BASE = 1 << LENGTH_ORDER
# read_sections' window: a frame's 2 type bits and 64 bits of its length
# code.
_WINDOW = (1 << 66) - 1
_CODE_WINDOW = (1 << 64) - 1

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

    def write_expgolomb(self, v: int, k: int) -> None:
        """The Exp-Golomb code of order k of v >= 0: v + 2**k in twice its
        bit length less k + 1 bits, so its top bit follows a zero run."""
        x = v + (1 << k)
        size = 2 * x.bit_length() - k - 1
        if v < 0 or size - x.bit_length() > _MAX_ZEROS:
            raise ValueError("%d has no Exp-Golomb code of order %d" % (v, k))
        self.value = (self.value << size) | x
        self.nbits += size

    def write_gamma(self, v: int) -> None:
        """The Elias-gamma code of v + 1, for v >= 0: one bit for 0.  It is
        write_expgolomb(v, 0) without the second call, as gamma codes are
        most of a label's fields."""
        x = v + 1
        size = 2 * x.bit_length() - 1
        if v < 0 or size > 2 * _MAX_ZEROS + 1:
            raise ValueError("%d has no gamma code" % v)
        self.value = (self.value << size) | x
        self.nbits += size

    def write_signed(self, s: int) -> None:
        """The gamma code of s's zigzag form: 2s for s >= 0, -2s - 1 below."""
        self.write_gamma(s << 1 if s >= 0 else ~s << 1 | 1)

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

    def read_expgolomb(self, k: int) -> int:
        """The inverse of write_expgolomb; DecodeError for a code that the
        end of the bitstring cuts off or whose zero run is longer than 63
        bits.  The zero run is found in a window of the next 64 bits."""
        left = self._end - self.pos
        width = left if left < 64 else 64
        win = self._value >> (left - width) & ((1 << width) - 1)
        if not win:
            raise DecodeError("gamma zero run longer than 63 bits" if width == 64 else "read past end of bitstring")
        size = 2 * width - 2 * win.bit_length() + k + 1  # the zero run twice, then k + 1
        if size <= width:
            self.pos += size
            return (win >> (width - size)) - (1 << k)
        return self.read_uint(size) - (1 << k)

    def read_gamma(self) -> int:
        """The inverse of write_gamma; DecodeError as read_expgolomb gives
        it.  A leading 1, the code of 0, is read as one bit."""
        pos = self.pos + 1
        if pos <= self._end and self._value >> (self._end - pos) & 1:
            self.pos = pos
            return 0
        return self.read_expgolomb(0)

    def read_signed(self) -> int:
        """The inverse of write_signed."""
        z = self.read_gamma()
        return z >> 1 if not z & 1 else ~(z >> 1)

    def read_bits(self, width: int) -> Bits:
        return _slice(self.read_uint(width), width)


def write_section(w: BitWriter, sec_type: int, payload: Bits) -> None:
    """Frame payload onto w: its 2-bit type, its bit length's code, then its
    bits, in one append (write_uint, write_expgolomb and write_bits would
    make three)."""
    if sec_type >> 2:  # also below 0
        raise ValueError("section type %d does not fit in 2 bits" % sec_type)
    n = payload.nbits
    x = n + _LENGTH_BASE
    size = 2 * x.bit_length() - LENGTH_ORDER - 1
    w.value = ((w.value << 2 | sec_type) << size | x) << n | payload.value
    w.nbits += 2 + size + n
    if w.nbits > _CHUNK_BITS:
        w._flush()


def write_sections(secs: List[Tuple[int, Bits]]) -> Bits:
    """The bits of (type, payload) frames: the inverse of read_sections."""
    w = BitWriter()
    for sec_type, payload in secs:
        write_section(w, sec_type, payload)
    return w.getvalue()


def read_sections(bits: Bits) -> List[Tuple[int, Bits]]:
    """Split a label into (type, payload) frames; DecodeError on bad framing.
    The frame fields are cut from the label's int here: a label is split
    once per decode, and a reader's calls would cost more than the cuts.
    A frame's type and length code are read from a window of its first 66
    bits, zero-filled past the end of the label, so a code that the end
    cuts off runs the frame past it.  A length code longer than the window
    holds a length of 2**36 bits or more, whose payload too runs past the
    end of any bitstring."""
    value, end = bits.value, bits.nbits
    out = []
    pos = 0
    while pos < end:
        left = end - pos
        win = (value >> (left - 66) if left >= 66 else value << (66 - left)) & _WINDOW
        code = win & _CODE_WINDOW  # the 64 bits after the 2 type bits
        # A length code is its zero run twice and LENGTH_ORDER + 1 more bits.
        size = 2 * (64 - code.bit_length()) + LENGTH_ORDER + 1
        if size > 64:
            raise DecodeError("read past end of bitstring")
        n = (code >> (64 - size)) - _LENGTH_BASE
        pos += 2 + size + n
        if pos > end:
            raise DecodeError("read past end of bitstring")
        out.append((win >> 64, _slice(value >> (end - pos) & ((1 << n) - 1), n)))
    return out


# A "term" is a non-negative int or a flat tuple of non-negative ints.
# Canonical class states are terms, so one codec serves every property
# plugin.  An int is written as tag bit 0 and its gamma code.  A tuple is
# tag bit 1, gamma codes of its count c and width w (the widest entry's bit
# length, 0 when every entry is 0), then its entries as one packed field of
# c * w bits, so a long term is one read.  Only the minimal width is read
# back, so each term has one wire form.  Zero-width entries cost nothing on
# the wire, so a tuple may list at most _ZERO_ENTRIES_PER_BIT entries per
# bit of its bitstring: reading a term costs memory in proportion to the
# bits read.
Term = Union[int, Tuple[int, ...]]

# _pack and _split halve a tuple until its part fits in a few machine words,
# so a long packed field costs O(bits * log count), not one shift of the
# whole field per entry.
_LEAF_ENTRIES = 64

# A lone all-zero tuple of c entries takes 2 * floor(log2(c + 1)) + 3 bits,
# so at 16 entries per bit every count up to 304 reads back, more than the
# 2 * f(4) = 220 lanes of a k = 4 class term.
_ZERO_ENTRIES_PER_BIT = 16


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
        w.write_gamma(t)
        return
    if not isinstance(t, tuple) or not all(isinstance(e, int) and e >= 0 for e in t):
        raise ValueError("term must be an int or a tuple of non-negative ints")
    width = max(t, default=0).bit_length()
    w.write_bit(1)
    w.write_gamma(len(t))
    w.write_gamma(width)
    w.write_uint(_pack(t, width), len(t) * width)


def read_term(r: BitReader) -> Term:
    if r.read_bit() == 0:
        return r.read_gamma()
    c = r.read_gamma()
    width = r.read_gamma()
    if c > _ZERO_ENTRIES_PER_BIT * r.bits.nbits or c * width > r.remaining():
        raise DecodeError("term length exceeds data")
    if not (c and width):
        if width:
            raise DecodeError("an empty tuple has width 0")
        return (0,) * c
    t = _split(r.read_uint(c * width), c, width)
    if max(t) >> (width - 1) != 1:
        raise DecodeError("term width is not its widest entry's")
    return tuple(t)
