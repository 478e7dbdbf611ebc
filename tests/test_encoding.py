import random

import pytest

from lanecert.encoding import (
    BitReader,
    Bits,
    BitWriter,
    DecodeError,
    _WindowReader,
    read_sections,
    read_term,
    write_section,
    write_term,
)


def test_bits_roundtrip_hex():
    rng = random.Random(0)
    for _ in range(200):
        nbits = rng.randrange(0, 100)
        value = rng.getrandbits(nbits) if nbits else 0
        b = Bits(value, nbits)
        assert Bits.from_hex(b.to_hex()) == b


def test_bits_concat():
    w = BitWriter()
    w.write_bits(Bits(0b101, 3))
    w.write_bits(Bits(0b01, 2))
    assert w.getvalue() == Bits(0b10101, 5)


def test_writer_reader_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        fields = []
        w = BitWriter()
        for _ in range(rng.randrange(1, 20)):
            if rng.random() < 0.5:
                width = rng.randrange(1, 33)
                v = rng.getrandbits(width)
                fields.append(("u", v, width))
                w.write_uint(v, width)
            else:
                v = rng.randrange(0, 1 << rng.randrange(1, 40))
                fields.append(("v", v, None))
                w.write_varint(v)
        r = BitReader(w.getvalue())
        for kind, v, width in fields:
            if kind == "u":
                assert r.read_uint(width) == v
            else:
                assert r.read_varint() == v
        assert r.remaining() == 0


def test_long_bitstring_roundtrip():
    # Long enough for the writer's chunks and the reader's windows (4096
    # bits each): fields straddle their ends, and some are wider than one.
    rng = random.Random(2)
    for windows in (False, True, True):
        fields = []
        w = BitWriter()
        value = nbits = 0
        while nbits < 40000:
            width = rng.choice([1, 7, 8, 33, 4095, 4097, 9000])
            v = rng.getrandbits(width)
            fields.append((v, width))
            if width > 64:
                w.write_bits(Bits(v, width))
            else:
                w.write_uint(v, width)
            value, nbits = (value << width) | v, nbits + width
        assert w.getvalue() == Bits(value, nbits)
        bits = Bits(value, nbits)
        r = _WindowReader(bits, 0) if windows else BitReader(bits)
        for v, width in fields:
            if width > 64:
                assert r.read_bits(width) == Bits(v, width)
            else:
                assert r.read_uint(width) == v
        assert r.remaining() == 0
        with pytest.raises(DecodeError):
            r.read_uint(1)
    # A long term after a short field (read_term reads it through a
    # _WindowReader) reads back equal and leaves the reader after it.
    term = tuple(tuple(range(i % 20)) for i in range(3000))
    w = BitWriter()
    w.write_uint(2, 2)
    write_term(w, term)
    w.write_uint(5, 3)
    r = BitReader(w.getvalue())
    assert r.read_uint(2) == 2 and read_term(r) == term
    assert r.read_uint(3) == 5 and r.remaining() == 0
    # Any number of chunks, odd or even, joins to the same bitstring.
    for count in range(9):
        w = BitWriter()
        value = 0
        for i in range(count):
            w.write_bits(Bits(i + 1, 5000))
            value = (value << 5000) | (i + 1)
        w.write_uint(1, 1)
        assert w.getvalue() == Bits((value << 1) | 1, 5000 * count + 1)


def test_reader_overrun():
    r = BitReader(Bits(0b1, 1))
    with pytest.raises(DecodeError):
        r.read_uint(2)


def test_sections_roundtrip():
    w = BitWriter()
    p1 = Bits(0b1011, 4)
    p2 = Bits(0, 0)
    write_section(w, 3, p1)
    write_section(w, 7, p2)
    assert read_sections(w.getvalue()) == [(3, p1), (7, p2)]


def test_sections_garbage_rejected():
    with pytest.raises(DecodeError):
        read_sections(Bits(0b10101, 5))


def test_term_codec():
    rng = random.Random(2)

    def rand_term(depth):
        if depth > 3 or rng.random() < 0.5:
            return rng.randrange(0, 1000)
        return tuple(rand_term(depth + 1) for _ in range(rng.randrange(0, 4)))

    for _ in range(200):
        t = rand_term(0)
        w = BitWriter()
        write_term(w, t)
        r = BitReader(w.getvalue())
        assert read_term(r) == t
        assert r.remaining() == 0
