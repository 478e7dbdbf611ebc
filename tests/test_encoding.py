import random

import pytest

from lanecert.encoding import (
    BitReader,
    Bits,
    BitWriter,
    DecodeError,
    read_sections,
    read_term,
    write_section,
    write_sections,
    write_term,
)


def test_bits_roundtrip_hex():
    rng = random.Random(0)
    for _ in range(200):
        nbits = rng.randrange(0, 100)
        value = rng.getrandbits(nbits) if nbits else 0
        b = Bits(value, nbits)
        assert Bits.from_hex(b.to_hex()) == b


@pytest.mark.parametrize(
    "text", ["8300a0", "03bf", "03a0ff", "0001", "0080", "", "80", "0a00", "80" * 10 + "01"]
)
def test_bits_have_one_byte_form(text):
    # 03a0 is Bits(0b101, 3); a non-minimal bit count (83 00), a set
    # padding bit (bf), and a byte after the payload (ff) are other forms of
    # it, and 00 is the empty bitstring.  No count (""), a count cut short
    # (80), a payload cut short (0a00) and a count of 11 varint groups are
    # no form at all.
    assert Bits.from_hex("03a0") == Bits(0b101, 3)
    assert Bits.from_hex("00") == Bits()
    # A count of 128 bits or more takes two varint groups.
    assert Bits.from_hex("8001" + "00" * 15 + "01") == Bits(1, 128)
    for nbits in (127, 128, 300, 20000):
        b = Bits((1 << nbits) - 3, nbits)
        assert Bits.from_bytes(b.to_bytes()) == b
    with pytest.raises(DecodeError):
        Bits.from_hex(text)


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
    # Long enough for the writer's chunks (4096 bits each): fields straddle
    # their ends, and some are wider than one.
    rng = random.Random(2)
    for _ in range(3):
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
        r = BitReader(bits)
        for v, width in fields:
            if width > 64:
                assert r.read_bits(width) == Bits(v, width)
            else:
                assert r.read_uint(width) == v
        assert r.remaining() == 0
        with pytest.raises(DecodeError):
            r.read_uint(1)
    # A long term after a short field reads back equal and leaves the
    # reader after it.
    term = tuple(range(5, 3000 * 37, 37))
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


@pytest.mark.parametrize("value,nbits", [(2, 1), (1, 0), (-1, 4), (0, -1), (1 << 70, 70)])
def test_bits_refuse_a_value_that_does_not_fit(value, nbits):
    # Readers cut their slices without this check (they mask them to fit);
    # the public constructor keeps it, also under python -O.
    with pytest.raises(ValueError):
        Bits(value, nbits)


def test_reader_slices_equal_checked_bits():
    rng = random.Random(2)
    for _ in range(200):
        nbits = rng.randrange(0, 120)
        whole = Bits(rng.getrandbits(nbits) if nbits else 0, nbits)
        r = BitReader(whole)
        cut = rng.randrange(0, nbits + 1)
        head, tail = r.read_bits(cut), r.read_bits(r.remaining())
        assert head == Bits(whole.value >> (nbits - cut), cut)
        assert tail == Bits(whole.value & ((1 << (nbits - cut)) - 1), nbits - cut)
        assert hash(head) == hash(Bits(head.value, head.nbits))
    w = BitWriter()
    write_section(w, 5, Bits(0b110, 3))
    ((stype, payload),) = read_sections(w.getvalue())
    assert (stype, payload) == (5, Bits(0b110, 3)) and type(payload) is Bits


def test_sections_roundtrip():
    w = BitWriter()
    p1 = Bits(0b1011, 4)
    p2 = Bits(0, 0)
    write_section(w, 3, p1)
    write_section(w, 7, p2)
    assert read_sections(w.getvalue()) == [(3, p1), (7, p2)]
    assert write_sections([(3, p1), (7, p2)]) == w.getvalue()


def test_sections_garbage_rejected():
    with pytest.raises(DecodeError):
        read_sections(Bits(0b10101, 5))


def _term_bits(t) -> Bits:
    w = BitWriter()
    write_term(w, t)
    return w.getvalue()


def _varint(v) -> Bits:
    w = BitWriter()
    w.write_varint(v)
    return w.getvalue()


def _packed(count, width, field, field_bits) -> Bits:
    """A tuple term's wire form with its count, width and packed field
    given as they are, consistent or not."""
    w = BitWriter()
    w.write_bit(1)
    w.write_varint(count)
    w.write_varint(width)
    w.write_uint(field, field_bits)
    return w.getvalue()


def test_term_codec():
    rng = random.Random(2)

    def rand_term():
        if rng.random() < 0.3:
            return rng.randrange(0, 1000)
        width = rng.choice([0, 1, 3, 8, 18, 40])
        return tuple(rng.getrandbits(width) if width else 0 for _ in range(rng.randrange(0, 12)))

    for _ in range(300):
        t = rand_term()
        r = BitReader(_term_bits(t))
        assert read_term(r) == t
        assert r.remaining() == 0


@pytest.mark.parametrize(
    "term",
    [(), (0,), (0, 0, 0, 0), (1,), (0, 1, 0), (1 << 70, 3), tuple(range(200)),
     tuple(sorted({(i * 7919) % (1 << 18) for i in range(9000)}))],
)
def test_packed_term_roundtrip(term):
    # Empty and all-zero tuples (width 0), single bits, wide masks, and a
    # term long enough for several halvings of the packed field, each
    # after a short field and followed by one.
    bits = _term_bits(term)
    width = max(term, default=0).bit_length()
    assert bits.nbits == 1 + len(_varint(len(term))) + len(_varint(width)) + len(term) * width
    w = BitWriter()
    w.write_uint(5, 3)
    write_term(w, term)
    write_term(w, 9)
    r = BitReader(w.getvalue())
    assert r.read_uint(3) == 5
    assert read_term(r) == term and read_term(r) == 9 and r.remaining() == 0


def test_packed_term_one_wire_form():
    # The same entries under a wider width than the widest entry's, or a
    # zero-entry tuple with a width, are refused.
    assert read_term(BitReader(_packed(2, 2, 0b1011, 4))) == (2, 3)
    for bits in (
        _packed(2, 3, 0b010011, 6),  # (2, 3) at width 3
        _packed(2, 1, 0b00, 2),  # (0, 0) at width 1
        _packed(0, 4, 0, 0),
        _packed(3, 64, 5, 3 * 64),
    ):
        with pytest.raises(DecodeError):
            read_term(BitReader(bits))


def test_packed_term_past_the_end_is_refused():
    full = _packed(3, 4, 0xABC, 12)
    assert read_term(BitReader(full)) == (0xA, 0xB, 0xC)
    with pytest.raises(DecodeError):
        read_term(BitReader(Bits(full.value >> 1, full.nbits - 1)))
    # A count or width that only a long varint can hold.
    for count, width in ((1 << 62, 1), (1, 1 << 62), (1 << 62, 1 << 62)):
        with pytest.raises(DecodeError):
            read_term(BitReader(_packed(count, width, 0, 0)))
    # Zero-width entries cost no bits; no tuple lists more entries than its
    # bitstring has bits.
    assert read_term(BitReader(_packed(17, 0, 0, 0))) == (0,) * 17
    with pytest.raises(DecodeError):
        read_term(BitReader(_packed(18, 0, 0, 0)))
    with pytest.raises(DecodeError):
        read_term(BitReader(_packed(1 << 62, 0, 0, 0)))


@pytest.mark.parametrize("term", [((0,),), (1, (2,)), (-1,), (0, -5), -1, "x", (1.0,), [1]])
def test_write_term_refuses_nested_and_negative(term):
    with pytest.raises(ValueError):
        write_term(BitWriter(), term)


def test_non_minimal_varints_are_refused():
    # 0x85 0x00 would be a second wire form of 5; a first byte of 0 is the
    # value 0 itself.
    assert BitReader(Bits(0, 8)).read_varint() == 0
    assert BitReader(Bits(0x8501, 16)).read_varint() == 5 + (1 << 7)
    for value, nbits in ((0x8500, 16), (0x858000, 24)):
        with pytest.raises(DecodeError):
            BitReader(Bits(value, nbits)).read_varint()
    # The same in a section's payload length.
    w = BitWriter()
    w.write_uint(3, 8)
    w.write_uint(0x8100, 16)  # length 1, non-minimal
    w.write_uint(1, 1)
    with pytest.raises(DecodeError):
        read_sections(w.getvalue())
    w = BitWriter()
    w.write_uint(3, 8)
    w.write_uint(0x01, 8)
    w.write_uint(1, 1)
    assert read_sections(w.getvalue()) == [(3, Bits(1, 1))]
