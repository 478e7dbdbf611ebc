import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lanecert.lanes import lane_bounds


def test_bits_roundtrip_hex():
    rng = random.Random(0)
    for _ in range(200):
        nbits = rng.randrange(0, 100)
        value = rng.getrandbits(nbits) if nbits else 0
        b = Bits(value, nbits)
        assert Bits.from_hex(b.to_hex()) == b


@pytest.mark.parametrize(
    "text",
    ["83bf", "83a0ff", "8000", "8300a0", "80" * 10 + "01", "", "00", "03bf", "0001", "0080", "0100",
     "83", "03a0ff", "0a00", "00" * 8 + "ff"],
)
def test_bits_have_one_byte_form(text):
    # 83a0 is Bits(0b101, 3): the count 3 in the 8-bit length code (83),
    # then 101 and five padding bits; 80 is the empty bitstring.  A set
    # padding bit (83bf) and bytes after the payload (83a0ff, 8000, 8300a0,
    # 8080...01) are other forms of them.  No count (""), a count cut
    # short (00, 03bf, 0001, 0080, 0100), a payload cut short (83, 03a0ff,
    # 0a00) and a count whose zero run is 64 bits long are no form at all.
    assert Bits.from_hex("83a0") == Bits(0b101, 3)
    assert Bits.from_hex("80") == Bits()
    # A count of 128 bits or more takes a 10-bit code, so the payload
    # starts inside the second byte.
    assert Bits.from_hex("40" + "00" * 16 + "40") == Bits(1, 128)
    for nbits in (119, 120, 121, 127, 128, 300, 20000):
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
                fields.append(("g", v, None))
                w.write_gamma(v)
        r = BitReader(w.getvalue())
        for kind, v, width in fields:
            if kind == "u":
                assert r.read_uint(width) == v
            else:
                assert r.read_gamma() == v
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


# The three integer codes, as (write, read) with the Exp-Golomb order drawn.
_CODES = {
    "gamma": (lambda w, v, k: w.write_gamma(v), lambda r, k: r.read_gamma()),
    "signed": (lambda w, v, k: w.write_signed(v), lambda r, k: r.read_signed()),
    "expgolomb": (lambda w, v, k: w.write_expgolomb(v, k), lambda r, k: r.read_expgolomb(k)),
}
_TOP = (1 << 63) - 1


def _code_values(code):
    return st.integers(-_TOP, _TOP) if code == "signed" else st.integers(0, _TOP)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), code=st.sampled_from(sorted(_CODES)), k=st.integers(0, 24),
       before=st.integers(0, 70), after=st.integers(0, 70))
def test_codes_round_trip(data, code, k, before, after):
    # Each code of any value up to 2^63 - 1 (signed: of either sign) reads
    # back from between two fields of other bits, leaving the reader just
    # after it; gamma and Exp-Golomb take 2 * bitlen(v + 2^k) - k - 1 bits.
    write, read = _CODES[code]
    v = data.draw(_code_values(code))
    w = BitWriter()
    w.write_uint((1 << before) - 1, before)
    write(w, v, k)
    w.write_uint((1 << after) - 1, after)
    bits = w.getvalue()
    r = BitReader(bits)
    r.read_uint(before)
    assert read(r, k) == v and r.remaining() == after
    if code != "signed":
        k = k if code == "expgolomb" else 0
        assert bits.nbits - before - after == 2 * (v + (1 << k)).bit_length() - k - 1


@settings(max_examples=400, deadline=None)
@given(code=st.sampled_from(sorted(_CODES)), k=st.integers(0, 24),
       nbits=st.integers(0, 200), data=st.data())
def test_codes_have_one_wire_form(code, k, nbits, data):
    # Any bitstring reads as a code or raises DecodeError, and the code
    # read writes back as exactly the bits it was read from.
    bits = Bits(data.draw(st.integers(0, (1 << nbits) - 1)), nbits)
    write, read = _CODES[code]
    r = BitReader(bits)
    try:
        v = read(r, k)
    except DecodeError:
        return
    w = BitWriter()
    write(w, v, k)
    assert w.getvalue() == Bits(bits.value >> r.remaining(), nbits - r.remaining())


def test_small_codes():
    # gamma: 0 is one bit, 1 and 2 three; signed gamma: 0, -1, 1, -2 in
    # zigzag order; Exp-Golomb of order 3: values below 8 take 4 bits.
    def bits_of(write, *args):
        w = BitWriter()
        write(w, *args)
        return w.getvalue()

    assert [bits_of(BitWriter.write_gamma, v) for v in (0, 1, 2, 3)] == [
        Bits(1, 1), Bits(0b010, 3), Bits(0b011, 3), Bits(0b00100, 5)]
    assert [bits_of(BitWriter.write_signed, s) for s in (0, -1, 1, -2)] == [
        Bits(1, 1), Bits(0b010, 3), Bits(0b011, 3), Bits(0b00100, 5)]
    assert [bits_of(BitWriter.write_expgolomb, v, 3) for v in (0, 7, 8)] == [
        Bits(0b1000, 4), Bits(0b1111, 4), Bits(0b010000, 6)]


@pytest.mark.parametrize("code", sorted(_CODES))
def test_codes_refuse_long_zero_runs_and_cut_codes(code):
    # A zero run of 63 bits opens the longest code; one of 64 is refused,
    # and so is a code the end of its bitstring cuts off.  The writers
    # refuse what no code holds: a negative value (but for signed gamma)
    # and one whose code would open with more than 63 zeros.
    write, read = _CODES[code]
    k = 5 if code == "expgolomb" else 0
    longest = Bits(1 << 63 + k, 127 + k)
    r = BitReader(longest)
    read(r, k)
    assert r.remaining() == 0
    with pytest.raises(DecodeError, match="zero run longer than 63 bits"):
        read(BitReader(Bits(1 << 64 + k, 129 + k)), k)
    for cut in (Bits(0, 0), Bits(0, 5), Bits(longest.value >> 1, longest.nbits - 1), Bits(0b0001, 4)):
        with pytest.raises(DecodeError, match="read past end"):
            read(BitReader(cut), k)
    too_big = {"gamma": (1 << 64) - 1, "signed": 1 << 63, "expgolomb": (1 << 64 + k) - (1 << k)}[code]
    write(BitWriter(), too_big - 1, k)
    for v in (too_big, -1) if code != "signed" else (too_big, -too_big - 1):
        with pytest.raises(ValueError):
            write(BitWriter(), v, k)


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
    write_section(w, 3, Bits(0b110, 3))
    ((stype, payload),) = read_sections(w.getvalue())
    assert (stype, payload) == (3, Bits(0b110, 3)) and type(payload) is Bits


def test_sections_roundtrip():
    # Each of the four 2-bit types, and payload lengths on both sides of
    # the length code's steps (128 and 384 bits); a frame is 10 bits more
    # than its payload below 128 bits, 12 below 384.
    w = BitWriter()
    p1 = Bits(0b1011, 4)
    p2 = Bits(0, 0)
    write_section(w, 1, p1)
    write_section(w, 3, p2)
    assert w.nbits == 10 + 4 + 10
    assert read_sections(w.getvalue()) == [(1, p1), (3, p2)]
    assert write_sections([(1, p1), (3, p2)]) == w.getvalue()
    secs = [(t, Bits((1 << n) - 1, n)) for t, n in ((0, 127), (1, 128), (2, 383), (3, 384), (0, 5000))]
    bits = write_sections(secs)
    assert read_sections(bits) == secs
    assert bits.nbits == sum(n for n in (127, 128, 383, 384, 5000)) + 10 + 12 + 12 + 14 + 20
    with pytest.raises(ValueError):
        write_section(BitWriter(), 4, p1)


def test_sections_garbage_rejected():
    with pytest.raises(DecodeError):
        read_sections(Bits(0b10101, 5))


def _term_bits(t) -> Bits:
    w = BitWriter()
    write_term(w, t)
    return w.getvalue()


def _gamma(v) -> Bits:
    w = BitWriter()
    w.write_gamma(v)
    return w.getvalue()


def _packed(count, width, field, field_bits) -> Bits:
    """A tuple term's wire form with its count, width and packed field
    given as they are, consistent or not."""
    w = BitWriter()
    w.write_bit(1)
    w.write_gamma(count)
    w.write_gamma(width)
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
    assert bits.nbits == 1 + len(_gamma(len(term))) + len(_gamma(width)) + len(term) * width
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
    # A count or width that only a long gamma code can hold.
    for count, width in ((1 << 62, 1), (1, 1 << 62), (1 << 62, 1 << 62)):
        with pytest.raises(DecodeError):
            read_term(BitReader(_packed(count, width, 0, 0)))
    # Zero-width entries cost no bits; no tuple lists more than 16 entries
    # per bit of its bitstring.  304 and 305 zeros both take 19 bits.
    assert _packed(304, 0, 0, 0).nbits == _packed(305, 0, 0, 0).nbits == 19
    assert read_term(BitReader(_packed(304, 0, 0, 0))) == (0,) * 304
    with pytest.raises(DecodeError):
        read_term(BitReader(_packed(305, 0, 0, 0)))
    with pytest.raises(DecodeError):
        read_term(BitReader(_packed(1 << 62, 0, 0, 0)))


def test_all_zero_tuples_read_back_alone():
    # An all-zero class term of up to 2 * f(4) atoms, the most a k = 4
    # label's class has, reads back when it is the whole bitstring.
    f4 = lane_bounds(4)[0]
    for count in range(1, 2 * f4 + 1):
        bits = _term_bits((0,) * count)
        r = BitReader(bits)
        assert read_term(r) == (0,) * count and r.remaining() == 0, count


@pytest.mark.parametrize("term", [((0,),), (1, (2,)), (-1,), (0, -5), -1, "x", (1.0,), [1]])
def test_write_term_refuses_nested_and_negative(term):
    with pytest.raises(ValueError):
        write_term(BitWriter(), term)


@settings(max_examples=400, deadline=None)
@given(nbits=st.integers(0, 300), data=st.data())
def test_sections_have_one_wire_form(nbits, data):
    # read_sections cuts the length codes itself, not through BitReader:
    # any bitstring splits into frames or raises DecodeError, and the
    # frames write back as exactly the bits they were read from.  Half the
    # draws frame a few random payloads and cut some bits off the end, so
    # that the split gets past the first frame.
    if data.draw(st.booleans()):
        bits = Bits(data.draw(st.integers(0, (1 << nbits) - 1)), nbits)
    else:
        secs = [(t, Bits(v, n)) for t, n, v in data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 200)).flatmap(
                lambda tn: st.tuples(st.just(tn[0]), st.just(tn[1]), st.integers(0, (1 << tn[1]) - 1))),
            max_size=4))]
        bits = write_sections(secs)
        cut = data.draw(st.integers(0, bits.nbits))
        bits = Bits(bits.value >> cut, bits.nbits - cut)
    try:
        secs = read_sections(bits)
    except DecodeError:
        return
    assert write_sections(secs) == bits


def test_section_lengths_past_the_end_are_refused():
    # A length code cut off by the end, one that a zero run of 64 bits
    # opens (past the 66-bit window) and a payload longer than what is left
    # are refused; a length code with a zero run reads back.
    for bits in (Bits(0b01, 2), Bits(0b0100001, 7), Bits(1, 2 + 64 + 9), Bits(0b01_10000011_10, 12)):
        with pytest.raises(DecodeError, match="read past end"):
            read_sections(bits)
    w = BitWriter()
    w.write_uint(2, 2)
    w.write_expgolomb(130, 7)  # a zero, then 9 bits
    w.write_uint(1, 130)
    assert read_sections(w.getvalue()) == [(2, Bits(1, 130))]
