"""Visual frames: capacity table, packing, parity, the corruption step."""

from __future__ import annotations

import base64
import dataclasses
import random

import pytest

from visualauth import qr
from visualauth.qr import (
    GLOBAL_MAX,
    CapacityError,
    EcLevel,
    FrameSpec,
    Mode,
    UncorrectableFrameError,
    VisualFrame,
    choose_spec,
    correction_budget,
    corrupt,
    dump_frame,
    estimated_scan_seconds,
    qr_decode,
    qr_encode,
)

ALL_SPECS = [
    FrameSpec(v, ec, mode)
    for v in range(1, 11)
    for ec in EcLevel
    for mode in Mode
]
BYTE_SPECS = [spec for spec in ALL_SPECS if spec.mode is Mode.BYTE]

# count-indicator widths per mode, versions 1..9 and 10
COUNT_BITS = {Mode.NUMERIC: (10, 12), Mode.ALPHANUMERIC: (9, 11), Mode.BYTE: (8, 16)}


def derived_capacity(spec: FrameSpec) -> int:
    """Capacity re-derived from codeword counts and each mode's packing
    arithmetic, so the published table is cross-checked rather than trusted."""
    count_bits = COUNT_BITS[spec.mode][spec.version >= 10]
    bits = 8 * spec.data_codewords - 4 - count_bits
    if spec.mode is Mode.NUMERIC:
        triples, rem = divmod(bits, 10)
        return 3 * triples + (2 if rem >= 7 else 1 if rem >= 4 else 0)
    if spec.mode is Mode.ALPHANUMERIC:
        pairs, rem = divmod(bits, 11)
        return 2 * pairs + (1 if rem >= 6 else 0)
    return bits // 8


def pack_slow(payload: bytes, spec: FrameSpec) -> bytes:
    """Byte-mode data codewords spelled out as a string of bits."""
    n_codewords = spec.data_codewords
    width = COUNT_BITS[Mode.BYTE][spec.version >= 10]
    bits = "0100" + format(len(payload), f"0{width}b") + "".join(f"{b:08b}" for b in payload)
    bits += "0" * min(4, 8 * n_codewords - len(bits))
    bits += "0" * (-len(bits) % 8)
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    pads = bytes(0xEC if i % 2 == 0 else 0x11 for i in range(n_codewords - len(data)))
    return data + pads


def repacked(bits: str, spec: FrameSpec) -> bytes | None:
    """The payload a byte-mode stream, given as a string of bits, parses to
    if packing that payload gives the stream back, else None: the check a
    decode made by repacking before the parse checked the tail itself."""
    width = COUNT_BITS[Mode.BYTE][spec.version >= 10]
    count = int(bits[4 : 4 + width], 2)
    body = bits[4 + width : 4 + width + 8 * count]
    if bits[:4] != "0100" or len(body) < 8 * count:
        return None
    payload = int(body or "0", 2).to_bytes(count, "big")
    return payload if qr._pack(payload, spec) == int(bits, 2).to_bytes(len(bits) // 8, "big") else None


def framed(data: bytes, spec: FrameSpec) -> VisualFrame:
    """A frame around hand-built data codewords, with valid parity."""
    parity = qr.rs_parity(data, spec.parity_codewords)
    return VisualFrame(spec=spec, payload=b"", codewords=data + parity)


# A 16-byte nonce at version 2 M: 18 codewords of indicator, count, payload
# and the four terminator bits, then ten pad codewords. Each rewrite keeps
# the payload parse and gets its parity recomputed.
NONCE_PAYLOAD = b"nonce-0123456789"
NONCE_SPEC = FrameSpec(2, EcLevel.M, Mode.BYTE)
STREAM_REWRITES = ["pad_swapped", "pad_inverted", "terminator"]


def rewritten_stream(rewrite: str) -> VisualFrame:
    data = bytearray(pack_slow(NONCE_PAYLOAD, NONCE_SPEC))
    if rewrite == "pad_swapped":
        data[-2], data[-1] = data[-1], data[-2]
    elif rewrite == "pad_inverted":
        data[-2] ^= 0xFF
        data[-1] ^= 0xFF
    elif rewrite == "terminator":
        data[17] ^= 0x01  # bit 143, the last terminator bit
    return framed(bytes(data), NONCE_SPEC)


# Independent GF(256) arithmetic for cross-checking the Reed-Solomon layer.
# Deliberately avoids log tables: Russian-peasant multiply with 0x11D
# reduction, and a plain synthetic division instead of the LFSR form.


def gf_mul_slow(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return out


def generator_poly_slow(degree: int) -> list[int]:
    g = [1]
    alpha = 1
    for _ in range(degree):
        nxt = [0] * (len(g) + 1)
        for j, coef in enumerate(g):
            nxt[j] ^= gf_mul_slow(coef, alpha)
            nxt[j + 1] ^= coef
        g = nxt
        alpha = gf_mul_slow(alpha, 2)
    return list(reversed(g))  # highest degree first, leading 1


def poly_mod_slow(poly: list[int], g: list[int]) -> list[int]:
    poly = list(poly)
    d = len(g) - 1
    for i in range(len(poly) - d):
        coef = poly[i]
        if coef:
            for j in range(1, len(g)):
                poly[i + j] ^= gf_mul_slow(g[j], coef)
            poly[i] = 0
    return poly[-d:]


class TestCapacityTable:
    def test_every_published_entry_rederives(self):
        # 10 versions x 4 levels x 3 modes: the table is data, the
        # packing arithmetic is code, and they must agree cell by cell
        for spec in ALL_SPECS:
            assert spec.capacity == derived_capacity(spec), spec

    def test_monotone_in_version(self):
        for ec in EcLevel:
            for mode in Mode:
                caps = [FrameSpec(v, ec, mode).capacity for v in range(1, 11)]
                assert caps == sorted(caps)

    def test_monotone_in_protection(self):
        # more parity means fewer payload symbols, at every version
        order = [EcLevel.L, EcLevel.M, EcLevel.Q, EcLevel.H]
        for v in range(1, 11):
            for mode in Mode:
                caps = [FrameSpec(v, ec, mode).capacity for ec in order]
                assert caps == sorted(caps, reverse=True)

    def test_global_maxima(self):
        assert GLOBAL_MAX[Mode.NUMERIC] == 7089
        assert GLOBAL_MAX[Mode.ALPHANUMERIC] == 4296
        assert GLOBAL_MAX[Mode.BYTE] == 2953

    def test_v2_m_alnum_from_first_principles(self):
        # hand derivation: 44 total codewords, 16 parity -> 28 data
        # -> 224 bits - 4 mode - 9 count = 211 -> 19 pairs + remainder 2
        # -> 38 symbols. Enough for a 36-symbol keyboard layout.
        assert FrameSpec(2, EcLevel.M, Mode.ALPHANUMERIC).capacity == 38
        assert FrameSpec(2, EcLevel.M, Mode.ALPHANUMERIC).capacity >= 36

    def test_codeword_split(self):
        spec = FrameSpec(2, EcLevel.M, Mode.BYTE)
        assert spec.data_codewords == 28
        assert spec.parity_codewords == 16
        assert correction_budget(spec) == 8

    def test_version_bounds_enforced(self):
        with pytest.raises(ValueError):
            FrameSpec(0, EcLevel.M, Mode.BYTE)
        with pytest.raises(ValueError):
            FrameSpec(11, EcLevel.M, Mode.BYTE)

    def test_module_geometry(self):
        assert FrameSpec(1, EcLevel.L, Mode.BYTE).side_modules == 21
        assert FrameSpec(10, EcLevel.L, Mode.BYTE).side_modules == 57
        assert FrameSpec(3, EcLevel.L, Mode.BYTE).module_count == 841


class TestRoundTrips:
    def test_byte_mode_all_versions_and_levels(self):
        rng = random.Random(310)
        for spec in BYTE_SPECS:
            payload = rng.randbytes(spec.capacity)
            assert qr_decode(qr_encode(payload, spec)) == payload

    def test_pack_matches_bit_string_reference(self):
        rng = random.Random(311)
        for spec in BYTE_SPECS:
            for length in (0, 1, spec.capacity // 2, spec.capacity):
                payload = rng.randbytes(length)
                assert qr._pack(payload, spec) == pack_slow(payload, spec), (spec, length)

    def test_empty_payload(self):
        spec = FrameSpec(1, EcLevel.H, Mode.BYTE)
        assert qr_decode(qr_encode(b"", spec)) == b""

    def test_byte_mode_does_not_fold(self):
        spec = FrameSpec(2, EcLevel.M, Mode.BYTE)
        assert qr_decode(qr_encode(b"HELLO99", spec)) == b"HELLO99"

    def test_text_modes_are_not_encoded(self):
        for mode in (Mode.NUMERIC, Mode.ALPHANUMERIC):
            with pytest.raises(ValueError, match="frames carry bytes"):
                qr_encode(b"1234", FrameSpec(2, EcLevel.M, mode))


class TestParsingRefusals:
    # frames built by hand with valid parity: the parse itself must refuse

    def test_numeric_mode_indicator_refused(self):
        spec = FrameSpec(1, EcLevel.L, Mode.BYTE)
        data = pack_slow(b"1234", spec)
        data = bytes([0b0001 << 4 | data[0] & 0x0F]) + data[1:]
        with pytest.raises(UncorrectableFrameError, match="bad mode indicator 0b0001"):
            qr_decode(framed(data, spec))

    def test_count_past_the_data_refused(self):
        spec = FrameSpec(1, EcLevel.L, Mode.BYTE)
        data = pack_slow(b"", spec)
        data = bytes([0x4F, 0xF0]) + data[2:]  # count 255 in 19 data codewords
        with pytest.raises(UncorrectableFrameError, match="ran dry"):
            qr_decode(framed(data, spec))


    @pytest.mark.parametrize("rewrite", ["none", *STREAM_REWRITES])
    def test_only_the_encoded_stream_decodes(self, rewrite):
        frame = rewritten_stream(rewrite)
        if rewrite == "none":  # the control: the encoding itself decodes
            assert qr_decode(frame) == NONCE_PAYLOAD
        else:
            with pytest.raises(UncorrectableFrameError, match="terminator or pad"):
                qr_decode(frame)

    @pytest.mark.parametrize("ec", EcLevel, ids=lambda ec: ec.value)
    def test_the_parse_takes_a_stream_exactly_when_its_repack_gives_it_back(self, ec):
        # every single bit flip of the data codewords of 0-40 byte payloads:
        # a flip inside the payload parses to another payload (which the
        # parity recheck refuses in a frame), and a flip of the count,
        # terminator, zero fill or pad is refused
        taken = refused = 0
        for length in range(41):
            spec = choose_spec(bytes(length), ec)
            honest = pack_slow(bytes(range(length)), spec)
            bits = "".join(f"{b:08b}" for b in honest)
            for i in range(len(bits)):
                flipped = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
                data = bytearray(honest)
                data[i // 8] ^= 0x80 >> i % 8
                try:
                    payload = qr._unpack(bytes(data), spec.version)
                except UncorrectableFrameError:
                    payload = None
                assert payload == repacked(flipped, spec), (ec, length, i)
                taken += payload is not None
                refused += payload is None
        assert taken and refused


class TestCapacityErrors:
    def test_names_the_version_that_fits(self):
        # 18 bytes over v1-L's 17; v2-L holds 32
        with pytest.raises(CapacityError) as err:
            qr_encode(b"x" * 18, FrameSpec(1, EcLevel.L, Mode.BYTE))
        assert err.value.required_version == 2

    def test_oversize_for_every_version(self):
        with pytest.raises(CapacityError) as err:
            qr_encode(b"x" * 300, FrameSpec(1, EcLevel.L, Mode.BYTE))
        assert err.value.required_version is None
        assert "2953" in str(err.value)

    def test_choose_spec_picks_smallest(self):
        assert choose_spec(b"x" * 17, EcLevel.L).version == 1
        assert choose_spec(b"x" * 18, EcLevel.L).version == 2
        # a 36-symbol layout as bytes needs v3 at M (v2-M holds 26 bytes)
        layout = b"abcdefghijklmnopqrstuvwxyz0123456789"
        assert choose_spec(layout, EcLevel.M) == FrameSpec(3, EcLevel.M, Mode.BYTE)

    def test_choose_spec_oversize(self):
        with pytest.raises(CapacityError):
            choose_spec(b"x" * 300, EcLevel.L)


def scanned_spec(size: int, ec: EcLevel) -> FrameSpec | None:
    """The smallest byte-mode spec that holds size bytes, by a scan of the
    capacity table, or None past the last version."""
    for version in range(1, 11):
        spec = FrameSpec(version, ec, Mode.BYTE)
        if size <= spec.capacity:
            return spec
    return None


class TestSpecTable:
    @pytest.mark.parametrize("ec", list(EcLevel), ids=str)
    def test_choose_spec_matches_a_scan(self, ec):
        smallest = FrameSpec(1, ec, Mode.BYTE)
        for size in range(GLOBAL_MAX[Mode.BYTE] + 2):
            payload = bytes(size)
            expected = scanned_spec(size, ec)
            if expected is None:
                with pytest.raises(CapacityError) as err:
                    choose_spec(payload, ec)
                assert err.value.required_version is None, size
            else:
                assert choose_spec(payload, ec) == expected, size
            if size > smallest.capacity:
                with pytest.raises(CapacityError) as err:
                    qr_encode(payload, smallest)
                assert err.value.required_version == (expected and expected.version), size


class TestReedSolomon:
    def test_codewords_divisible_by_generator(self):
        # independent arithmetic: the emitted data+parity polynomial must
        # be divisible by the degree-n generator built without log tables
        rng = random.Random(88)
        for spec in [
            FrameSpec(1, EcLevel.L, Mode.BYTE),
            FrameSpec(2, EcLevel.M, Mode.BYTE),
            FrameSpec(4, EcLevel.Q, Mode.BYTE),
            FrameSpec(7, EcLevel.H, Mode.BYTE),
        ]:
            payload = rng.randbytes(spec.capacity)
            frame = qr_encode(payload, spec)
            g = generator_poly_slow(spec.parity_codewords)
            remainder = poly_mod_slow(list(frame.codewords), g)
            assert remainder == [0] * spec.parity_codewords, spec

    def test_rs_parity_matches_slow_division(self):
        # every published parity degree, on empty, one-byte and full data
        rng = random.Random(89)
        spec_of_degree = {}
        for spec in BYTE_SPECS:
            spec_of_degree.setdefault(spec.parity_codewords, spec)
        for degree, spec in spec_of_degree.items():
            g = generator_poly_slow(degree)
            for length in (0, 1, spec.data_codewords):
                data = list(rng.randbytes(length))
                fast = list(qr.rs_parity(bytes(data), degree))
                assert fast == poly_mod_slow(data + [0] * degree, g), (spec, length)

    def test_generator_tables_agree(self):
        # row f of the cached table is f times the generator without its
        # leading term, packed big-endian into one integer
        for degree in (7, 13, 18, 28, 224):
            tail = generator_poly_slow(degree)[1:]
            rows = qr._generator_poly(degree)
            assert len(rows) == 256
            for f, row in enumerate(rows):
                expected = bytes(gf_mul_slow(f, coef) for coef in tail)
                assert row.to_bytes(degree, "big") == expected, (degree, f)


class TestCorruption:
    def test_step_function_at_the_budget(self):
        # exhaustive sweep on representative specs: decode succeeds at
        # every damage count through the budget and fails just past it
        for spec in [
            FrameSpec(1, EcLevel.L, Mode.BYTE),
            FrameSpec(2, EcLevel.M, Mode.BYTE),
            FrameSpec(3, EcLevel.H, Mode.BYTE),
        ]:
            payload = b"step function probe"[: spec.capacity]
            clean = qr_encode(payload, spec)
            budget = correction_budget(spec)
            for count in range(budget + 1):
                healed = qr_decode(corrupt(clean, count, seed=400 + count))
                assert healed == clean.payload
            with pytest.raises(UncorrectableFrameError):
                qr_decode(corrupt(clean, budget + 1, seed=500))

    def test_corrupt_is_deterministic(self):
        frame = qr_encode(b"same damage twice", FrameSpec(2, EcLevel.M, Mode.BYTE))
        a = corrupt(frame, 5, seed=7)
        b = corrupt(frame, 5, seed=7)
        c = corrupt(frame, 5, seed=8)
        assert a.codewords == b.codewords
        assert a.codewords != c.codewords

    def test_corrupt_touches_exactly_count_codewords(self):
        frame = qr_encode(b"counted", FrameSpec(2, EcLevel.M, Mode.BYTE))
        damaged = corrupt(frame, 6, seed=9)
        assert len(damaged.corrupted_codewords) == 6
        diff = sum(1 for x, y in zip(frame.codewords, damaged.codewords) if x != y)
        assert diff == 6

    def test_corruption_accumulates(self):
        frame = qr_encode(b"twice over", FrameSpec(2, EcLevel.M, Mode.BYTE))
        once = corrupt(frame, 4, seed=10)
        twice = corrupt(once, 4, seed=11)
        assert 4 <= len(twice.corrupted_codewords) <= 8
        if len(twice.corrupted_codewords) <= correction_budget(frame.spec):
            assert qr_decode(twice) == frame.payload

    def test_count_bounds(self):
        # corrupt's own refusal, not the one random.sample would raise after it
        frame = qr_encode(b"bounds", FrameSpec(1, EcLevel.L, Mode.BYTE))
        for count in (-1, len(frame.codewords) + 1):
            with pytest.raises(ValueError, match=rf"^corruption count must be 0\.\.{len(frame.codewords)}$"):
                corrupt(frame, count, seed=1)

    def test_unrecorded_damage_never_decodes_silently(self):
        # flip a byte behind the model's back: the parity recheck after
        # healing must refuse rather than return wrong bytes
        frame = qr_encode(b"off the books", FrameSpec(2, EcLevel.M, Mode.BYTE))
        raw = bytearray(frame.codewords)
        raw[3] ^= 0x40
        shadow = dataclasses.replace(frame, codewords=bytes(raw))
        with pytest.raises(UncorrectableFrameError):
            qr_decode(shadow)

    @pytest.mark.parametrize("region", ["data", "parity"])
    def test_damage_right_after_encoding_is_refused(self, region):
        # the clean parity of the frame is still kept by rs_parity: a flip
        # in the data misses it, and one in the parity meets it and must
        # still fail the comparison with the received parity codewords
        spec = FrameSpec(4, EcLevel.M, Mode.BYTE)
        frame = qr_encode(b"fresh frame", spec)
        index = 3 if region == "data" else len(frame.codewords) - 1
        raw = bytearray(frame.codewords)
        raw[index] ^= 0x40
        before = qr.rs_parity.cache_info()
        with pytest.raises(UncorrectableFrameError):
            qr_decode(dataclasses.replace(frame, codewords=bytes(raw)))
        after = qr.rs_parity.cache_info()
        assert after.hits - before.hits == (region == "parity")
        assert qr_decode(frame) == b"fresh frame"


class TestExports:
    def test_dump_frame_format(self):
        frame = qr_encode(b"hello", FrameSpec(2, EcLevel.Q, Mode.BYTE))
        text = dump_frame(frame)
        head, body, trailer = text.split("\n")
        assert head == "QRV 2 Q byte 5"
        assert trailer == ""
        assert base64.b64decode(body) == frame.codewords
        assert len(frame.codewords) == 44

    def test_scan_estimate_is_affine(self):
        spec = FrameSpec(3, EcLevel.M, Mode.BYTE)
        assert estimated_scan_seconds(spec, 0.0, 1.0) == spec.module_count
        assert estimated_scan_seconds(spec, 1.2, 0.0) == 1.2
        expected = 1.2 + 0.00048 * 841
        assert abs(estimated_scan_seconds(spec, 1.2, 0.00048) - expected) < 1e-12
