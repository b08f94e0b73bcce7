"""The machine-readable visual channel: framing, capacity, corruption.

A frame is the data layer of a 2D barcode in ISO/IEC 18004 byte mode:
mode indicator + byte count + payload bytes + terminator + pad codewords,
then Reed-Solomon parity over GF(256), flattened to a single block. Every
payload a protocol frames is a ciphertext, a signed confirmation or a
nonce, so byte mode is the only mode encoded, and the bitstream is packed
and parsed as one big-endian integer. Matrix layout, masking, and optics
sit below the modeled granularity; corruption is applied per codeword.

Decoding success is a step function of the damage: a frame with c
corrupted codewords decodes iff c <= correction_budget(spec), where the
budget is floor(parity_count / 2). Within budget the recorded damage is
healed and the bitstream is parsed for real; beyond it decoding raises.
A parity recheck after healing means a decode can never silently return
wrong bytes, even for damage inflicted behind the model's back.

Parity is the remainder of the data times x^degree divided by the
generator g(x) over GF(256) mod 0x11D. The remainder is one Python int of
degree bytes: per data byte, the top byte of the remainder xored with the
data byte picks a row, f * g(x) without g's leading term, packed as one
int, and the shifted remainder is xored with it. The 256 rows of a degree
are built once and cached by ``_generator_poly(degree)``. The cache keeps
that name because the benchmark finds it by name: it counts the cache's
misses and clears it before each set-up, so building the tables is timed
as set-up and never inside a measured run.

Capacity constants for versions 1..10 are the published standard values
for all three modes; the numeric and alphanumeric columns back the format
ceilings and the keyboard-layout fit, and the test suite re-derives every
entry from the codeword counts and each mode's packing arithmetic.
"""

from __future__ import annotations

import base64
import enum
import random
from dataclasses import dataclass, replace
from functools import lru_cache

from .rng import as_rng

MIN_VERSION = 1
MAX_VERSION = 10


class ChannelError(Exception):
    pass


class CapacityError(ChannelError):
    """Payload does not fit the frame. required_version is the smallest
    version that would fit at the same ec/mode, or None if none <= 10 does."""

    def __init__(self, message, required_version=None):
        super().__init__(message)
        self.required_version = required_version


class UncorrectableFrameError(ChannelError):
    """Damage exceeds the correction budget (or was inflicted off the books)."""


class EcLevel(enum.Enum):
    L = "L"
    M = "M"
    Q = "Q"
    H = "H"


class Mode(enum.Enum):
    NUMERIC = "numeric"
    ALPHANUMERIC = "alphanumeric"
    BYTE = "byte"


_BYTE_INDICATOR = 0b0100

# total codewords per version 1..10
_TOTAL_CODEWORDS = (26, 44, 70, 100, 134, 172, 196, 242, 292, 346)

# parity codewords per version 1..10, flattened to one block per (L, M, Q, H)
_EC_CODEWORDS = {
    1: {"L": 7, "M": 10, "Q": 13, "H": 17},
    2: {"L": 10, "M": 16, "Q": 22, "H": 28},
    3: {"L": 15, "M": 26, "Q": 36, "H": 44},
    4: {"L": 20, "M": 36, "Q": 52, "H": 64},
    5: {"L": 26, "M": 48, "Q": 72, "H": 88},
    6: {"L": 36, "M": 64, "Q": 96, "H": 112},
    7: {"L": 40, "M": 72, "Q": 108, "H": 130},
    8: {"L": 48, "M": 88, "Q": 132, "H": 156},
    9: {"L": 60, "M": 110, "Q": 160, "H": 192},
    10: {"L": 72, "M": 130, "Q": 192, "H": 224},
}

# published character capacities, (numeric, alphanumeric, byte)
_CAPACITY = {
    1: {"L": (41, 25, 17), "M": (34, 20, 14), "Q": (27, 16, 11), "H": (17, 10, 7)},
    2: {"L": (77, 47, 32), "M": (63, 38, 26), "Q": (48, 29, 20), "H": (34, 20, 14)},
    3: {"L": (127, 77, 53), "M": (101, 61, 42), "Q": (77, 47, 32), "H": (58, 35, 24)},
    4: {"L": (187, 114, 78), "M": (149, 90, 62), "Q": (111, 67, 46), "H": (82, 50, 34)},
    5: {"L": (255, 154, 106), "M": (202, 122, 84), "Q": (144, 87, 60), "H": (106, 64, 44)},
    6: {"L": (322, 195, 134), "M": (255, 154, 106), "Q": (178, 108, 74), "H": (139, 84, 58)},
    7: {"L": (370, 224, 154), "M": (293, 178, 122), "Q": (207, 125, 86), "H": (154, 93, 64)},
    8: {"L": (461, 279, 192), "M": (365, 221, 152), "Q": (259, 157, 108), "H": (202, 122, 84)},
    9: {"L": (552, 335, 230), "M": (432, 262, 180), "Q": (312, 189, 130), "H": (235, 143, 98)},
    10: {"L": (652, 395, 271), "M": (513, 311, 213), "Q": (364, 221, 151), "H": (288, 174, 119)},
}

# single-symbol ceiling of the format itself (largest version, lowest ec)
GLOBAL_MAX = {Mode.NUMERIC: 7089, Mode.ALPHANUMERIC: 4296, Mode.BYTE: 2953}

_MODE_COLUMN = {Mode.NUMERIC: 0, Mode.ALPHANUMERIC: 1, Mode.BYTE: 2}


def _count_bits(version: int) -> int:
    # byte-count width; versions 1..9 vs 10.. differ
    return 8 if version <= 9 else 16


@dataclass(frozen=True)
class FrameSpec:
    version: int
    ec_level: EcLevel
    mode: Mode

    def __post_init__(self):
        if not (MIN_VERSION <= self.version <= MAX_VERSION):
            raise ValueError(f"version must be {MIN_VERSION}..{MAX_VERSION}")

    @property
    def side_modules(self) -> int:
        return 17 + 4 * self.version

    @property
    def module_count(self) -> int:
        return self.side_modules**2


def capacity(spec: FrameSpec) -> int:
    """Published character capacity for a version/level/mode combination."""
    return _CAPACITY[spec.version][spec.ec_level.value][_MODE_COLUMN[spec.mode]]


def data_codeword_count(spec: FrameSpec) -> int:
    return _TOTAL_CODEWORDS[spec.version - 1] - _EC_CODEWORDS[spec.version][spec.ec_level.value]


def parity_codeword_count(spec: FrameSpec) -> int:
    return _EC_CODEWORDS[spec.version][spec.ec_level.value]


def correction_budget(spec: FrameSpec) -> int:
    """Codewords of damage the frame survives: floor(parity / 2)."""
    return parity_codeword_count(spec) // 2


# -------- GF(256) Reed-Solomon parity --------

_GF_EXP = [0] * 512
_GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
for _i in range(255, 512):
    _GF_EXP[_i] = _GF_EXP[_i - 255]


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


@lru_cache(maxsize=None)
def _generator_poly(degree: int) -> tuple[int, ...]:
    """Row table of the degree-`degree` generator g(x): rows[f] is f * g(x)
    without its leading term, coefficients packed big-endian into one int."""
    g = [1]
    for i in range(degree):
        nxt = [0] * (len(g) + 1)
        for j, coef in enumerate(g):
            nxt[j] ^= _gf_mul(coef, _GF_EXP[i])
            nxt[j + 1] ^= coef
        g = nxt
    tail = g[-2::-1]  # highest degree first, leading 1 dropped
    # f -> f * g is linear over GF(2) in the bits of f: build the rows of
    # 1, 2, 4, ..., 128 and xor the rest together from them
    bit_rows = []
    for _ in range(8):
        bit_rows.append(int.from_bytes(bytes(tail), "big"))
        tail = [_gf_mul(coef, 2) for coef in tail]
    rows = [0] * 256
    for f in range(1, 256):
        low = f & -f
        rows[f] = rows[f ^ low] ^ bit_rows[low.bit_length() - 1]
    return tuple(rows)


def rs_parity(data: bytes, degree: int) -> bytes:
    """Reed-Solomon parity of data, degree codewords long."""
    rows = _generator_poly(degree)
    shift = 8 * (degree - 1)
    mask = (1 << 8 * degree) - 1
    rem = 0
    for byte in data:
        rem = (rem << 8 & mask) ^ rows[byte ^ rem >> shift]
    return rem.to_bytes(degree, "big")


# -------- byte-mode packing --------


def _pack(payload: bytes, spec: FrameSpec) -> bytes:
    """Indicator, count and payload as one integer, then the terminator
    (up to four zero bits), zeros to a byte boundary, and pad codewords."""
    n_codewords = data_codeword_count(spec)
    count_bits = _count_bits(spec.version)
    n = len(payload)
    stream = (_BYTE_INDICATOR << count_bits | n) << 8 * n | int.from_bytes(payload, "big")
    bits = 4 + count_bits + 8 * n
    tail = min(4, 8 * n_codewords - bits)
    tail += -(bits + tail) % 8
    data = (stream << tail).to_bytes((bits + tail) // 8, "big")
    return data + (b"\xec\x11" * n_codewords)[: n_codewords - len(data)]


def _unpack(data_codewords: bytes, version: int) -> bytes:
    count_bits = _count_bits(version)
    free = 8 * len(data_codewords) - 4  # bits after the mode indicator
    stream = int.from_bytes(data_codewords, "big")
    indicator = stream >> free
    if indicator != _BYTE_INDICATOR:
        raise UncorrectableFrameError(f"bad mode indicator {indicator:#06b}")
    free -= count_bits
    count = stream >> free & ((1 << count_bits) - 1)
    free -= 8 * count
    if free < 0:
        raise UncorrectableFrameError("bitstream ran dry while parsing")
    return (stream >> free & ((1 << 8 * count) - 1)).to_bytes(count, "big")


# -------- frames --------


@dataclass(frozen=True)
class VisualFrame:
    """One displayed barcode: spec, original payload, codewords, damage.

    codewords reflects damage applied through corrupt(); damage_record
    keeps the xor masks so an in-budget decode can heal them.
    """

    spec: FrameSpec
    payload: bytes
    codewords: bytes
    corrupted_codewords: frozenset[int] = frozenset()
    damage_record: tuple[tuple[int, int], ...] = ()


def qr_encode(payload: bytes, spec: FrameSpec) -> VisualFrame:
    """Frame a payload, or raise CapacityError naming the version needed."""
    if spec.mode is not Mode.BYTE:
        raise ValueError(f"frames carry bytes; {spec.mode.value} mode is not encoded")
    cap = capacity(spec)
    if len(payload) > cap:
        required = None
        for v in range(spec.version + 1, MAX_VERSION + 1):
            if len(payload) <= capacity(FrameSpec(v, spec.ec_level, spec.mode)):
                required = v
                break
        if required is None:
            raise CapacityError(
                f"{len(payload)} symbols exceed every version up to "
                f"{MAX_VERSION} at {spec.ec_level.value}/{spec.mode.value} "
                f"(format ceiling {GLOBAL_MAX[spec.mode]})",
                required_version=None,
            )
        raise CapacityError(
            f"{len(payload)} symbols exceed version {spec.version} "
            f"{spec.ec_level.value}/{spec.mode.value} capacity {cap}; "
            f"needs version {required}",
            required_version=required,
        )
    data = _pack(payload, spec)
    parity = rs_parity(data, parity_codeword_count(spec))
    return VisualFrame(spec=spec, payload=payload, codewords=data + parity)


def choose_spec(payload: bytes, ec_level: EcLevel = EcLevel.M) -> FrameSpec:
    """Smallest byte-mode version whose capacity fits the payload at ec_level."""
    for v in range(MIN_VERSION, MAX_VERSION + 1):
        spec = FrameSpec(v, ec_level, Mode.BYTE)
        if len(payload) <= capacity(spec):
            return spec
    raise CapacityError(
        f"{len(payload)} symbols fit no version up to {MAX_VERSION} at {ec_level.value}/byte",
        required_version=None,
    )


def corrupt(frame: VisualFrame, count: int, seed: random.Random | int) -> VisualFrame:
    """Damage count distinct codewords, chosen and masked off the seed.

    The same seed on the same frame yields the identical corruption set.
    """
    total = len(frame.codewords)
    if count < 0 or count > total:
        raise ValueError(f"corruption count must be 0..{total}")
    rng = as_rng(seed)
    indices = sorted(rng.sample(range(total), count))
    masks = [(i, rng.randrange(1, 256)) for i in indices]
    damaged = bytearray(frame.codewords)
    for i, mask in masks:
        damaged[i] ^= mask
    return replace(
        frame,
        codewords=bytes(damaged),
        corrupted_codewords=frame.corrupted_codewords | set(indices),
        damage_record=frame.damage_record + tuple(masks),
    )


def qr_decode(frame: VisualFrame) -> bytes:
    """Recover the payload or raise UncorrectableFrameError.

    Succeeds iff the corrupted-codeword count is within the frame's budget;
    the healed stream must also pass a full parity recheck, so a decode
    never hands back bytes that differ from the encoded payload.
    """
    budget = correction_budget(frame.spec)
    if len(frame.corrupted_codewords) > budget:
        raise UncorrectableFrameError(
            f"{len(frame.corrupted_codewords)} corrupted codewords exceed "
            f"the correction budget {budget}"
        )
    healed = bytearray(frame.codewords)
    for i, mask in frame.damage_record:
        healed[i] ^= mask
    n_parity = parity_codeword_count(frame.spec)
    data, parity = bytes(healed[:-n_parity]), bytes(healed[-n_parity:])
    if rs_parity(data, n_parity) != parity:
        raise UncorrectableFrameError("parity recheck failed: unrecorded damage")
    return _unpack(data, frame.spec.version)


def estimated_scan_seconds(spec: FrameSpec, a: float, b: float) -> float:
    """Affine scan-cost estimate a + b * module_count. A labeled estimate
    for reports only; nothing asserts against it."""
    return a + b * spec.module_count


def dump_frame(frame: VisualFrame) -> str:
    """Two-line export: 'QRV <version> <ec> <mode> <payload_len>' + codewords."""
    head = (
        f"QRV {frame.spec.version} {frame.spec.ec_level.value} "
        f"{frame.spec.mode.value} {len(frame.payload)}"
    )
    return head + "\n" + base64.b64encode(frame.codewords).decode("ascii") + "\n"
