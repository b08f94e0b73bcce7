"""A fixed reference computation that measures how fast the machine runs
Python at the moment.

The sandbox the benchmark was defined on is shared: its speed drifts by
±20% between runs of the same code, on a scale of seconds to minutes. Eight
20-second honest_mix runs of one commit gave run medians from 158 to 213
sessions/s; the same runs divided by this probe's time, taken between
measurement windows, stayed within 389 to 412. So every timed metric is
reported twice: as measured (``raw.*``), and scaled to the speed at which
this probe takes ``NOMINAL_S``. The gated metrics are the scaled ones.

The probe mixes the kinds of work the program does in pure Python: a
GF(256) multiply-accumulate loop over a bytearray, small tuples, bytes and a
dict, and sha256. It never calls into the program, so no change to the
program can speed it up or slow it down.
"""

from __future__ import annotations

import hashlib
import time

NOMINAL_S = 0.0105  # median probe_s() on the 2-core sandbox the bounds were set on
REPEATS = 5

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
_GEN = [_EXP[(7 * i) % 255] for i in range(65)]
_DATA = bytes((i * 37 + 11) % 256 for i in range(150))


def _work() -> bytes:
    rem = bytearray(64)
    for byte in _DATA:
        factor = byte ^ rem[0]
        del rem[0]
        rem.append(0)
        if factor:
            flog = _LOG[factor]
            for i in range(64):
                coef = _GEN[i + 1]
                if coef:
                    rem[i] ^= _EXP[flog + _LOG[coef]]
    table = {}
    for i in range(1500):
        table[("k", i)] = str(i).encode()
    h = hashlib.sha256(bytes(rem))
    for key in sorted(table, key=lambda k: k[1]):
        h.update(table[key])
    return h.digest()


def probe_s() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return time.perf_counter() - t0


class Tracker:
    """Probes between measured intervals.

    Create it just before the first interval; call ``scale()`` just after
    each one. The scale is the mean of the two probes around the interval
    over NOMINAL_S: above 1 the machine ran slower than nominal.
    """

    def __init__(self):
        self._before = probe_s()

    def scale(self) -> float:
        after = probe_s()
        result = (self._before + after) / 2 / NOMINAL_S
        self._before = after
        return result
