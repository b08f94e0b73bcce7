"""A tour of the visual frame layer.

Everything a login flow asks of a barcode is here: how much fits at each
version and protection level, what happens when a camera misreads part of
the frame, and the hard stop where error correction gives up. Run it:

    python demos/01_visual_frames.py
"""

from visualauth import qr
from visualauth.qr import EcLevel, FrameSpec, Mode

SCAN_A, SCAN_B = 1.2, 0.00048  # fitted read-time estimate, reports only


def section(title):
    print()
    print(f"== {title} ==")


section("capacity corners")
for version in (1, 2, 5, 10):
    row = []
    for level in EcLevel:
        spec = FrameSpec(version, level, Mode.BYTE)
        row.append(f"{level.value}:{spec.capacity:4d}")
    print(f"  version {version:2d}  bytes  {'  '.join(row)}")
print(f"  format ceilings: numeric {qr.GLOBAL_MAX[Mode.NUMERIC]}, "
      f"alphanumeric {qr.GLOBAL_MAX[Mode.ALPHANUMERIC]}, "
      f"byte {qr.GLOBAL_MAX[Mode.BYTE]}")

section("picking a frame for a payload")
payload = b"the quick brown fox jumps over 36 lazy symbols"
spec = qr.choose_spec(payload, EcLevel.M)
print(f"  {len(payload)} bytes at level M fits version {spec.version} "
      f"({spec.module_count} modules, about "
      f"{qr.estimated_scan_seconds(spec, SCAN_A, SCAN_B):.2f}s to scan)")

frame = qr.qr_encode(payload, spec)
assert qr.qr_decode(frame) == payload
print(f"  encoded to {len(frame.codewords)} codewords, decodes back intact")

section("healing a damaged frame")
budget = qr.correction_budget(spec)
print(f"  parity affords a correction budget of {budget} codewords")
for count in (1, budget // 2, budget):
    damaged = qr.corrupt(frame, count, seed=7 + count)
    healed = qr.qr_decode(damaged)
    print(f"  {count:2d} corrupted codeword(s): healed, payload intact "
          f"({healed == payload})")

# one codeword past the budget and the decoder refuses rather than guess
try:
    qr.qr_decode(qr.corrupt(frame, budget + 1, seed=99))
    print("  over budget: decoded (should never happen)")
except qr.UncorrectableFrameError as err:
    print(f"  {budget + 1} corrupted codewords: refused ({err})")

section("a frame on the wire")
small = qr.qr_encode(b"hi", FrameSpec(1, EcLevel.H, Mode.BYTE))
print("  " + qr.dump_frame(small).strip())

section("asking for too much")
try:
    qr.qr_encode(b"x" * 100, FrameSpec(1, EcLevel.L, Mode.BYTE))
except qr.CapacityError as err:
    print(f"  version 1 refusal points at version {err.required_version}: {err}")
