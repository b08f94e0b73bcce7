"""The blank keyboard trick, from the permutation up to a full login.

The terminal shows an unlabeled 6x6 grid. Only the phone knows which
symbol sits on which key, so a recorder at the terminal collects click
coordinates that could mean anything. This script walks the mechanics,
puts numbers on "could mean anything", then runs the real protocol.

    python demos/02_blank_keyboard.py
"""

import math

from visualauth import crypto, rng
from visualauth.adversary import posterior_count
from visualauth.entities import EntityKind, export_transcript, secrecy_violations
from visualauth.protocols import (
    GRID_COLS,
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    run_flow,
)

print("== the layout only the phone sees ==")
layout = crypto.generate_permutation(rng.fork(2026, "demo-layout"))
for row_start in range(0, len(crypto.ALPHABET), GRID_COLS):
    cells = layout.mapping[row_start:row_start + GRID_COLS]
    print("  " + " ".join(cells))

password = "data"
clicks = tuple(layout.position_of(ch) for ch in password)
print(f"\n  typing {password!r} on that layout means clicking positions {clicks}")
print(f"  the server, holding the same layout, resolves them back to "
      f"{layout.resolve(clicks)!r}")

print("\n== what a click recording is worth ==")
print(f"  layouts of 36 symbols: 36! (about 2^{sum(math.log2(i) for i in range(2, 37)):.1f})")
reduced = posterior_count((1, 3), k=5, n=2)
print(f"  on a reduced 5-key board, two distinct observed clicks leave "
      f"{reduced} of the 25 possible passwords feasible")
print(f"  observing position (2, 2) twice instead leaves "
      f"{posterior_count((2, 2), k=5, n=2)} (repeats narrow it, a little)")

print("\n== the full protocol, honestly ==")
store = CredentialStore.provision(2026)
result = run_flow(SessionConfig(protocol=Protocol.P1, seed=2026), store)
print(f"  outcome: {result.outcome.value}")

transcript = export_transcript(result.session)
print("  message flow:")
for line in transcript.strip().splitlines():
    step, kind, sender, receiver, tag, _ = line.split("|")
    print(f"    {step:>2}. {sender:>10} -> {receiver:<10} {tag}")

print("\n== what each party ended up holding ==")
terminal = result.session.entities[EntityKind.TERMINAL]
print(f"  terminal saw clicks {terminal.state['click_positions'].positions} and never a symbol")
print("  phone decrypted a layout but was never told the password")
violations = secrecy_violations(result.session)
print(f"  secret scanner violations: {violations or 'none'}")
assert result.outcome is Outcome.AUTHENTICATED
