"""Past the login: keeping a compromised terminal from spending the session.

Logging in safely is half the job. These flows assume the terminal may be
rotten after authentication too, and push every decision that matters
through the phone: confirming what the server will execute, reading
account data the terminal only ever relays sealed, and countersigning
submissions over a channel the terminal cannot touch.

    python demos/05_transaction_shields.py
"""

from visualauth import rng
from visualauth.adversary import ATTACKS, run_attack
from visualauth.entities import EntityKind
from visualauth.protocols import (
    DEFAULT_TX,
    CredentialStore,
    Protocol,
    SessionConfig,
    run_flow,
)

store = CredentialStore.provision(555)

print("== verifying a transfer on the phone ==")
result = run_flow(
    SessionConfig(protocol=Protocol.TXVERIFY, seed=rng.child_seed(555, "tx")), store
)
print(f"  intended: {DEFAULT_TX.amount} minor units to {DEFAULT_TX.receiver_name!r}")
print(f"  outcome: {result.outcome.value}, executed: {result.session.executed_tx == DEFAULT_TX}")

print("\n== the stale-receipt trick, with and without nonce freshness ==")
with_freshness = run_attack(ATTACKS["stale_receipt"], rng.child_seed(555, "fresh"))
without = run_attack(ATTACKS["stale_receipt/no_freshness"], rng.child_seed(555, "stale"))
print(f"  freshness on:  attacked session ends {with_freshness.outcome.value}, "
      f"attacker's transfer executed: {with_freshness.breached}")
print(f"  freshness off: attacked session ends {without.outcome.value}, "
      f"attacker's transfer executed: {without.breached}")
print("  (the replayed receipt only convinces anyone when nothing binds it "
      "to this session)")

print("\n== reading the books through an untrusted screen ==")
view = run_flow(
    SessionConfig(protocol=Protocol.SECUREVIEW, seed=rng.child_seed(555, "view")), store
)
print(f"  outcome: {view.outcome.value}")
for name, value in view.session.view_values.items():
    print(f"    {name}: {value!r} (decrypted on the phone)")
terminal_state = repr(view.session.entities[EntityKind.TERMINAL].state)
leaked = any(value in terminal_state for value in view.session.view_values.values())
print(f"  any field plaintext in the terminal's state: {leaked}")

print("\n== session hijacking against the cellular side channel ==")
guarded = run_attack(ATTACKS["hijack"], rng.child_seed(555, "race"))
unguarded = run_attack(ATTACKS["hijack/no_guard"], rng.child_seed(555, "norace"))
replayed = run_attack(ATTACKS["otp_replay"], rng.child_seed(555, "race"))
print(f"  guard on:  hijack attempt ends {guarded.outcome.value}, "
      f"attacker tx executed: {guarded.breached}")
print(f"  guard off: hijack attempt ends {unguarded.outcome.value}, "
      f"attacker tx executed: {unguarded.breached}")
print(f"  either way the captured one-time password stays dead: "
      f"replay ended {replayed.outcome.value}")
