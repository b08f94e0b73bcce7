"""Past the login: keeping a compromised terminal from spending the session.

Logging in safely is half the job. These flows assume the terminal may be
rotten after authentication too, and push every decision that matters
through the phone: confirming what the server will execute, reading
account data the terminal only ever relays sealed, and countersigning
submissions over a channel the terminal cannot touch.

    python demos/05_transaction_shields.py
"""

from visualauth import rng
from visualauth.adversary import confirmation_replay_scenario, otp_race_scenario
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
with_freshness = confirmation_replay_scenario(
    rng.child_seed(555, "fresh"), tx_nonce_freshness=True
)
without = confirmation_replay_scenario(
    rng.child_seed(555, "stale"), tx_nonce_freshness=False
)
print(f"  freshness on:  attacked session ends {with_freshness['attacked_outcome'].value}, "
      f"attacker's transfer executed: {with_freshness['attacker_tx_executed']}")
print(f"  freshness off: attacked session ends {without['attacked_outcome'].value}, "
      f"attacker's transfer executed: {without['attacker_tx_executed']}")
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
guarded = otp_race_scenario(rng.child_seed(555, "race"), hijack_guard=True)
unguarded = otp_race_scenario(rng.child_seed(555, "norace"), hijack_guard=False)
print(f"  guard on:  hijack attempt ends {guarded['hijack_outcome'].value}, "
      f"attacker tx executed: {guarded['attacker_tx_executed']}")
print(f"  guard off: hijack attempt ends {unguarded['hijack_outcome'].value}, "
      f"attacker tx executed: {unguarded['attacker_tx_executed']}")
print(f"  either way the captured one-time password stays dead: "
      f"replay ended {guarded['replay_outcome'].value}")
