"""All three login flows, honest and then with the wrong credentials.

Same four parties every time (user, terminal, smartphone, server), same
number of steps, three different ways of keeping the password off the
machines that cannot be trusted with it.

    python demos/03_three_logins.py
"""

from visualauth import rng
from visualauth.entities import EntityKind, export_transcript
from visualauth.harness import WRONG_PASSWORD
from visualauth.protocols import (
    AUTH_PROTOCOLS,
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    run_flow,
)

DESCRIPTIONS = {
    Protocol.P1: "encrypted keyboard layout, clicks on a blank grid",
    Protocol.P2: "encrypted one-time password, typed at the terminal",
    Protocol.P3: "plain nonce out, sealed credentials back through the camera",
}

store = CredentialStore.provision(31337)

print("== honest logins ==")
for protocol in AUTH_PROTOCOLS:
    result = run_flow(
        SessionConfig(protocol=protocol, seed=rng.child_seed(31337, "honest", protocol.value)),
        store,
    )
    steps = len(result.session.transcript)
    print(f"  {protocol.value}: {result.outcome.value} in {steps} steps "
          f"({DESCRIPTIONS[protocol]})")

print("\n== wrong credentials ==")
for protocol in AUTH_PROTOCOLS:
    seed = rng.child_seed(31337, "wrong", protocol.value)
    if protocol is Protocol.P2:
        # no password to get wrong here; the user fumbles the code instead
        config = SessionConfig(protocol=protocol, seed=seed, mistype_otp=True)
    else:
        config = SessionConfig(protocol=protocol, seed=seed, submit_passwords=(WRONG_PASSWORD,))
    result = run_flow(config, store)
    print(f"  {protocol.value}: {result.outcome.value}")

print("\n== second chances ==")
retry = run_flow(
    SessionConfig(
        protocol=Protocol.P1,
        seed=rng.child_seed(31337, "retry"),
        submit_passwords=(WRONG_PASSWORD, "data"),
        max_attempts=2,
    ),
    store,
)
print(f"  wrong then right with max_attempts=2: {retry.outcome.value}")

print("\n== the sealed upload, up close ==")
result = run_flow(SessionConfig(protocol=Protocol.P3, seed=rng.child_seed(31337, "close")), store)
blob = result.session.entities[EntityKind.TERMINAL].state["upload_frame"].frame.payload
print(f"  the terminal relayed {len(blob)} opaque bytes")
print(f"  password in the blob: {b'data' in blob}")
print("  full transcript:")
for line in export_transcript(result.session).strip().splitlines():
    step, kind, sender, receiver, tag, digest = line.split("|")
    print(f"    {step:>2}. {sender:>10} -> {receiver:<10} {tag:24} {digest}")
assert result.outcome is Outcome.AUTHENTICATED
