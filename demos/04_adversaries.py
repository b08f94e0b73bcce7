"""Watching the watchers: what each attacker sees and what it buys them.

An adversary here sits at one location (the terminal or the smartphone)
and reads off the session's transcript the surface it sees there, plus
every follow-up trick its loot supports: replaying captures, spending
stolen keys, walking learned credentials to a fresh session. Resistance
means none of it logs in later.

    python demos/04_adversaries.py
"""

from visualauth import rng
from visualauth.adversary import (
    ATTACKS,
    AdversaryConfig,
    AdversaryKind,
    evaluate,
    run_attack,
    run_attacked_session,
    run_matrix,
)
from visualauth.crypto import IntegrityError, Role, decrypt, encrypt, generate_keypair
from visualauth.entities import EntityKind
from visualauth.protocols import CredentialStore, Protocol, SessionConfig

store = CredentialStore.provision(412)


def spy(protocol, kind, locus, seed):
    (handle,), result = run_attacked_session(
        SessionConfig(protocol=protocol, seed=seed), [AdversaryConfig(kind, locus)], store
    )
    outcome = evaluate(handle)
    seen = sorted({obs.data[0] for obs in handle.observations})
    verdict = "resisted" if outcome.resisted() else "BREACHED"
    print(f"  {protocol.value} vs {kind.value} at {locus.value}: {verdict}")
    print(f"    observed: {seen or 'nothing'}")
    if handle.observed("login") is not None:
        print("    learned the password outright")
    return outcome


print("== a keylogger at the terminal, keyboard-permutation login ==")
spy(Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, rng.child_seed(412, "a"))

print("\n== the same keylogger moved onto the phone, nonce-upload login ==")
spy(Protocol.P3, AdversaryKind.KEYLOGGER, EntityKind.SMARTPHONE, rng.child_seed(412, "b"))

print("\n== malware on the phone, one-time-password login ==")
spy(Protocol.P2, AdversaryKind.MALWARE, EntityKind.SMARTPHONE, rng.child_seed(412, "c"))

print("\n== the full resistance matrix, 5 trials per cell ==")
cells = run_matrix(seed=412, trials=5)
print(f"  {'':14} {'keylogger':>11} {'surfer':>11} {'malware':>11} {'brute':>11}")
by_key = {(c.protocol, c.kind, c.locus): c for c in cells}
kinds = [AdversaryKind.KEYLOGGER, AdversaryKind.SHOULDER_SURFER,
         AdversaryKind.MALWARE, AdversaryKind.BRUTE_FORCE]
for protocol in (Protocol.P1, Protocol.P2, Protocol.P3):
    for locus in (EntityKind.TERMINAL, EntityKind.SMARTPHONE):
        row = []
        for kind in kinds:
            cell = by_key[(protocol, kind, locus)]
            mark = "ok" if cell.resisted else "BREAK"
            flag = "" if cell.matches_expected else "?!"
            row.append(f"{mark}{flag:>2}".rjust(11))
        print(f"  {protocol.value}@{locus.value:<11}{''.join(row)}")
print(f"  every cell matches the designed pattern: "
      f"{all(c.matches_expected for c in cells)}")

print("\n== two onlookers beat one ==")
both = run_attack(ATTACKS["dual_locus_surfer"], rng.child_seed(412, "dual"))
print(f"  layout from the phone screen + clicks from the terminal: "
      f"password recovered = {both.breached}")

print("\n== a phishing server gets nothing ==")
# the phone seals to the server key it pinned, never to the phisher's
phisher = generate_keypair(Role.SERVER, rng.child_seed(412, "phisher"))
upload = encrypt(store.server_pair.public_key, b"alice:data", rng.child_seed(412, "upload"))
try:
    decrypt(phisher, upload)
    opened = True
except IntegrityError:
    opened = False
print(f"  phisher opened the sealed upload: {opened}")
relay = run_attack(ATTACKS["phish_relay"], rng.child_seed(412, "phish"))
print(f"  relaying it to the real server: {relay.outcome.value}")
wrong_name = run_attack(ATTACKS["phish_wrong_name"], rng.child_seed(412, "phish"))
print(f"  sealing for the wrong server name: {wrong_name.outcome.value}")
