"""Watching the watchers: what each attacker sees and what it buys them.

An adversary here is one tap on one location (the terminal or the
smartphone) that records the surface it sees there, plus every follow-up
trick its loot supports: replaying captures, spending stolen keys,
walking learned credentials to a fresh session. Resistance means none of
it logs in later.

    python demos/04_adversaries.py
"""

from visualauth import rng
from visualauth.adversary import (
    AdversaryConfig,
    AdversaryKind,
    dual_locus_surfer_scenario,
    evaluate,
    fake_server_scenario,
    run_attacked_session,
    run_matrix,
)
from visualauth.entities import EntityKind
from visualauth.protocols import CredentialStore, Protocol, SessionConfig

store = CredentialStore.provision(412)


def spy(protocol, kind, locus, seed):
    handle, result = run_attacked_session(
        SessionConfig(protocol=protocol, seed=seed), AdversaryConfig(kind, locus), store
    )
    outcome = evaluate(handle)
    seen = sorted({obs.data[0] for obs in handle.observations})
    verdict = "resisted" if outcome.resisted() else "BREACHED"
    print(f"  {protocol.value} vs {kind.value} at {locus.value}: {verdict}")
    print(f"    observed: {seen or 'nothing'}")
    if outcome.learned_password:
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
both = dual_locus_surfer_scenario(rng.child_seed(412, "dual"))
print(f"  layout from the phone screen + clicks from the terminal: "
      f"password recovered = {both['password_recovered']}")

print("\n== a phishing server gets nothing ==")
phish = fake_server_scenario(rng.child_seed(412, "phish"))
print(f"  phisher opened the sealed upload: {phish['phisher_decrypted']}")
print(f"  relaying it to the real server: {phish['relay_outcome'].value}")
print(f"  sealing for the wrong server name: {phish['wrong_name_outcome'].value}")
