"""The attacker repertoire: what each adversary sees, and what that buys.

Four attacker kinds live on one of two loci (terminal or smartphone). Each
sees one surface of its locus, a set of (direction, channel kind) pairs
that one io tap on the locus filters by (``SURFACES``):

* keylogger: ("in", CLICK), the input events arriving at its locus.
* shoulder_surfer: ("out", VISUAL), the displays its locus renders.
* malware: every message in and out; it also reads the locus's state, and
  an outbound hook lets it rewrite what the locus sends.
* brute_force: nothing; no foothold at all, a budget-capped password
  guesser.

Nothing here is scored by argument. ``evaluate`` decides whether an
adversary "can authenticate later" by actually mounting the followup: it
replays captured positions, one-time passwords, or ciphertexts through a
fresh session, or runs a whole login with whatever credentials or keys it
exfiltrated, and reports what the server said. The resistance matrix is
therefore an output of the state machines, not a transcription.

In the matrix, one honest session per (protocol, trial) is watched by all
eight adversaries at once (``run_attacked_session`` takes a sequence of
configs), and ``evaluate`` scores each handle into its own cell. That is
sound because the matrix handles are passive: taps only, no hooks, so none
changes what another sees. Follow-ups and alteration runs stay per handle,
seeded by the handle's kind and locus.

Every attack is an honest session plus installs handed to ``run_flow``:
taps and hooks on a locus (an ``AttackerHandle``, ``replaying``) or state
planted on the phone (``phone_holding``). No entity reads an attacker
setting, and no install can move a message off the channel its class
declares.

Attacks outside the matrix are rows of one catalogue, ``ATTACKS``, run by
``run_attack``: phishing (a fake server impersonates the far end rather
than compromising a locus, so it is not an adversary kind), the documented
caveats (the dual-view shoulder surfer, a replayed one-time password), and
an on/off pair for each defence flag (signing, transaction freshness, the
hijack guard), the off row being that defence's positive control.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from . import crypto, qr, rng as rngmod
from .entities import ChannelKind, EntityKind, Message, Session
from .protocols import (
    AUTH_PROTOCOLS,
    CredentialStore,
    ForwardConfirm,
    Outcome,
    Protocol,
    SessionConfig,
    SessionFlags,
    SessionResult,
    SubmitCiphertext,
    SubmitOtp,
    SubmitPositions,
    SubmitTx,
    Transaction,
    _pack_credentials,
    _pack_signed,
    run_flow,
    run_hijack_guard,
)

FOLLOWUP_BUDGET = 16  # default guess cap for the in-matrix brute forcer

EVIL_TX = Transaction(receiver_account="ACCT-6660", amount=999900, receiver_name="mule household")


class AdversaryKind(enum.Enum):
    KEYLOGGER = "keylogger"
    MALWARE = "malware"
    SHOULDER_SURFER = "shoulder_surfer"
    BRUTE_FORCE = "brute_force"


MATRIX_KINDS = (
    AdversaryKind.KEYLOGGER,
    AdversaryKind.MALWARE,
    AdversaryKind.SHOULDER_SURFER,
    AdversaryKind.BRUTE_FORCE,
)
MATRIX_LOCI = (EntityKind.TERMINAL, EntityKind.SMARTPHONE)

# the one pattern the whole simulation must reproduce: resistance holds
# everywhere except these three cells
BROKEN_CELLS = frozenset(
    {
        (Protocol.P2, AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
        (Protocol.P3, AdversaryKind.KEYLOGGER, EntityKind.SMARTPHONE),
        (Protocol.P3, AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
    }
)


def expected_resistance(protocol: Protocol, kind: AdversaryKind, locus: EntityKind) -> bool:
    return (protocol, kind, locus) not in BROKEN_CELLS


# what each kind sees of its locus: the (direction, channel kind) pairs of
# the locus's io that its tap records
SURFACES: dict[AdversaryKind, frozenset[tuple[str, ChannelKind]]] = {
    AdversaryKind.KEYLOGGER: frozenset({("in", ChannelKind.CLICK)}),
    AdversaryKind.SHOULDER_SURFER: frozenset({("out", ChannelKind.VISUAL)}),
    AdversaryKind.MALWARE: frozenset(
        (direction, kind) for direction in ("in", "out") for kind in ChannelKind
    ),
    AdversaryKind.BRUTE_FORCE: frozenset(),
}


@dataclass(frozen=True)
class AdversaryConfig:
    kind: AdversaryKind
    locus: EntityKind = EntityKind.TERMINAL

    def __post_init__(self):
        if self.locus not in MATRIX_LOCI:
            raise ValueError("locus must be terminal or smartphone")


# the eight adversaries that watch each matrix session, in cell order
MATRIX_ADVERSARIES = tuple(AdversaryConfig(kind, locus) for kind in MATRIX_KINDS for locus in MATRIX_LOCI)


@dataclass(frozen=True)
class Observation:
    step: int
    channel_kind: ChannelKind
    data: tuple


@dataclass(frozen=True)
class AttackOutcome:
    learned_password: bool
    learned_reusable_secret: bool
    can_authenticate_later: bool
    can_alter_transaction: bool

    def resisted(self) -> bool:
        return not self.can_authenticate_later


# -------- what a message looks like to an onlooker --------


def _observe(msg: Message) -> tuple | None:
    """Reduce a message to what an observer of that surface learns.

    Input events yield their raw content (a keylogger reads keystrokes, a
    login box read by malware reads fields); displays yield what is drawn,
    which for a masked password entry is only the glyph count.
    """
    tag = msg.tag
    if tag == "type_id":
        return ("typed_id", msg.user_id)
    if tag == "click_positions":
        return ("positions", tuple(msg.positions))
    if tag == "echo_clicks":
        return ("positions", tuple(msg.positions))
    if tag == "type_otp" or tag == "echo_otp" or tag == "show_otp":
        return ("otp", msg.otp)
    if tag == "type_credentials":
        return ("login", msg.user_id, msg.password)
    if tag == "echo_masked_credentials":
        return ("masked_login", msg.user_id, msg.masked)
    if tag == "show_layout":
        return ("layout", msg.layout.serialize())
    if tag == "show_keyboard":
        return ("keyboard", msg.layout_kind)
    if tag == "upload_frame":
        return ("ciphertext", msg.frame.payload)
    if tag == "submit_ciphertext":
        return ("ciphertext", msg.blob)
    if tag == "show_frame":
        return ("frame_payload", msg.context, msg.frame.payload)
    if tag == "show_tx_frame":
        return ("frame_payload", "tx_confirmation", msg.frame.payload)
    if tag in ("connect", "request_tx", "confirm_tx", "confirm_on_phone"):
        return ("click", tag)
    return None


@dataclass
class AttackerHandle:
    """One adversary on one session: config, taps, takings.

    The handle is the install run_flow takes: called with the built (not
    yet run) session, it records the session and puts its kind's tap on
    the locus, and for malware with alter_tx set, a hook that rewrites the
    transaction the locus sends.
    """

    config: AdversaryConfig
    alter_tx: Transaction | None = None  # armed for transaction flows
    session: Session | None = None
    observations: list[Observation] = field(default_factory=list)
    stolen_keypair: crypto.KeyPair | None = None

    def __call__(self, session: Session) -> None:
        self.session = session
        surface = SURFACES[self.config.kind]
        if not surface:
            return
        entity = session.entities[self.config.locus]

        def tap(direction: str, msg: Message) -> None:
            kind = msg.CHANNEL.kind
            data = _observe(msg) if (direction, kind) in surface else None
            if data is not None:
                self.observations.append(Observation(step=session.step, channel_kind=kind, data=data))

        entity.io_taps.append(tap)
        if self.config.kind is AdversaryKind.MALWARE and self.alter_tx is not None:
            entity.outbound_hooks.append(self._alter)

    def _alter(self, msg: Message) -> Message:
        if msg.tag in ("submit_tx", "side_copy"):
            return replace(msg, tx=self.alter_tx)
        return msg

    def observed(self, label: str):
        for obs in self.observations:
            if obs.data[0] == label:
                return obs.data[1:]
        return None


def _exfiltrate(handle: AttackerHandle) -> None:
    """Malware reads its locus outright; a phone compromise yields the key."""
    if handle.config.kind is not AdversaryKind.MALWARE:
        return
    state = handle.session.entities[handle.config.locus].state
    pair = state.get("keypair")
    if isinstance(pair, crypto.KeyPair):
        handle.stolen_keypair = pair


# -------- installs that turn an honest session into an attempt --------


def replaying(submission: Message):
    """A terminal that forwards only what it sends the server, so the
    victim's phone and user take no part, and sends submission up once,
    when the server's first message reaches it."""

    def install(session: Session) -> None:
        terminal = session.entities[EntityKind.TERMINAL]
        sent = False

        def submit(direction: str, msg: Message) -> None:
            nonlocal sent
            if direction == "in" and msg.CHANNEL.name == "net_down" and not sent:
                sent = True
                session.inject(submission)

        terminal.outbound_hooks.append(lambda msg: msg if msg.CHANNEL.receiver is EntityKind.SERVER else None)
        terminal.io_taps.append(submit)

    return install


def phone_holding(**state):
    """A phone that holds state of the attacker's choosing before the user
    begins: a stolen key, the attacker's own key, or a phished
    server_name."""

    def install(session: Session) -> None:
        session.entities[EntityKind.SMARTPHONE].state.update(state)

    return install


# -------- followup attacks: the adversary actually tries --------


def _attempt(config: SessionConfig, store: CredentialStore, install) -> bool:
    return run_flow(config, store, adversaries=[install]).outcome is Outcome.AUTHENTICATED


def _later_authentication(handle: AttackerHandle, budget: int) -> bool:
    """Mount every strategy the observations support against a new session."""
    session = handle.session
    protocol = session.config.protocol
    if protocol not in AUTH_PROTOCOLS:
        return False
    store: CredentialStore = session.store
    seed = rngmod.child_seed(session.seed, "followup", handle.config.kind.value, handle.config.locus.value)

    user_id = session.config.user_id
    login = handle.observed("login")
    if login is not None and protocol is Protocol.P3:
        # learned credentials suffice: encrypt them on any phone at all
        learned_id, password = login
        own_phone = crypto.generate_keypair(crypto.Role.USER, rngmod.fork(seed, "attacker-phone"))
        config = SessionConfig(
            protocol=protocol,
            seed=rngmod.child_seed(seed, "learned-creds"),
            user_id=learned_id,
            submit_passwords=(password,),
        )
        if _attempt(config, store, phone_holding(keypair=own_phone)):
            return True

    if handle.stolen_keypair is not None and protocol is Protocol.P2:
        # the exfiltrated private key opens any future challenge
        config = SessionConfig(protocol=protocol, seed=rngmod.child_seed(seed, "stolen-key"), user_id=user_id)
        if _attempt(config, store, phone_holding(keypair=handle.stolen_keypair)):
            return True

    replays = {
        Protocol.P1: ("positions", SubmitPositions),
        Protocol.P2: ("otp", SubmitOtp),
        Protocol.P3: ("ciphertext", SubmitCiphertext),
    }
    label, submission = replays[protocol]
    captured = handle.observed(label)
    if captured is not None:
        config = SessionConfig(protocol=protocol, seed=rngmod.child_seed(seed, "replay"), user_id=user_id)
        if _attempt(config, store, replaying(submission(captured[0]))):
            return True

    if handle.config.kind is AdversaryKind.BRUTE_FORCE:
        return brute_force_guessing(store, user_id, budget, seed) > 0
    return False


def _transaction_alteration(handle: AttackerHandle) -> bool:
    """Can the compromise push an altered transaction past the live guard?"""
    if handle.config.kind is not AdversaryKind.MALWARE:
        return False
    session = handle.session
    store: CredentialStore = session.store
    seed = rngmod.child_seed(session.seed, "alter-tx", handle.config.locus.value)
    config = SessionConfig(protocol=Protocol.HIJACKGUARD, seed=seed, flags=session.config.flags)
    result = run_hijack_guard(config, store, adversaries=[AttackerHandle(handle.config, alter_tx=EVIL_TX)])
    return result.session.executed_tx == EVIL_TX


def evaluate(handle: AttackerHandle, followup_budget: int = FOLLOWUP_BUDGET) -> AttackOutcome:
    """Score a completed, observed session by attacking its aftermath."""
    _exfiltrate(handle)
    login = handle.observed("login")
    learned_password = login is not None
    later = _later_authentication(handle, followup_budget)
    return AttackOutcome(
        learned_password=learned_password,
        learned_reusable_secret=learned_password or handle.stolen_keypair is not None,
        can_authenticate_later=later,
        can_alter_transaction=_transaction_alteration(handle),
    )


def run_attacked_session(
    session_config: SessionConfig,
    configs: Sequence[AdversaryConfig],
    store: CredentialStore | None = None,
) -> tuple[list[AttackerHandle], SessionResult]:
    """Honest run with one adversary per config attached; returns the
    handles, in the order of configs, and the result."""
    store = store or CredentialStore.provision(rngmod.child_seed(session_config.seed, "store"))
    handles = [AttackerHandle(config) for config in configs]
    result = run_flow(session_config, store, adversaries=handles)
    return handles, result


# -------- the keylogger posterior, in closed form --------


def posterior_count(observed_positions: tuple[int, ...] | list[int], k: int, n: int) -> int:
    """Passwords of length n over a k-symbol alphabet consistent with the
    observed click positions on a k-position blank keyboard.

    A uniformly random layout maps the d distinct observed positions to d
    distinct symbols, any of them; repeated positions repeat a symbol. So
    the posterior is the falling factorial P(k, d).
    """
    if len(observed_positions) != n:
        raise ValueError("need exactly one observed position per password symbol")
    if any(p < 0 or p >= k for p in observed_positions):
        raise ValueError("observed position outside the keyboard")
    return math.perm(k, len(set(observed_positions)))


# -------- offline guessing --------


def brute_force_guessing(
    store: CredentialStore, user_id: str, budget: int, seed: int
) -> int:
    """Random password guesses against the stored credential; returns hits.

    Models the offline attacker with no foothold: each guess is a fresh
    uniform draw over the full password space.
    """
    password = store.users[user_id].password
    rng = rngmod.fork(seed, "bruteforce")
    length = len(password)
    hits = 0
    for _ in range(budget):
        guess = "".join(rng.choices(crypto.ALPHABET, k=length))
        if guess == password:
            hits += 1
    return hits


# -------- the attack catalogue: named attacks beyond the matrix --------
#
# A row is one session of its protocol under its flags. Its setup(config,
# store) runs any earlier session the attack needs on the same store and
# returns the installs plus a breach test over the finished SessionResult.
# A defence flag's pair of rows shares protocol and setup and differs only
# in that flag; the off row is the defence's positive control.


_TERMINAL_MALWARE = AdversaryConfig(AdversaryKind.MALWARE, EntityKind.TERMINAL)


def _authenticated(result: SessionResult) -> bool:
    return result.outcome is Outcome.AUTHENTICATED


def _executed_evil(result: SessionResult) -> bool:
    return result.session.executed_tx == EVIL_TX


def _terminal_rewriting(**changes):
    """A terminal that rewrites what it sends: changes maps a tag to new field values."""

    def install(session: Session) -> None:
        session.entities[EntityKind.TERMINAL].outbound_hooks.append(
            lambda msg: replace(msg, **changes[msg.tag]) if msg.tag in changes else msg
        )

    return install


def _dual_locus_surfer(config: SessionConfig, store: CredentialStore):
    """Onlookers at BOTH screens apply the phone's layout to the terminal's
    click echoes; neither screen alone leaks the password."""
    terminal = AttackerHandle(AdversaryConfig(AdversaryKind.SHOULDER_SURFER, EntityKind.TERMINAL))
    phone = AttackerHandle(AdversaryConfig(AdversaryKind.SHOULDER_SURFER, EntityKind.SMARTPHONE))

    def breached(result: SessionResult) -> bool:
        layout, clicks = phone.observed("layout"), terminal.observed("positions")
        return bool(layout and clicks) and (
            crypto.KeyboardPermutation.from_serialized(layout[0]).resolve(clicks[0])
            == store.users[config.user_id].password
        )

    return [terminal, phone], breached


def _forged_layout(config: SessionConfig, store: CredentialStore):
    """Terminal malware shows the phone its own layout, sealed to the user's
    public key (anyone can) but unsigned, and reads the password off the
    clicks made under it. Only the server's signature exposes the swap."""
    layout = crypto.generate_permutation(rngmod.fork(config.seed, "attacker-layout"))
    user_public = store.users[config.user_id].keypair.public_key
    sealed = crypto.encrypt(user_public, layout.serialize(), rngmod.fork(config.seed, "attacker-seal"))
    payload = _pack_signed(sealed, None)
    frame = qr.qr_encode(payload, qr.choose_spec(payload, config.frame_ec))

    def breached(result: SessionResult) -> bool:
        clicks = [e.message.positions for e in result.session.transcript if e.tag == "click_positions"]
        return bool(clicks) and layout.resolve(clicks[0]) == store.users[config.user_id].password

    return [_terminal_rewriting(show_frame={"frame": frame})], breached


def _otp_replay(config: SessionConfig, store: CredentialStore):
    """Replay the one-time password terminal malware read in an earlier login."""
    earlier = replace(config, seed=rngmod.child_seed(config.seed, "capture"))
    (handle,), _ = run_attacked_session(earlier, [_TERMINAL_MALWARE], store)
    (otp,) = handle.observed("otp")
    return [replaying(SubmitOtp(otp=otp))], _authenticated


def _phish_relay(config: SessionConfig, store: CredentialStore):
    """Relay credentials the phone sealed over a phisher's nonce to the GENUINE server."""
    credential = store.users[config.user_id]
    nonce = crypto.fresh_nonce(rngmod.fork(config.seed, "phisher-nonce"))
    plain = _pack_credentials(nonce.value, credential.user_id, credential.password, store.server_name)
    sealed = crypto.encrypt(store.server_pair.public_key, plain, rngmod.fork(config.seed, "phone-seal"))
    return [replaying(SubmitCiphertext(blob=sealed.to_bytes()))], _authenticated


def _phish_wrong_name(config: SessionConfig, store: CredentialStore):
    """A phone holding a phisher's server name seals it into the credentials."""
    return [phone_holding(server_name="totally-real-bank")], _authenticated


def _stale_receipt(config: SessionConfig, store: CredentialStore):
    """Terminal malware submits its own transaction and papers over it with an
    earlier clean session's receipt, barcode and page alike. Only the session
    nonce inside the signed receipt tells the phone it is stale."""
    clean = run_flow(replace(config, seed=rngmod.child_seed(config.seed, "clean")), store)
    receipt = next(e.message for e in clean.session.transcript if e.tag == "tx_confirmation")
    stale = _terminal_rewriting(
        submit_tx={"tx": EVIL_TX},
        show_tx_frame={"frame": receipt.frame},
        show_tx_page={"tx": receipt.display_tx},
    )
    return [stale], _executed_evil


def _forged_confirm(config: SessionConfig, store: CredentialStore):
    """Terminal malware submits its own transaction and confirms it itself."""

    def install(session: Session) -> None:
        def forge(direction: str, msg: Message) -> None:
            if direction == "in" and msg.tag == "request_tx":
                session.inject(SubmitTx(tx=EVIL_TX))
                session.inject(ForwardConfirm(ok=True))

        session.entities[EntityKind.TERMINAL].io_taps.append(forge)

    return [install], _executed_evil


def _hijack(config: SessionConfig, store: CredentialStore):
    """Terminal malware rewrites the live transaction; the phone's signed side copy shows it."""
    return [AttackerHandle(_TERMINAL_MALWARE, alter_tx=EVIL_TX)], _executed_evil


@dataclass(frozen=True)
class Attack:
    name: str
    protocol: Protocol
    flags: SessionFlags
    setup: Callable[[SessionConfig, CredentialStore], tuple[list, Callable[[SessionResult], bool]]]
    expect_breach: bool


ATTACKS: dict[str, Attack] = {
    attack.name: attack
    for attack in (
        Attack("dual_locus_surfer", Protocol.P1, SessionFlags(), _dual_locus_surfer, True),
        Attack("forged_layout", Protocol.P1, SessionFlags(), _forged_layout, False),
        Attack("forged_layout/no_signing", Protocol.P1, SessionFlags(sign_server_payloads=False),
               _forged_layout, True),
        Attack("otp_replay", Protocol.P2, SessionFlags(), _otp_replay, False),
        Attack("phish_relay", Protocol.P3, SessionFlags(), _phish_relay, False),
        Attack("phish_wrong_name", Protocol.P3, SessionFlags(), _phish_wrong_name, False),
        Attack("stale_receipt", Protocol.TXVERIFY, SessionFlags(), _stale_receipt, False),
        Attack("stale_receipt/no_freshness", Protocol.TXVERIFY, SessionFlags(tx_nonce_freshness=False),
               _stale_receipt, True),
        # the known break; binding the confirmation to the phone flips it
        Attack("forged_confirm", Protocol.TXVERIFY, SessionFlags(), _forged_confirm, True),
        Attack("hijack", Protocol.HIJACKGUARD, SessionFlags(), _hijack, False),
        Attack("hijack/no_guard", Protocol.HIJACKGUARD, SessionFlags(hijack_guard=False), _hijack, True),
    )
}


@dataclass(frozen=True)
class AttackResult:
    attack: Attack
    outcome: Outcome
    breached: bool
    late_verdicts: tuple[tuple[int, Outcome], ...]  # (step, verdict) after the outcome settled


def run_attack(attack: Attack, seed: int, store: CredentialStore | None = None) -> AttackResult:
    """Run the row as one session of its protocol and judge it by its breach test."""
    store = store or CredentialStore.provision(rngmod.child_seed(seed, "store"))
    config = SessionConfig(protocol=attack.protocol, seed=seed, flags=attack.flags)
    installs, breached = attack.setup(config, store)
    result = run_flow(config, store, adversaries=installs)
    return AttackResult(attack, result.outcome, breached(result), tuple(result.session.late_verdicts))


# -------- the full resistance matrix --------


@dataclass(frozen=True)
class MatrixCell:
    protocol: Protocol
    kind: AdversaryKind
    locus: EntityKind
    trials: int
    breaches: int
    expected_resist: bool

    @property
    def resisted(self) -> bool:
        return self.breaches == 0

    @property
    def matches_expected(self) -> bool:
        return self.resisted == self.expected_resist


def run_matrix(seed: int, trials: int = 100, followup_budget: int = FOLLOWUP_BUDGET) -> list[MatrixCell]:
    """Every protocol x adversary x locus, each cell over seeded trials.

    A cell resists when no trial's adversary could authenticate later.
    Each (protocol, trial) is one honest session watched by all eight
    adversaries at once. Sharing it is sound because every matrix handle
    is passive: it installs taps and no hook, so no handle changes what
    another sees. Each handle is then evaluated into its own cell, with
    its own follow-ups and alteration run.
    """
    store = CredentialStore.provision(rngmod.child_seed(seed, "matrix-store"))
    cells = []
    for protocol in AUTH_PROTOCOLS:
        breaches = dict.fromkeys(MATRIX_ADVERSARIES, 0)
        for trial in range(trials):
            session_config = SessionConfig(protocol=protocol, seed=rngmod.child_seed(seed, protocol.value, str(trial)))
            handles, _ = run_attacked_session(session_config, MATRIX_ADVERSARIES, store)
            for handle in handles:
                if evaluate(handle, followup_budget).can_authenticate_later:
                    breaches[handle.config] += 1
        cells.extend(
            MatrixCell(
                protocol=protocol,
                kind=config.kind,
                locus=config.locus,
                trials=trials,
                breaches=breaches[config],
                expected_resist=expected_resistance(protocol, config.kind, config.locus),
            )
            for config in MATRIX_ADVERSARIES
        )
    return cells
