"""The attacker repertoire: what each adversary sees, and what that buys.

Four attacker kinds live on one of two loci (terminal or smartphone). Each
sees one surface of its locus, a set of (direction, channel kind) pairs
(``SURFACES``); an ``AttackerHandle`` reads that surface off the finished
session's transcript, with the step of each sighting:

* keylogger: ("in", CLICK), the input events arriving at its locus.
* shoulder_surfer: ("out", VISUAL), the displays its locus renders.
* malware: every message in and out; it also reads the locus's state.
* brute_force: nothing; no foothold at all, a budget-capped password
  guesser.

A view sees each message on its surface whole, as a Dolev-Yao attacker
knows all on the channels it sees: ``observe`` gives every field, a frame
as its payload and a layout serialized. A message class declares only the
label it is filed under, at its registration, by default its tag. No rule
here names a message, so the views fail closed: none misses a new class.

Nothing here is scored by argument. ``evaluate`` decides whether an
adversary "can authenticate later" by actually mounting the followup: it
replays captured positions, one-time passwords, or ciphertexts through a
fresh session, or runs a whole login with whatever credentials or keys it
exfiltrated, and reports what the server said. The resistance matrix is
therefore an output of the state machines, not a transcription.

In the matrix, one honest session per (protocol, trial) is read by all
eight adversaries: ``run_attacked_session`` observes each delivery once
and returns one view per config, and ``evaluate`` scores each view into
its own cell. A view only reads, so no adversary changes what another
sees. Views that captured the same loot share one follow-up
(``_attempt``), a matrix mounts one alteration probe per (locus, flags)
(``_transaction_alteration``), and the brute-force guesses stay per view.

Every active attack is an honest session plus a tuple of actions handed
to ``run_flow`` (``entities.ACTIONS``): a terminal that drops what it
shows and injects a captured submission (``replay``), Rewrites of what a
locus sends (``_altering``), or state Planted on the phone. Each is a
frozen value that holds no session, so an attack prints, compares and
runs again as it is, and none can move a message off its class's channel.

Attacks outside the matrix are rows of one catalogue, ``ATTACKS``, run by
``run_attack``: phishing (a fake server impersonates the far end rather
than compromising a locus, so it is not an adversary kind), the documented
caveats (the dual-view shoulder surfer, a replayed one-time password), and
an on/off pair for each defence flag (signing, transaction freshness, the
hijack guard against an altered and against a suppressed side copy), the
off row being that defence's positive control.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import InitVar, dataclass, field, replace

from . import crypto, qr, rng as rngmod
from .entities import (
    CHANNELS, MESSAGES, ChannelKind, Drop, EntityKind, Inject, Message, Plant, Rewrite, Session,
)
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

FOLLOWUP_BUDGET = 16  # guesses the brute forcer makes in its follow-up

EVIL_TX = Transaction(receiver_account="ACCT-6660", amount=999900, receiver_name="mule household")


class AdversaryKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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
# the traffic into ("in") and out of ("out") the locus that it records
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


# the eight adversaries that read each matrix session, in cell order
MATRIX_ADVERSARIES = tuple(AdversaryConfig(kind, locus) for kind in MATRIX_KINDS for locus in MATRIX_LOCI)

# (kind, locus) -> names of the channels that kind sees at that locus: "in"
# where the locus receives, "out" where it is the channel's sender
_VISIBLE = {
    (kind, locus): frozenset(
        channel.name
        for channel in CHANNELS.values()
        if ("in", channel.kind) in surface and channel.receiver is locus
        or ("out", channel.kind) in surface and channel.sender is locus
    )
    for kind, surface in SURFACES.items()
    for locus in MATRIX_LOCI
}


@dataclass(frozen=True)
class Observation:
    step: int  # the transcript step of the delivery
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


def observe(message: Message) -> tuple:
    """What an onlooker of message's channel sees: the label its class was
    registered with, then every field in declaration order. A frame shows
    its payload and a layout its serialization, inside tuples too."""
    return (message.LABEL, *[_shown(getattr(message, name)) for name in message.FIELDS])


def _sightings(transcript: Sequence[Message], shown: frozenset[str]) -> list[tuple[str, Observation]]:
    """(channel name, Observation) for each delivery on a channel in shown,
    in transcript order: one reading that every view of the session filters."""
    return [
        (message.CHANNEL.name, Observation(step, observe(message)))
        for step, message in enumerate(transcript, 1)
        if message.CHANNEL.name in shown
    ]


def _shown(value):
    if isinstance(value, qr.VisualFrame):
        return value.payload
    if isinstance(value, crypto.KeyboardPermutation):
        return value.serialize()
    if isinstance(value, tuple):
        return tuple(map(_shown, value))
    return value


@dataclass
class AttackerHandle:
    """What one adversary takes from one finished session: a read-only view.

    observations are the delivered messages on a channel its kind's surface
    shows at its locus, each whole (observe fails closed), in transcript
    order. Traffic is attributed by channel: a message injected on net_up
    reads as the terminal's "out". Malware also reads its locus's final
    state, so a phone compromise yields the key pair.

    sightings, when given, is the session's reading by run_attacked_session,
    which the views of one session share; a handle built alone reads the
    transcript itself.
    """

    config: AdversaryConfig
    session: Session
    # the follow-up verdicts of _attempt and _transaction_alteration, shared
    # as run_attacked_session says; a handle built alone gets its own
    attempts: dict[tuple, bool] = field(default_factory=dict, repr=False, compare=False)
    sightings: InitVar[Sequence[tuple[str, Observation]] | None] = None
    observations: list[Observation] = field(init=False)
    stolen_keypair: crypto.KeyPair | None = field(init=False, default=None)

    def __post_init__(self, sightings):
        visible = _VISIBLE[self.config.kind, self.config.locus]
        if sightings is None:
            sightings = _sightings(self.session.transcript, visible)
        self.observations = [obs for name, obs in sightings if name in visible]
        if self.config.kind is AdversaryKind.MALWARE:
            pair = self.session.entities[self.config.locus].state.get("keypair")
            if isinstance(pair, crypto.KeyPair):
                self.stolen_keypair = pair

    def observed(self, label: str):
        for obs in self.observations:
            if obs.data[0] == label:
                return obs.data[1:]
        return None


# -------- actions that turn an honest session into an attempt --------

_TERMINAL_SHOWS = tuple(  # what the terminal sends to anyone but the server
    Drop(EntityKind.TERMINAL, tag)
    for tag, cls in MESSAGES.items()
    if cls.CHANNEL.sender is EntityKind.TERMINAL and cls.CHANNEL.receiver is not EntityKind.SERVER
)


def replay(submission: Message) -> tuple:
    """A terminal that shows the victim's phone and user nothing, and sends
    submission up as the server's challenge reaches it: delivery 3 of every login."""
    return (*_TERMINAL_SHOWS, Inject(submission, 3))


def _altering(locus: EntityKind) -> tuple:
    """Malware at locus that puts EVIL_TX in the transaction the locus sends."""
    return (Rewrite(locus, "submit_tx" if locus is EntityKind.TERMINAL else "side_copy", {"tx": EVIL_TX}),)


# -------- followup attacks: the adversary actually tries --------


# strategy -> loot -> (SessionConfig fields, actions)
_STRATEGIES = {
    # learned credentials suffice: any phone seals them, even a keyless one.
    # Only P3 mounts this; its phone reads only the server's key and name and the nonce
    "learned-creds": lambda password: (
        {"submit_passwords": (password,)}, (Plant(EntityKind.SMARTPHONE, {"keypair": None}),)
    ),
    # the exfiltrated private key opens any future challenge
    "stolen-key": lambda keypair: ({}, (Plant(EntityKind.SMARTPHONE, {"keypair": keypair}),)),
    "replay": lambda submission: ({}, replay(submission)),
}

# what each login's replay resubmits: the observation label and its message
_REPLAYS = {
    Protocol.P1: ("positions", SubmitPositions),
    Protocol.P2: ("otp", SubmitOtp),
    Protocol.P3: ("ciphertext", SubmitCiphertext),
}


def _attempt(handle: AttackerHandle, strategy: str, user_id: str, loot) -> bool:
    """Did logging in as user_id with loot succeed? The first view of the
    observed session to ask mounts the attempt; the others read its verdict.
    The key names the session's seed, which seeds the attempt, so a map
    shared across sessions still mounts one attempt per observed session."""
    session = handle.session
    key = (strategy, user_id, loot, session.seed)
    if key not in handle.attempts:
        seed = rngmod.child_seed(session.seed, "followup", strategy)
        fields, actions = _STRATEGIES[strategy](loot)
        config = SessionConfig(protocol=session.config.protocol, seed=seed, user_id=user_id, **fields)
        result = run_flow(config, session.store, actions)
        handle.attempts[key] = result.outcome is Outcome.AUTHENTICATED
    return handle.attempts[key]


def _later_authentication(handle: AttackerHandle) -> bool:
    """Try every strategy the observations support against a new session."""
    session = handle.session
    protocol = session.config.protocol
    if protocol not in AUTH_PROTOCOLS:
        return False
    user_id = session.config.user_id
    login = handle.observed("login")
    if login is not None and protocol is Protocol.P3 and _attempt(handle, "learned-creds", *login):
        return True
    pair = handle.stolen_keypair
    if pair is not None and protocol is Protocol.P2 and _attempt(handle, "stolen-key", user_id, pair):
        return True
    label, submission = _REPLAYS[protocol]
    captured = handle.observed(label)
    if captured is not None and _attempt(handle, "replay", user_id, submission(captured[0])):
        return True
    if handle.config.kind is AdversaryKind.BRUTE_FORCE:
        kind, locus = handle.config.kind.value, handle.config.locus.value
        seed = rngmod.child_seed(session.seed, "followup", kind, locus)
        return brute_force_guessing(session.store, user_id, FOLLOWUP_BUDGET, seed) > 0
    return False


def _transaction_alteration(handle: AttackerHandle) -> bool:
    """Can the compromise push an altered transaction past the live guard?

    The probe is a HIJACKGUARD session of its own, so its verdict depends
    only on the locus and the flags: the first malware view to ask mounts
    it, seeded by its own session, and every view sharing the attempts
    map reads that verdict."""
    if handle.config.kind is not AdversaryKind.MALWARE:
        return False
    session, locus = handle.session, handle.config.locus
    key = ("alter-tx", locus, session.config.flags)
    if key not in handle.attempts:
        seed = rngmod.child_seed(session.seed, "alter-tx", locus.value)
        config = SessionConfig(protocol=Protocol.HIJACKGUARD, seed=seed, flags=session.config.flags)
        result = run_hijack_guard(config, session.store, _altering(locus))
        handle.attempts[key] = result.session.executed_tx == EVIL_TX
    return handle.attempts[key]


def evaluate(handle: AttackerHandle) -> AttackOutcome:
    """Score a completed, observed session by attacking its aftermath."""
    login = handle.observed("login")
    learned_password = login is not None
    later = _later_authentication(handle)
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
    attempts: dict[tuple, bool] | None = None,
) -> tuple[list[AttackerHandle], SessionResult]:
    """One honest run, read by one adversary per config; returns the
    views, in the order of configs, sharing one attempts map and one
    reading of the transcript, and the result.

    The map is fresh unless attempts is given. run_matrix passes one map
    to all its sessions, on one store, so that the alteration probe runs
    once per (locus, flags); every other caller scores a session alone.
    """
    store = store or CredentialStore.provision(rngmod.child_seed(session_config.seed, "store"))
    result = run_flow(session_config, store)
    attempts = {} if attempts is None else attempts
    shown = frozenset().union(*(_VISIBLE[config.kind, config.locus] for config in configs))
    sightings = _sightings(result.session.transcript, shown)
    return [AttackerHandle(config, result.session, attempts, sightings) for config in configs], result


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


def brute_force_guessing(store: CredentialStore, user_id: str, budget: int, seed: int) -> int:
    """Random password guesses against the stored credential; returns hits.

    Models the offline attacker with no foothold: each guess is a fresh
    uniform draw over the full password space. All budget guesses are drawn
    in one call and read as consecutive slices; choices draws one random()
    per symbol either way, so these are the guesses one call per guess made.
    """
    password = store.users[user_id].password
    length = len(password)
    symbols = "".join(rngmod.fork(seed, "bruteforce").choices(crypto.ALPHABET, k=budget * length))
    return sum(symbols[i * length:(i + 1) * length] == password for i in range(budget))


# -------- the attack catalogue: named attacks beyond the matrix --------
#
# A row is one session of its protocol under its flags. Its setup(config,
# store) runs any earlier session the attack needs on the same store and
# returns the attack's actions plus a breach test over the finished
# SessionResult.
# A defence flag's pair of rows shares protocol and setup and differs only
# in that flag; the off row is the defence's positive control.


_TERMINAL_MALWARE = AdversaryConfig(AdversaryKind.MALWARE, EntityKind.TERMINAL)


def _authenticated(result: SessionResult) -> bool:
    return result.outcome is Outcome.AUTHENTICATED


def _executed_evil(result: SessionResult) -> bool:
    return result.session.executed_tx == EVIL_TX


def _dual_locus_surfer(config: SessionConfig, store: CredentialStore):
    """Onlookers at BOTH screens apply the phone's layout to the terminal's
    click echoes; neither screen alone leaks the password."""

    def breached(result: SessionResult) -> bool:
        terminal, phone = (
            AttackerHandle(AdversaryConfig(AdversaryKind.SHOULDER_SURFER, locus), result.session)
            for locus in MATRIX_LOCI
        )
        layout, clicks = phone.observed("layout"), terminal.observed("positions")
        return bool(layout and clicks) and (
            crypto.KeyboardPermutation.from_serialized(layout[0]).resolve(clicks[0])
            == store.users[config.user_id].password
        )

    return (), breached


def _forged_layout(config: SessionConfig, store: CredentialStore):
    """Terminal malware shows the phone its own layout, sealed to the user's
    public key (anyone can) but unsigned, and reads the password off the
    clicks made under it. Only the server's signature exposes the swap."""
    layout = crypto.generate_permutation(rngmod.fork(config.seed, "attacker-layout"))
    user_public = store.users[config.user_id].keypair.public_key
    sealed = crypto.encrypt(user_public, layout.serialize(), rngmod.fork(config.seed, "attacker-seal"))
    payload = _pack_signed(sealed.to_bytes(), None)
    frame = qr.qr_encode(payload, qr.choose_spec(payload, config.frame_ec))

    def breached(result: SessionResult) -> bool:
        clicks = [m.positions for m in result.session.transcript if m.TAG == "click_positions"]
        return bool(clicks) and layout.resolve(clicks[0]) == store.users[config.user_id].password

    return (Rewrite(EntityKind.TERMINAL, "show_frame", {"frame": frame}),), breached


def _otp_replay(config: SessionConfig, store: CredentialStore):
    """Replay the one-time password terminal malware read in an earlier login."""
    earlier = replace(config, seed=rngmod.child_seed(config.seed, "capture"))
    (handle,), _ = run_attacked_session(earlier, [_TERMINAL_MALWARE], store)
    (otp,) = handle.observed("otp")
    return replay(SubmitOtp(otp=otp)), _authenticated


def _phish_relay(config: SessionConfig, store: CredentialStore):
    """Relay credentials the phone sealed over a phisher's nonce to the GENUINE server."""
    credential = store.users[config.user_id]
    nonce = crypto.fresh_nonce(rngmod.fork(config.seed, "phisher-nonce"))
    plain = _pack_credentials(nonce.value, credential.user_id, credential.password, store.server_name)
    sealed = crypto.encrypt(store.server_pair.public_key, plain, rngmod.fork(config.seed, "phone-seal"))
    return replay(SubmitCiphertext(blob=sealed.to_bytes())), _authenticated


def _phish_wrong_name(config: SessionConfig, store: CredentialStore):
    """A phone holding a phisher's server name seals it into the credentials."""
    return (Plant(EntityKind.SMARTPHONE, {"server_name": "totally-real-bank"}),), _authenticated


def _stale_receipt(config: SessionConfig, store: CredentialStore):
    """Terminal malware submits its own transaction and papers over it with an
    earlier clean session's receipt, barcode and page alike. Only the session
    nonce inside the signed receipt tells the phone it is stale."""
    clean = run_flow(replace(config, seed=rngmod.child_seed(config.seed, "clean")), store)
    receipt = next(m for m in clean.session.transcript if m.TAG == "tx_confirmation")
    return (
        Rewrite(EntityKind.TERMINAL, "submit_tx", {"tx": EVIL_TX}),
        Rewrite(EntityKind.TERMINAL, "show_frame", {"frame": receipt.frame}),
        Rewrite(EntityKind.TERMINAL, "show_tx_page", {"tx": receipt.display_tx}),
    ), _executed_evil


def _forged_confirm(config: SessionConfig, store: CredentialStore):
    """Terminal malware submits its own transaction and confirms it itself."""
    at = (EntityKind.TERMINAL, "request_tx")
    return (Inject(SubmitTx(tx=EVIL_TX), at), Inject(ForwardConfirm(ok=True), at)), _executed_evil


def _hijack(config: SessionConfig, store: CredentialStore):
    """Terminal malware rewrites the live transaction; the phone's signed side copy shows it."""
    return _altering(EntityKind.TERMINAL), _executed_evil


def _suppressed_side_copy(config: SessionConfig, store: CredentialStore):
    """Phone malware drops the side copy, so a transaction the server
    executes is one no verified side copy backs."""
    return (Drop(EntityKind.SMARTPHONE, "side_copy"),), lambda result: result.session.executed_tx is not None


@dataclass(frozen=True)
class Attack:
    name: str
    protocol: Protocol
    flags: SessionFlags
    setup: Callable[[SessionConfig, CredentialStore], tuple[tuple, Callable[[SessionResult], bool]]]
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
        Attack("suppressed_side_copy", Protocol.HIJACKGUARD, SessionFlags(), _suppressed_side_copy, False),
        Attack("suppressed_side_copy/no_guard", Protocol.HIJACKGUARD, SessionFlags(hijack_guard=False),
               _suppressed_side_copy, True),
    )
}


@dataclass(frozen=True)
class AttackResult:
    attack: Attack
    outcome: Outcome
    breached: bool
    late_verdicts: tuple[tuple[int, Outcome, str | None], ...]  # Session.late_verdicts


def run_attack(attack: Attack, seed: int, store: CredentialStore | None = None) -> AttackResult:
    """Run the row as one session of its protocol and judge it by its breach test."""
    store = store or CredentialStore.provision(rngmod.child_seed(seed, "store"))
    config = SessionConfig(protocol=attack.protocol, seed=seed, flags=attack.flags)
    actions, breached = attack.setup(config, store)
    result = run_flow(config, store, actions)
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


def run_matrix(seed: int, trials: int = 100) -> list[MatrixCell]:
    """Every protocol x adversary x locus, each cell over seeded trials.

    A cell resists when no trial's adversary could authenticate later.
    Each (protocol, trial) is one honest session read by all eight
    adversaries; each view is evaluated into its own cell. Views of one
    session holding the same loot share one follow-up and its verdict; the
    brute-force guesses stay per view. All sessions share one attempts map,
    so the alteration probe, whose verdict the cells do not read, runs once
    per (locus, flags) for the whole matrix; follow-ups are keyed by their
    session's seed and so are never shared across trials.
    """
    store = CredentialStore.provision(rngmod.child_seed(seed, "matrix-store"))
    attempts: dict[tuple, bool] = {}
    cells = []
    for protocol in AUTH_PROTOCOLS:
        breaches = dict.fromkeys(MATRIX_ADVERSARIES, 0)
        for trial in range(trials):
            trial_seed = rngmod.child_seed(seed, protocol.value, str(trial))
            session_config = SessionConfig(protocol=protocol, seed=trial_seed)
            handles, _ = run_attacked_session(session_config, MATRIX_ADVERSARIES, store, attempts)
            for handle in handles:
                if evaluate(handle).can_authenticate_later:
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
