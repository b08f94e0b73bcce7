"""Adversary observations, followup attacks, the resistance matrix."""

from __future__ import annotations

import dataclasses
import itertools
import operator

import pytest

from visualauth import adversary, crypto, rng as rngmod
from visualauth.adversary import (
    ATTACKS,
    BROKEN_CELLS,
    EVIL_TX,
    AdversaryConfig,
    AdversaryKind,
    MatrixCell,
    brute_force_guessing,
    evaluate,
    expected_resistance,
    posterior_count,
    replay,
    run_attack,
    run_attacked_session,
    run_matrix,
)
from visualauth.entities import ACTIONS, EntityKind, Inject, Message
from visualauth.protocols import (
    AUTH_PROTOCOLS,
    DEFAULT_TX,
    DEFAULT_VIEW_FIELDS,
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    SessionFlags,
    SessionResult,
    SubmitCiphertext,
    SubmitPositions,
    run_flow,
)
from visualauth.qr import VisualFrame


# -------- the posterior oracle, computed before anything is trusted --------
#
# Desk-scale instance: a 5-position blank keyboard and 2-symbol passwords.
# The oracle enumerates BOTH sides (all 120 layouts x all 25 candidate
# passwords) and asks, per password, whether some layout reconciles it
# with the observed clicks. posterior_count is a closed form; the layout
# enumeration below checks it on every small instance.

ORACLE_K = 5
ORACLE_N = 2
ORACLE_DISTINCT_POSITIONS = (1, 3)
ORACLE_REPEATED_POSITIONS = (2, 2)

# frozen outputs of the oracle below; recomputed in the test every run
ORACLE_DISTINCT_COUNT = 20
ORACLE_REPEATED_COUNT = 5


def _feasible_passwords(observed: tuple[int, ...], k: int) -> set[tuple[int, ...]]:
    feasible = set()
    for password in itertools.product(range(k), repeat=len(observed)):
        for layout in itertools.permutations(range(k)):
            if all(layout[p] == c for p, c in zip(observed, password)):
                feasible.add(password)
                break
    return feasible


def _layout_posterior(observed: tuple[int, ...], layouts: list[tuple[int, ...]]) -> int:
    """Distinct passwords the clicks spell under some layout."""
    if not observed:
        return 1
    spell = operator.itemgetter(*observed)
    return len({spell(layout) for layout in layouts})


def _falling_factorial(k: int, d: int) -> int:
    out = 1
    for i in range(d):
        out *= k - i
    return out


class TestPosteriorOracle:
    def test_oracle_distinct_positions(self):
        oracle = _feasible_passwords(ORACLE_DISTINCT_POSITIONS, ORACLE_K)
        assert len(oracle) == ORACLE_DISTINCT_COUNT
        assert (
            posterior_count(ORACLE_DISTINCT_POSITIONS, ORACLE_K, ORACLE_N)
            == ORACLE_DISTINCT_COUNT
        )

    def test_oracle_repeated_positions(self):
        oracle = _feasible_passwords(ORACLE_REPEATED_POSITIONS, ORACLE_K)
        assert len(oracle) == ORACLE_REPEATED_COUNT
        assert (
            posterior_count(ORACLE_REPEATED_POSITIONS, ORACLE_K, ORACLE_N)
            == ORACLE_REPEATED_COUNT
        )
        # repeated clicks pin the symbols to be equal, nothing more
        assert all(a == b for a, b in _feasible_passwords((2, 2), ORACLE_K))

    def test_posterior_is_the_falling_factorial_of_distinct_clicks(self):
        # every position tuple with k <= 7 and n <= 4, 5,635 instances,
        # against the enumeration of all k! layouts
        checked = 0
        for k in range(1, 8):
            layouts = list(itertools.permutations(range(k)))
            for n in range(5):
                for positions in itertools.product(range(k), repeat=n):
                    expected = _layout_posterior(positions, layouts)
                    assert expected == _falling_factorial(k, len(set(positions)))
                    assert posterior_count(positions, k, n) == expected
                    checked += 1
        assert checked == 5635

    def test_full_keyboard_zero_observations(self):
        # nothing observed: the posterior is everything, reported as 1
        # consistent with the empty password
        assert posterior_count((), 36, 0) == 1

    def test_instance_guards(self):
        with pytest.raises(ValueError):
            posterior_count((0, 1), 5, 3)  # length mismatch
        with pytest.raises(ValueError):
            posterior_count((7,), 5, 1)  # position off the keyboard
        # the real k = 36 case, past any enumeration: P(36, 4)
        assert posterior_count((0, 1, 2, 3), 36, 4) == 1413720


class TestExpectedPattern:
    def test_exactly_three_broken_cells(self):
        assert BROKEN_CELLS == {
            (Protocol.P2, AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
            (Protocol.P3, AdversaryKind.KEYLOGGER, EntityKind.SMARTPHONE),
            (Protocol.P3, AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
        }

    def test_expected_resistance_mirrors_the_set(self):
        total = 0
        broken = 0
        for protocol in AUTH_PROTOCOLS:
            for kind in (
                AdversaryKind.KEYLOGGER,
                AdversaryKind.MALWARE,
                AdversaryKind.SHOULDER_SURFER,
                AdversaryKind.BRUTE_FORCE,
            ):
                for locus in (EntityKind.TERMINAL, EntityKind.SMARTPHONE):
                    total += 1
                    if not expected_resistance(protocol, kind, locus):
                        broken += 1
        assert total == 24
        assert broken == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdversaryConfig(AdversaryKind.KEYLOGGER, EntityKind.SERVER)


def _attack(protocol, kind, locus, seed):
    (handle,), result = run_attacked_session(
        SessionConfig(protocol=protocol, seed=seed), [AdversaryConfig(kind, locus)]
    )
    return handle, result, evaluate(handle)


T, S = EntityKind.TERMINAL, EntityKind.SMARTPHONE
K, M, V, B = (
    AdversaryKind.KEYLOGGER,
    AdversaryKind.MALWARE,
    AdversaryKind.SHOULDER_SURFER,
    AdversaryKind.BRUTE_FORCE,
)

# the observation labels each adversary records at seed 2: what the
# surface of its locus shows, cell by cell; a message class that declares
# no label shows under its tag (login_request, auth_result, show_result, ...)
SURFACE_LABELS = {
    (Protocol.P1, K, T): {"typed_id", "positions"},
    (Protocol.P1, K, S): set(),
    (Protocol.P1, M, T): {
        "auth_result", "frame_payload", "kbd_challenge", "keyboard", "login_request", "positions",
        "show_result", "typed_id",
    },
    (Protocol.P1, M, S): {"frame_payload", "layout"},
    (Protocol.P1, V, T): {"frame_payload", "keyboard", "positions", "show_result"},
    (Protocol.P1, V, S): {"layout"},
    (Protocol.P2, K, T): {"otp", "typed_id"},
    (Protocol.P2, K, S): set(),
    (Protocol.P2, M, T): {
        "auth_result", "frame_payload", "keyboard", "login_request", "otp", "otp_challenge",
        "show_result", "typed_id",
    },
    (Protocol.P2, M, S): {"frame_payload", "otp"},
    (Protocol.P2, V, T): {"frame_payload", "keyboard", "otp", "show_result"},
    (Protocol.P2, V, S): {"otp"},
    (Protocol.P3, K, T): {"click"},
    (Protocol.P3, K, S): {"login"},
    (Protocol.P3, M, T): {
        "auth_result", "ciphertext", "click", "connect_request", "frame_payload", "nonce_challenge",
        "show_result",
    },
    (Protocol.P3, M, S): {"ciphertext", "frame_payload", "login", "masked_login", "show_login_box"},
    (Protocol.P3, V, T): {"frame_payload", "show_result"},
    (Protocol.P3, V, S): {"ciphertext", "masked_login", "show_login_box"},
} | {(protocol, B, locus): set() for protocol in AUTH_PROTOCOLS for locus in (T, S)}


@pytest.mark.parametrize(
    "cell", sorted(SURFACE_LABELS, key=str), ids=lambda c: "-".join(x.value for x in c)
)
def test_each_adversary_records_its_surface(cell):
    protocol, kind, locus = cell
    (handle,), _ = run_attacked_session(
        SessionConfig(protocol=protocol, seed=2), [AdversaryConfig(kind, locus)]
    )
    assert {obs.data[0] for obs in handle.observations} == SURFACE_LABELS[cell]


class TestViews:
    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=lambda p: p.value)
    def test_each_observation_names_its_delivery(self, protocol):
        # the step of a sighting is the step of the delivery it reduces
        configs = [AdversaryConfig(kind, locus) for kind in (K, M, V) for locus in (T, S)]
        handles, result = run_attacked_session(SessionConfig(protocol=protocol, seed=2), configs)
        transcript = result.session.transcript
        assert any(handle.observations for handle in handles)
        for handle in handles:
            for obs in handle.observations:
                assert 1 <= obs.step <= len(transcript)
                message = transcript[obs.step - 1]
                assert handle.config.locus in (message.CHANNEL.sender, message.CHANNEL.receiver)
                assert adversary.observe(message) == obs.data

    def test_terminal_malware_sees_the_transaction_it_sends(self):
        # HIJACKGUARD's terminal submits the user's transaction to the server
        honest = run_flow(SessionConfig(protocol=Protocol.HIJACKGUARD, seed=2))
        malware = adversary.AttackerHandle(AdversaryConfig(M, T), honest.session)
        assert malware.observed("tx") == (DEFAULT_TX,)
        # positive control: what the rewriting malware sends is what it sees
        altered = run_flow(
            SessionConfig(protocol=Protocol.HIJACKGUARD, seed=2),
            actions=adversary._altering(EntityKind.TERMINAL),
        )
        assert adversary.AttackerHandle(AdversaryConfig(M, T), altered.session).observed("tx") == (EVIL_TX,)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=lambda p: p.value)
    def test_logins_carry_no_transaction(self, protocol, seed):
        # the tx rule leaves every matrix view as it was
        handles, _ = run_attacked_session(SessionConfig(protocol=protocol, seed=seed), MATRIX_CONFIGS)
        assert all(obs.data[0] != "tx" for handle in handles for obs in handle.observations)

    def test_injected_traffic_is_attributed_by_channel(self):
        # the terminal never sends the planted ciphertext, but it travels on
        # net_up, the terminal's channel, so terminal malware sees it go out
        planted = SubmitCiphertext(blob=b"planted")
        result = run_flow(SessionConfig(protocol=Protocol.P3, seed=2), actions=(Inject(planted, 0),))
        assert result.session.transcript[0] == planted
        malware = adversary.AttackerHandle(AdversaryConfig(M, T), result.session)
        assert malware.observations[0] == adversary.Observation(1, ("ciphertext", b"planted"))
        keylogger = adversary.AttackerHandle(AdversaryConfig(K, T), result.session)
        assert all(obs.step != 1 for obs in keylogger.observations)


def _leaves(value):
    """The leaves an onlooker must see of a field value, spelled out apart
    from observe: a frame's payload, a layout's serialization, and every
    other value as it is, through tuples."""
    if isinstance(value, VisualFrame):
        yield value.payload
    elif isinstance(value, crypto.KeyboardPermutation):
        yield value.serialize()
    elif isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _one_of_each_tag() -> dict[str, Message]:
    found = {}
    for protocol in Protocol:
        for message in run_flow(SessionConfig(protocol=protocol, seed=0)).session.transcript:
            found.setdefault(message.TAG, message)
    return found


class TestRegistry:
    """No message class falls through: whatever travels, an onlooker of its
    channel sees whole, under the label its class was registered with."""

    def test_the_honest_flows_send_every_message_class(self):
        assert _one_of_each_tag().keys() == {cls.TAG for cls in Message.__subclasses__()}

    def test_each_observation_holds_every_field(self):
        for tag, message in _one_of_each_tag().items():
            data = adversary.observe(message)
            assert data[0] == message.LABEL, tag
            shown = list(_leaves(data[1:]))
            for f in dataclasses.fields(message):
                for leaf in _leaves(getattr(message, f.name)):
                    assert leaf in shown, (tag, f.name)

    @pytest.mark.parametrize("protocol", Protocol, ids=lambda p: p.value)
    def test_every_delivery_reaches_some_view(self, protocol):
        # every channel has the terminal or the phone at one end, so the
        # malware there, at least, records each delivery
        handles, result = run_attacked_session(SessionConfig(protocol=protocol, seed=0), MATRIX_CONFIGS)
        seen = {obs.step for handle in handles for obs in handle.observations}
        assert seen == set(range(1, len(result.session.transcript) + 1))


def _holds(leaf, value: str) -> bool:
    if isinstance(leaf, str):
        return value in leaf
    return isinstance(leaf, bytes) and value.encode() in leaf


class TestSecureViewEyesOnly:
    """SECUREVIEW's document is "decryptable to your eyes only": its values
    reach the phone's screen, and the terminal carries only ciphertext."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_only_the_phone_screen_shows_the_fields(self, seed):
        handles, result = run_attacked_session(
            SessionConfig(protocol=Protocol.SECUREVIEW, seed=seed), MATRIX_CONFIGS
        )
        assert result.outcome is Outcome.VIEWED
        values = [value for _, value in DEFAULT_VIEW_FIELDS]
        holding = {
            (handle.config.kind, handle.config.locus): {
                value
                for obs in handle.observations
                for leaf in _leaves(obs.data[1:])
                for value in values
                if _holds(leaf, value)
            }
            for handle in handles
        }
        # positive control: both onlookers of the phone's screen read both values
        assert holding.pop((V, S)) == holding.pop((M, S)) == set(values)
        assert all(not held for held in holding.values())
        # the terminal's views did see the document, as ciphertext frames
        malware = next(h for h in handles if h.config == AdversaryConfig(M, T))
        labels = {obs.data[0] for obs in malware.observations}
        assert {"secure_doc", "show_doc"} <= labels


class TestKeyloggerCells:
    def test_p1_terminal_sees_positions_but_no_symbols(self):
        handle, result, outcome = _attack(
            Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, 201
        )
        assert result.outcome is Outcome.AUTHENTICATED
        kinds = {obs.data[0] for obs in handle.observations}
        assert kinds <= {"typed_id", "positions", "click"}
        assert handle.observed("positions") is not None
        password = handle.session.store.users["alice"].password
        for obs in handle.observations:
            assert password not in map(str, obs.data)
        assert not outcome.learned_password
        assert not outcome.can_authenticate_later

    def test_p1_position_replay_fails_against_a_fresh_layout(self):
        handle, _, outcome = _attack(
            Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, 202
        )
        assert handle.observed("positions") is not None
        assert not outcome.can_authenticate_later

    def test_p1_smartphone_hears_nothing(self):
        handle, _, outcome = _attack(
            Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.SMARTPHONE, 203
        )
        assert handle.observations == []
        assert not outcome.can_authenticate_later

    def test_p2_terminal_captures_a_dead_token(self):
        handle, _, outcome = _attack(
            Protocol.P2, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, 204
        )
        assert handle.observed("otp") is not None
        assert not outcome.learned_reusable_secret
        assert not outcome.can_authenticate_later

    def test_p3_terminal_sees_only_a_connect_click(self):
        handle, _, outcome = _attack(
            Protocol.P3, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, 205
        )
        kinds = {obs.data[0] for obs in handle.observations}
        assert kinds <= {"click"}
        assert not outcome.can_authenticate_later

    def test_p3_smartphone_reads_the_typed_credentials(self):
        # the one keylogger placement that breaks anything: the password
        # is typed on the phone in this flow, and id+password is all the
        # flow ever needs
        handle, _, outcome = _attack(
            Protocol.P3, AdversaryKind.KEYLOGGER, EntityKind.SMARTPHONE, 206
        )
        assert handle.observed("login") == ("alice", "data")
        assert outcome.learned_password
        assert outcome.learned_reusable_secret
        assert outcome.can_authenticate_later


class TestShoulderSurferCells:
    def test_p1_terminal_view_is_positions_only(self):
        handle, _, outcome = _attack(
            Protocol.P1, AdversaryKind.SHOULDER_SURFER, EntityKind.TERMINAL, 211
        )
        assert handle.observed("positions") is not None
        assert handle.observed("layout") is None
        assert not outcome.can_authenticate_later

    def test_p1_smartphone_view_is_layout_only(self):
        handle, _, outcome = _attack(
            Protocol.P1, AdversaryKind.SHOULDER_SURFER, EntityKind.SMARTPHONE, 212
        )
        assert handle.observed("layout") is not None
        assert handle.observed("positions") is None
        assert not outcome.can_authenticate_later

    def test_p2_either_screen_shows_a_consumed_token(self):
        for locus, seed in ((EntityKind.TERMINAL, 213), (EntityKind.SMARTPHONE, 214)):
            handle, _, outcome = _attack(
                Protocol.P2, AdversaryKind.SHOULDER_SURFER, locus, seed
            )
            assert handle.observed("otp") is not None
            assert not outcome.can_authenticate_later

    def test_p3_smartphone_shows_only_masked_glyphs(self):
        handle, _, outcome = _attack(
            Protocol.P3, AdversaryKind.SHOULDER_SURFER, EntityKind.SMARTPHONE, 215
        )
        assert handle.observed("login") is None
        user_id, masked = handle.observed("masked_login")
        assert user_id == "alice"
        assert masked == "****"
        assert not outcome.learned_password
        assert not outcome.can_authenticate_later


class TestMalwareCells:
    def test_p1_smartphone_steals_the_key_but_not_the_password(self):
        handle, _, outcome = _attack(
            Protocol.P1, AdversaryKind.MALWARE, EntityKind.SMARTPHONE, 221
        )
        assert handle.stolen_keypair is not None
        assert handle.observed("layout") is not None
        # the key alone decrypts layouts; clicking still takes the password
        assert not outcome.can_authenticate_later

    def test_p2_smartphone_key_theft_opens_future_tokens(self):
        handle, _, outcome = _attack(
            Protocol.P2, AdversaryKind.MALWARE, EntityKind.SMARTPHONE, 222
        )
        assert handle.stolen_keypair is not None
        assert outcome.learned_reusable_secret
        assert outcome.can_authenticate_later

    def test_p2_terminal_malware_only_gets_the_spent_token(self):
        handle, _, outcome = _attack(
            Protocol.P2, AdversaryKind.MALWARE, EntityKind.TERMINAL, 223
        )
        assert handle.stolen_keypair is None
        assert handle.observed("otp") is not None
        assert not outcome.can_authenticate_later

    def test_p3_smartphone_malware_reads_credentials_in_flight(self):
        handle, _, outcome = _attack(
            Protocol.P3, AdversaryKind.MALWARE, EntityKind.SMARTPHONE, 224
        )
        assert handle.observed("login") == ("alice", "data")
        assert outcome.can_authenticate_later

    def test_p3_terminal_malware_holds_ciphertext_only(self):
        handle, _, outcome = _attack(
            Protocol.P3, AdversaryKind.MALWARE, EntityKind.TERMINAL, 225
        )
        assert handle.observed("login") is None
        assert handle.observed("ciphertext") is not None
        assert not outcome.can_authenticate_later


class TestBruteForceCells:
    def test_no_foothold_no_observations(self):
        for protocol, seed in ((Protocol.P1, 231), (Protocol.P2, 232), (Protocol.P3, 233)):
            handle, result, outcome = _attack(
                protocol, AdversaryKind.BRUTE_FORCE, EntityKind.TERMINAL, seed
            )
            assert result.outcome is Outcome.AUTHENTICATED
            assert handle.observations == []
            assert not outcome.can_authenticate_later

    def test_guessing_budget_finds_nothing_at_scale(self):
        store = CredentialStore.provision(234)
        assert brute_force_guessing(store, "alice", budget=10_000, seed=234) == 0

    def test_guessing_is_deterministic(self):
        store = CredentialStore.provision(235)
        a = brute_force_guessing(store, "alice", budget=500, seed=77)
        b = brute_force_guessing(store, "alice", budget=500, seed=77)
        assert a == b

    def test_guessing_can_hit_a_one_symbol_password(self):
        # positive control: the guesser works, the space is just too big
        store = CredentialStore.provision(236, users=(("tiny", "a"),))
        assert brute_force_guessing(store, "tiny", budget=500, seed=236) > 0

    @pytest.mark.parametrize("budget", (0, 1, 16, 500, 10_000))
    def test_one_draw_matches_a_draw_per_guess(self, budget):
        # the oracle draws each guess on its own, as the guesser once did;
        # the tiny user, who gets hit, is the positive control
        users = tuple((f"u{n}", "q7x2ma"[:n]) for n in range(1, 7))
        store = CredentialStore.provision(237, users=(("tiny", "a"), *users))
        for user_id, credential in store.users.items():
            rng = rngmod.fork(237, "bruteforce")
            password = credential.password
            oracle = sum(
                "".join(rng.choices(crypto.ALPHABET, k=len(password))) == password for _ in range(budget)
            )
            assert brute_force_guessing(store, user_id, budget, seed=237) == oracle, user_id
        if budget >= 500:
            assert brute_force_guessing(store, "tiny", budget, seed=237) > 0


class TestMatrix:
    def test_small_matrix_reproduces_the_pattern(self):
        cells = run_matrix(seed=2401, trials=3)
        assert len(cells) == 24
        for cell in cells:
            assert cell.matches_expected, (cell.protocol, cell.kind, cell.locus)
            broken = (cell.protocol, cell.kind, cell.locus) in BROKEN_CELLS
            if broken:
                # the breaking attacks are deterministic, not probabilistic
                assert cell.breaches == cell.trials
            else:
                assert cell.breaches == 0

    def test_matrix_is_deterministic(self):
        assert run_matrix(seed=2402, trials=2) == run_matrix(seed=2402, trials=2)

    def test_breaches_imply_reusable_secrets(self):
        # invariant: nobody authenticates later without a reusable secret
        for protocol in AUTH_PROTOCOLS:
            for kind in (AdversaryKind.KEYLOGGER, AdversaryKind.MALWARE):
                for locus in (EntityKind.TERMINAL, EntityKind.SMARTPHONE):
                    handle, _, outcome = _attack(protocol, kind, locus, 241)
                    if outcome.can_authenticate_later:
                        assert outcome.learned_reusable_secret

    def test_cell_properties(self):
        cell = MatrixCell(
            protocol=Protocol.P1,
            kind=AdversaryKind.KEYLOGGER,
            locus=EntityKind.TERMINAL,
            trials=5,
            breaches=0,
            expected_resist=True,
        )
        assert cell.resisted and cell.matches_expected
        breached = MatrixCell(
            protocol=Protocol.P3,
            kind=AdversaryKind.KEYLOGGER,
            locus=EntityKind.SMARTPHONE,
            trials=5,
            breaches=5,
            expected_resist=False,
        )
        assert not breached.resisted
        assert breached.matches_expected


MATRIX_CONFIGS = list(adversary.MATRIX_ADVERSARIES)


def _takings(handle):
    return handle.observations, handle.stolen_keypair, evaluate(handle)


class TestSharedSession:
    """run_matrix lets all eight adversaries read one session per trial;
    a view of the shared session must see and gain what it would alone."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=lambda p: p.value)
    def test_sharing_is_invisible(self, protocol, seed):
        # every run provisions a fresh store from the seed: a store that had
        # issued this seed's nonce already would redraw it
        config = SessionConfig(protocol=protocol, seed=seed)
        shared, _ = run_attacked_session(config, MATRIX_CONFIGS)
        assert [handle.config for handle in shared] == MATRIX_CONFIGS
        shared_takings = [_takings(handle) for handle in shared]
        alone_takings = [_takings(run_attacked_session(config, [c])[0][0]) for c in MATRIX_CONFIGS]
        assert shared_takings == alone_takings

    def test_views_see_what_a_rewriting_malware_changes(self):
        # positive control: malware that rewrites the transaction changes
        # what the views of the same session see
        config = SessionConfig(protocol=Protocol.TXVERIFY, seed=0)
        honest, _ = run_attacked_session(config, MATRIX_CONFIGS)
        altered = run_flow(config, actions=adversary._altering(EntityKind.TERMINAL))
        assert EVIL_TX in [m.tx for m in altered.session.transcript if m.TAG == "submit_tx"]
        watched = [adversary.AttackerHandle(c, altered.session) for c in MATRIX_CONFIGS]
        changed = {
            (a.config.kind, a.config.locus)
            for a, b in zip(honest, watched)
            if a.observations != b.observations
        }
        assert (AdversaryKind.SHOULDER_SURFER, EntityKind.TERMINAL) in changed
        assert (AdversaryKind.MALWARE, EntityKind.SMARTPHONE) in changed

    def test_cells_of_one_session_draw_their_own_guesses(self, monkeypatch):
        # the two brute-force cells share a session, not their guesses
        seeds = []
        guess = adversary.brute_force_guessing

        def recording(store, user_id, budget, seed):
            seeds.append(seed)
            return guess(store, user_id, budget, seed)

        monkeypatch.setattr(adversary, "brute_force_guessing", recording)
        run_matrix(2026, trials=2)
        assert len(seeds) == len(set(seeds)) == len(AUTH_PROTOCOLS) * 2 * 2

    def test_matrix_leaves_the_store_alone(self, monkeypatch):
        # every session draws its nonces against its own set, so a store
        # shared by a whole matrix ends as it began
        seen = []
        run = adversary.run_attacked_session

        def recording(session_config, configs, store=None, attempts=None):
            if not seen:
                seen.append((store, dataclasses.replace(store, users=dict(store.users))))
            return run(session_config, configs, store, attempts)

        monkeypatch.setattr(adversary, "run_attacked_session", recording)
        run_matrix(2026, trials=2)
        store, before = seen[0]
        assert store == before
        assert [f.name for f in dataclasses.fields(store)] == ["server_pair", "server_name", "users"]


def _recording_sessions(monkeypatch) -> list[tuple[list, SessionResult]]:
    """The (views, result) of each run_attacked_session call from now on."""
    sessions = []
    run = adversary.run_attacked_session

    def recording(*args, **kwargs):
        handles, result = run(*args, **kwargs)
        sessions.append((handles, result))
        return handles, result

    monkeypatch.setattr(adversary, "run_attacked_session", recording)
    return sessions


class TestOneReading:
    """run_attacked_session observes each delivery once and hands that
    reading to every view; a view keeps the channels its surface shows."""

    def test_matrix_observes_each_delivery_once(self, monkeypatch):
        observed = []
        observe = adversary.observe
        monkeypatch.setattr(adversary, "observe", lambda message: observed.append(message) or observe(message))
        sessions = _recording_sessions(monkeypatch)
        run_matrix(2026, trials=1)
        deliveries = [m for _, result in sessions for m in result.session.transcript]
        assert len(sessions) == len(AUTH_PROTOCOLS)
        assert len(observed) == len(deliveries) == 33
        assert all(a is b for a, b in zip(observed, deliveries))
        for handles, _ in sessions:
            by_step, shared = {}, 0
            for handle in handles:
                for obs in handle.observations:
                    shared += obs.step in by_step
                    assert by_step.setdefault(obs.step, obs) is obs
            # positive control: views do overlap, so the identity check bites
            assert shared > 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matrix_views_see_what_a_view_alone_sees(self, seed, monkeypatch):
        sessions = _recording_sessions(monkeypatch)
        run_matrix(seed, trials=1)
        for handles, result in sessions:
            assert [handle.config for handle in handles] == MATRIX_CONFIGS
            for handle in handles:
                alone = adversary.AttackerHandle(handle.config, result.session)
                assert (alone.observations, alone.stolen_keypair) == (
                    handle.observations,
                    handle.stolen_keypair,
                ), handle.config

    def test_a_lone_view_reads_only_its_channels(self, monkeypatch):
        # a keylogger alone observes the clicks into its locus, not every delivery
        observed = []
        observe = adversary.observe
        monkeypatch.setattr(adversary, "observe", lambda message: observed.append(message) or observe(message))
        (handle,), result = run_attacked_session(SessionConfig(protocol=Protocol.P1, seed=2), [AdversaryConfig(K, T)])
        assert len(observed) == len(handle.observations) == 2
        assert len(result.session.transcript) > 2


class TestAttackerKeys:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matrix_generates_only_the_store_keys(self, seed, monkeypatch):
        # the server's pair and alice's; learned credentials need no key of their own
        calls = []
        generate = crypto.generate_keypair
        monkeypatch.setattr(crypto, "generate_keypair", lambda *args: calls.append(args) or generate(*args))
        run_matrix(seed, trials=2)
        assert [role for role, _ in calls] == [crypto.Role.SERVER, crypto.Role.USER]

    @pytest.mark.parametrize("seed", range(6))
    def test_learned_credentials_log_in_on_a_keyless_phone(self, seed):
        store = CredentialStore.provision(seed)
        fields, actions = adversary._STRATEGIES["learned-creds"](store.users["alice"].password)
        result = run_flow(SessionConfig(protocol=Protocol.P3, seed=seed, **fields), store, actions)
        assert result.outcome is Outcome.AUTHENTICATED
        assert result.session.entities[EntityKind.SMARTPHONE].state["keypair"] is None


# distinct follow-up sessions the eight views of one login session mount:
# P1 replays its positions; P2 replays its OTP and uses the phone's key; P3
# replays its ciphertext and logs in with the credentials the phone leaks
FOLLOWUPS_PER_SESSION = {Protocol.P1: 1, Protocol.P2: 2, Protocol.P3: 2}


def _count_followups(monkeypatch) -> dict[str, int]:
    """Count the sessions adversary starts from now on, by entry point."""
    counts = {"run_flow": 0, "run_hijack_guard": 0}
    for name in counts:
        run = getattr(adversary, name)

        def counting(*args, _name=name, _run=run, **kwargs):
            counts[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(adversary, name, counting)
    return counts


class TestSharedAttempts:
    """An attempt is a value of (strategy, user_id, loot, session seed): the
    views of one session that hold the same loot mount it once and read one
    verdict. The alteration probe is a value of (locus, flags) alone."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=lambda p: p.value)
    def test_one_followup_per_distinct_loot(self, protocol, seed, monkeypatch):
        handles, _ = run_attacked_session(SessionConfig(protocol=protocol, seed=seed), MATRIX_CONFIGS)
        counts = _count_followups(monkeypatch)
        for handle in handles:
            evaluate(handle)
        # one alteration probe per malware locus, read again on the second pass
        assert counts == {"run_flow": FOLLOWUPS_PER_SESSION[protocol], "run_hijack_guard": 2}
        for handle in handles:
            evaluate(handle)
        assert counts == {"run_flow": FOLLOWUPS_PER_SESSION[protocol], "run_hijack_guard": 2}

    def test_different_loot_mounts_its_own_attempt(self, monkeypatch):
        # positive control: two views of one session replay different
        # positions, one of them spelling the password on the replay's layout
        store = CredentialStore.provision(281)
        config = SessionConfig(protocol=Protocol.P1, seed=281)
        (keylogger, surfer), _ = run_attacked_session(config, [AdversaryConfig(K, T), AdversaryConfig(V, T)], store)
        assert keylogger.observed("positions") == surfer.observed("positions")
        followup = SessionConfig(protocol=Protocol.P1, seed=rngmod.child_seed(281, "followup", "replay"))
        probe = run_flow(followup, store, actions=replay(SubmitPositions(positions=(0, 0, 0, 0))))
        layout = probe.session.entities[EntityKind.SERVER].state["layout"]
        spelled = tuple(layout.position_of(ch) for ch in store.users["alice"].password)
        surfer.observations = [
            dataclasses.replace(obs, data=("positions", spelled)) if obs.data[0] == "positions" else obs
            for obs in surfer.observations
        ]
        counts = _count_followups(monkeypatch)
        assert (evaluate(keylogger).can_authenticate_later, evaluate(surfer).can_authenticate_later) == (False, True)
        assert counts["run_flow"] == 2
        assert sorted(keylogger.attempts.values()) == [False, True]

    def test_separate_sessions_share_no_attempt(self, monkeypatch):
        config = SessionConfig(protocol=Protocol.P2, seed=0)
        first, _ = run_attacked_session(config, MATRIX_CONFIGS)
        second, _ = run_attacked_session(config, MATRIX_CONFIGS)
        alone = adversary.AttackerHandle(MATRIX_CONFIGS[0], first[0].session)
        assert first[0].attempts is not second[0].attempts
        assert alone.attempts == {} and alone.attempts is not first[0].attempts
        counts = _count_followups(monkeypatch)
        for handle in first + second:
            evaluate(handle)
        assert counts["run_flow"] == 2 * FOLLOWUPS_PER_SESSION[Protocol.P2]

    def test_matrix_shares_no_followup_across_trials(self, monkeypatch):
        # the trials of one matrix share an attempts map, and P3's learned
        # credentials and P2's stolen key are the same loot in every trial;
        # each trial still mounts its own follow-ups
        counts = _count_followups(monkeypatch)
        run_matrix(2026, trials=2)
        observed = 2 * len(AUTH_PROTOCOLS)
        assert counts["run_flow"] - observed == 2 * sum(FOLLOWUPS_PER_SESSION.values()) == 10
        assert counts["run_hijack_guard"] == 2

    def test_one_probe_per_locus_and_flags(self, monkeypatch):
        # three sessions share one map: the probes are keyed by (locus, flags),
        # so the two unguarded sessions read one pair of probes between them
        store = CredentialStore.provision(5)
        unguarded = SessionFlags(hijack_guard=False)
        attempts = {}
        sessions = [
            run_attacked_session(SessionConfig(protocol=Protocol.P1, seed=seed, flags=flags), MATRIX_CONFIGS,
                                 store, attempts)[0]
            for seed, flags in ((0, SessionFlags()), (1, unguarded), (2, unguarded))
        ]
        assert all(handle.attempts is attempts for handles in sessions for handle in handles)
        counts = _count_followups(monkeypatch)
        altered = [
            [evaluate(h).can_alter_transaction for h in handles if h.config.kind is AdversaryKind.MALWARE]
            for handles in sessions
        ]
        assert counts["run_hijack_guard"] == 2 * 2
        # positive control: with the guard off, the terminal malware views of
        # both unguarded sessions read the breach, the second without a probe
        # of its own; phone malware rewrites only the side copy, which an
        # unguarded server never reads
        assert altered == [[False, False], [True, False], [True, False]]
        assert {k for k in attempts if k[0] == "alter-tx"} == {
            ("alter-tx", locus, flags) for locus in adversary.MATRIX_LOCI for flags in (SessionFlags(), unguarded)
        }


class TestVerifyBudget:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_alteration_runs_verify_nothing(self, seed, monkeypatch):
        # the alteration runs submit EVIL_TX against the user's side copy, so
        # the guard rejects each before verifying; the three verifies left
        # per trial are the P1 and P2 challenges and the P2 stolen-key
        # follow-up's
        counts = _count_followups(monkeypatch)
        verify = crypto.verify
        verifies = []

        def counting(*args):
            verifies.append(args)
            return verify(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        for trials in (1, 2):
            verifies.clear()
            counts["run_hijack_guard"] = 0
            run_matrix(seed, trials)
            assert len(verifies) == 3 * trials
            # two alteration runs per matrix, one per malware locus
            assert counts["run_hijack_guard"] == 2


class TestReplaysAreJudged:
    def test_positions_that_spell_the_password_authenticate(self):
        # positive control: the server judges what replaying submits, so the
        # positions that spell the password on this seed's layout log in
        store = CredentialStore.provision(281)
        config = SessionConfig(protocol=Protocol.P1, seed=281)
        probe = run_flow(config, store, actions=replay(SubmitPositions(positions=(0, 0, 0, 0))))
        assert probe.outcome is Outcome.DENIED
        layout = probe.session.entities[EntityKind.SERVER].state["layout"]
        spelled = tuple(layout.position_of(ch) for ch in store.users["alice"].password)
        result = run_flow(config, store, actions=replay(SubmitPositions(positions=spelled)))
        assert result.outcome is Outcome.AUTHENTICATED
        # type_id, login_request, kbd_challenge, submit_positions, auth_result
        assert result.session.step == 5
        assert all(m.CHANNEL.receiver is not EntityKind.SMARTPHONE for m in result.session.transcript)

    # the password's positions, the positive control, and replays of
    # positions the grid does not hold, with (outcome, abort reason, steps):
    # the server denies positions off the grid, and a submission that is no
    # tuple of ints is refused as malformed before it reaches the server's
    # handler. SPELLED holds 0 and 1, so that False and True stand for two
    # of the password's positions, and every position shifted by the grid's
    # size is the same position counted from the end
    SPELLED = (16, 0, 20, 1)
    SUBMISSIONS = {
        "spelled": (SPELLED, Outcome.AUTHENTICATED, None, 5),
        "past_the_grid": ((99, 0, 0, 0), Outcome.DENIED, None, 5),
        "not_an_int": (("a", 0, 0, 0), Outcome.ABORTED, "submit_positions_malformed", 4),
        "shifted_negative": (tuple(p - 36 for p in SPELLED), Outcome.DENIED, None, 5),
        "bool_for_int": ((16, False, 20, True), Outcome.ABORTED, "submit_positions_malformed", 4),
        "not_a_sequence": (5, Outcome.ABORTED, "submit_positions_malformed", 4),
    }

    @staticmethod
    def _store_spelling(positions):
        """A store whose alice has the password positions spell on the
        layout of seed 281's P1 session, read off a probe of that session:
        the layout is drawn from the session's seed, not from the store."""
        config = SessionConfig(protocol=Protocol.P1, seed=281)
        probe = run_flow(config, CredentialStore.provision(281),
                         actions=replay(SubmitPositions(positions=(0, 0, 0, 0))))
        password = probe.session.entities[EntityKind.SERVER].state["layout"].resolve(positions)
        return CredentialStore.provision(281, users=(("alice", password),))

    @pytest.mark.parametrize("name", SUBMISSIONS)
    def test_positions_off_the_grid_are_denied(self, name):
        positions, outcome, reason, steps = self.SUBMISSIONS[name]
        actions = replay(SubmitPositions(positions=positions))
        result = run_flow(SessionConfig(protocol=Protocol.P1, seed=281), self._store_spelling(self.SPELLED), actions)
        assert (result.outcome, result.session.abort_reason) == (outcome, reason)
        assert result.session.step == steps

    def test_matrix_replays_are_denied_not_aborted(self, monkeypatch):
        # an abort would mean the replay arrived out of order, and the
        # cell's "resist" would prove nothing
        sessions, run = [], adversary.run_flow

        def recording(config, store=None, actions=()):
            result = run(config, store, actions)
            if any(type(action) is Inject for action in actions):  # a replay
                sessions.append(result.session)
            return result

        monkeypatch.setattr(adversary, "run_flow", recording)
        run_matrix(2026, trials=1)
        assert {session.config.protocol for session in sessions} == set(AUTH_PROTOCOLS)
        assert {session.outcome for session in sessions} == {Outcome.DENIED}


# every catalogue row's verdict: the session's outcome, and whether the
# row's own breach test found the attack working
ATTACK_VERDICTS = {
    "dual_locus_surfer": Outcome.AUTHENTICATED,
    "forged_layout": Outcome.ABORTED,
    "forged_layout/no_signing": Outcome.DENIED,
    "otp_replay": Outcome.DENIED,
    "phish_relay": Outcome.DENIED,
    "phish_wrong_name": Outcome.DENIED,
    "stale_receipt": Outcome.USER_FLAGGED_MISMATCH,
    "stale_receipt/no_freshness": Outcome.CONFIRMED,
    "forged_confirm": Outcome.CONFIRMED,
    "hijack": Outcome.REJECTED,
    "hijack/no_guard": Outcome.ACCEPTED,
    "suppressed_side_copy": Outcome.REJECTED,
    "suppressed_side_copy/no_guard": Outcome.ACCEPTED,
}


class TestAttackCatalogue:
    @pytest.mark.parametrize("seed", (0, 1, 2), ids=lambda seed: f"seed{seed}")
    @pytest.mark.parametrize("name", ATTACK_VERDICTS)
    def test_row_gives_its_verdict(self, name, seed):
        result = run_attack(ATTACKS[name], seed)
        assert (result.outcome, result.breached) == (ATTACK_VERDICTS[name], ATTACKS[name].expect_breach)

    def test_every_row_is_pinned(self):
        assert ATTACK_VERDICTS.keys() == ATTACKS.keys()

    @pytest.mark.parametrize("name", ATTACKS)
    def test_every_setup_returns_frozen_comparable_actions(self, name):
        # an attack is data: a tuple of actions, the same for the same row,
        # seed and store, which prints without reaching into any session
        attack = ATTACKS[name]
        config = SessionConfig(protocol=attack.protocol, seed=0, flags=attack.flags)
        store = CredentialStore.provision(rngmod.child_seed(0, "store"))
        (actions, _), (again, _) = attack.setup(config, store), attack.setup(config, store)
        assert type(actions) is tuple and all(type(action) in ACTIONS for action in actions)
        assert actions == again and repr(actions) == repr(again)
        assert (actions == ()) == (name == "dual_locus_surfer")

    @pytest.mark.parametrize("flag", [f.name for f in dataclasses.fields(SessionFlags)])
    def test_every_defence_has_a_positive_control(self, flag):
        # an on/off pair, alike but for the flag: off breaks, on resists
        pairs = [
            (on, off)
            for on, off in itertools.permutations(ATTACKS.values(), 2)
            if on.protocol is off.protocol
            and on.setup is off.setup
            and getattr(on.flags, flag)
            and off.flags == dataclasses.replace(on.flags, **{flag: False})
        ]
        assert pairs, f"no on/off pair of rows for {flag}"
        assert all(off.expect_breach and not on.expect_breach for on, off in pairs)

    def test_a_late_refusal_is_recorded(self):
        # after the server executed the forged transaction it refuses the
        # honest submission (step 4), the user refuses the forged transaction
        # on the phone (10), and the server refuses the honest confirmation
        # (12): the outcome stands, every refusal is kept
        for seed in (0, 1, 5):
            result = run_attack(ATTACKS["forged_confirm"], seed)
            assert result.outcome is Outcome.CONFIRMED
            assert result.late_verdicts == (
                (4, Outcome.ABORTED, "submit_tx_out_of_order"),
                (10, Outcome.USER_FLAGGED_MISMATCH, None),
                (12, Outcome.ABORTED, "forward_confirm_out_of_order"),
            )
        # stale_receipt's user flags twice; the repeat matches the verdict
        for seed in (0, 1, 5):
            result = run_attack(ATTACKS["stale_receipt"], seed)
            assert (result.outcome, result.late_verdicts) == (Outcome.USER_FLAGGED_MISMATCH, ())
        for name in ATTACKS.keys() - {"forged_confirm"}:
            for seed in (0, 1, 2):
                assert run_attack(ATTACKS[name], seed).late_verdicts == (), name
        for protocol in Protocol:
            for seed in (0, 1, 2):
                assert run_flow(SessionConfig(protocol=protocol, seed=seed)).session.late_verdicts == []


class TestTransactionAlteration:
    def test_terminal_malware_cannot_alter_past_the_guard(self):
        handle, _, outcome = _attack(
            Protocol.P2, AdversaryKind.MALWARE, EntityKind.TERMINAL, 291
        )
        assert not outcome.can_alter_transaction

    def test_passive_observers_never_alter(self):
        for kind in (AdversaryKind.KEYLOGGER, AdversaryKind.SHOULDER_SURFER):
            handle, _, outcome = _attack(Protocol.P1, kind, EntityKind.TERMINAL, 292)
            assert not outcome.can_alter_transaction

    def test_evil_transaction_shape(self):
        assert EVIL_TX.amount > 0
        assert EVIL_TX.receiver_account != "ACCT-7291"
