"""Rules that hold for every source file under src/, and one for the tests."""

from __future__ import annotations

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

import visualauth
from visualauth.entities import MESSAGES, EntityKind, Message
from visualauth.protocols import STATE

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MAX_LINE = 110

# The functools caches in src/ allowed to grow without a bound, each with
# the finite domain it is keyed on. Any other cache carries a numeric
# maxsize, so a memo keyed on session inputs cannot grow the process for
# as long as it runs.
UNBOUNDED_CACHES = {
    "_generator_poly": "keyed by parity degree: at most the 40 specs' parity counts",
}

# The module-level records in src/, each a deque of the last few results
# that saves curve work, with the soundness argument for it in its module's
# docstring. Any other module-level deque is reported, so that no record
# comes back unexamined.
RECORDS = {
    "_SIGNED": "crypto: verify answers a triple sign made",
    "_SEALED": "crypto: decrypt takes the key encrypt derived",
}


def test_no_source_line_is_longer_than_the_bound():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    too_long = [
        f"{path.relative_to(SRC)}:{number} has {len(line)} characters"
        for path in modules
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert too_long == []


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bound(node) -> str:
    """'unbounded', 'implicit' or 'bounded' for a cache or lru_cache
    reference: a bare decorator or a call."""
    call = node if isinstance(node, ast.Call) else None
    if _name(call.func if call else node) == "cache":
        return "unbounded"
    if call is None:
        return "implicit"  # a bare @lru_cache: the library's default size
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    if not sizes or not isinstance(sizes[0], ast.Constant):
        return "implicit"  # lru_cache(), or lru_cache(function)
    if sizes[0].value is None:
        return "unbounded"
    return "bounded" if isinstance(sizes[0].value, int) else "implicit"


def cache_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each functools cache in source that is neither numerically bounded
    nor an allow-listed unbounded cache, and each module-level deque that
    is not an allow-listed record, as 'file:line name: problem'."""
    tree = ast.parse(source)
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                decorated[id(deco)] = node.name
    findings = []
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        if _name(target) not in ("cache", "lru_cache"):
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorated:
            continue  # an import or the callee of a call, met on its own
        owner = decorated.get(id(node), "<call>")
        bound = _bound(node)
        if bound == "unbounded" and owner not in UNBOUNDED_CACHES:
            findings.append(f"{filename}:{node.lineno} {owner}: unbounded cache not allow-listed")
        elif bound == "implicit":
            findings.append(f"{filename}:{node.lineno} {owner}: no numeric maxsize")
    for name, node in _module_deques(tree):
        if name not in RECORDS:
            findings.append(f"{filename}:{node.lineno} {name}: record not allow-listed")
    return findings


def _module_deques(tree) -> list[tuple[str, ast.Call]]:
    """(name, call) of each deque a module-level statement assigns."""
    return [
        (target.id, node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call)
        and _name(node.value.func) == "deque"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]


def test_every_cache_is_bounded_or_keyed_on_a_finite_domain():
    findings, owners, records = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        findings += cache_findings(source, str(path.relative_to(SRC)))
        tree = ast.parse(source)
        owners |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        records |= {name for name, _ in _module_deques(tree)}
    assert findings == []
    # a stale entry would let a new cache or record of that name through unexamined
    assert set(UNBOUNDED_CACHES) <= owners
    assert set(RECORDS) <= records


def test_the_cache_check_can_fail():
    flagged = {
        "@functools.cache\ndef f(x): ...": "unbounded",
        "@cache\ndef f(x): ...": "unbounded",
        "@lru_cache(maxsize=None)\ndef f(x): ...": "unbounded",
        "@functools.lru_cache(None)\ndef f(x): ...": "unbounded",
        "@lru_cache\ndef f(x): ...": "numeric",
        "@lru_cache()\ndef f(x): ...": "numeric",
        "g = functools.lru_cache(maxsize=None)(len)": "unbounded",
        "g = functools.cache(len)": "unbounded",
        "_PACKED = collections.deque(maxlen=4)": "record not allow-listed",
        "_KEYED: deque = deque(maxlen=4)": "record not allow-listed",
    }
    for source, problem in flagged.items():
        (finding,) = cache_findings(source)
        assert problem in finding, source
    passed = [
        "@lru_cache(maxsize=4)\ndef f(x): ...",
        "@functools.lru_cache(16)\ndef f(x): ...",
        "@functools.cache\ndef _generator_poly(degree): ...",
        "from functools import cache, lru_cache",
        "@functools.cached_property\ndef f(self): ...",
        "_SEALED = collections.deque(maxlen=4)",
        "def f():\n    recent = collections.deque(maxlen=4)",
    ]
    for source in passed:
        assert cache_findings(source) == [], source


def _enums() -> list[type[enum.Enum]]:
    """Every enum.Enum subclass defined in a visualauth module."""
    found = {}
    for info in pkgutil.iter_modules(visualauth.__path__, "visualauth."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and issubclass(value, enum.Enum) and value.__module__ == info.name:
                found[value.__qualname__] = value
    return list(found.values())


def hashes_by_identity(cls: type[enum.Enum]) -> bool:
    """Members are singletons, so they hash by identity, in C, rather than
    through the Python-level Enum.__hash__ over their names."""
    return cls.__hash__ is object.__hash__ and all(hash(m) == object.__hash__(m) for m in cls)


def test_every_enum_hashes_by_identity():
    enums = _enums()
    assert len(enums) == 9
    for cls in enums:
        assert hashes_by_identity(cls), cls.__qualname__
        # value lookup and membership still work
        assert all(cls(member.value) is member and member in set(cls) for member in cls)
    assert visualauth.Protocol("P1") is visualauth.Protocol.P1


def test_the_enum_hash_check_can_fail():
    class Scratch(enum.Enum):
        A = "a"

    assert not hashes_by_identity(Scratch)


def message_contract_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each class in source declared both by @register_message(...) and by
    @dataclass(...): register_message alone makes a message a frozen record."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names = {_name(deco.func if isinstance(deco, ast.Call) else deco) for deco in node.decorator_list}
            if {"register_message", "dataclass"} <= names:
                findings.append(f"{filename}:{node.lineno} {node.name}: @dataclass beside @register_message")
    return findings


def test_each_message_is_declared_once():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        findings += message_contract_findings(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)))
    assert findings == []
    # the runtime half: register_message made each class a frozen dataclass
    # of its own and gave it the next tag byte, in registration order
    registered = list(MESSAGES.values())
    assert set(Message.__subclasses__()) == set(registered)
    assert len(registered) == 37
    for index, cls in enumerate(registered, 1):
        assert cls.__dict__["__dataclass_params__"].frozen, cls.__name__
        assert cls.TAG_BYTE == bytes([index]), cls.__name__
    assert len({cls.TAG_BYTE for cls in registered}) == len(registered)


def test_the_message_contract_check_can_fail():
    flagged = [
        '@register_message("net_up")\n@dataclass(frozen=True)\nclass M(Message): ...',
        '@dataclasses.dataclass\n@entities.register_message("net_up", "x")\nclass M(Message): ...',
    ]
    for source in flagged:
        (finding,) = message_contract_findings(source)
        assert "M: @dataclass beside @register_message" in finding, source
    passed = [
        '@register_message("net_up")\nclass M(Message): ...',
        "@dataclass(frozen=True)\nclass Record: ...",
    ]
    for source in passed:
        assert message_contract_findings(source) == [], source


def field_type_test_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each isinstance or type call on a message's field (msg.x or
    message.x): Party.receive checks every field against its declared type
    before any handler runs, so a handler that tests one again is a second
    refusal point."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) in ("isinstance", "type") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Attribute) and _name(arg.value) in ("msg", "message"):
                findings.append(f"{filename}:{node.lineno} tests the type of {_name(arg.value)}.{arg.attr}")
    return findings


def test_no_handler_tests_a_field_type():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        findings += field_type_test_findings(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)))
    assert findings == []


def test_the_field_type_check_can_fail():
    flagged = [
        "if not isinstance(msg.tx, Transaction): pass",
        "n = len(message.otp) if type(message.otp) is str else None",
    ]
    for source in flagged:
        assert len(field_type_test_findings(source)) == 1, source
    passed = ["isinstance(frame, VisualFrame)", "isinstance(self.state['tx'], Transaction)", "type(msg)"]
    for source in passed:
        assert field_type_test_findings(source) == [], source


def signer_comparison_findings(source: str, filename: str = "<src>", allowed: str | None = None) -> list[str]:
    """Each comparison that reads a .signer outside the function named
    allowed: crypto.verify takes the signer it accepts and is the one place
    a signature's unsigned role byte is judged."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == allowed
        for node in ast.walk(function)
    }
    return [
        f"{filename}:{node.lineno} compares a signer outside crypto.verify"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and id(node) not in exempt
        and any(isinstance(part, ast.Attribute) and part.attr == "signer" for part in ast.walk(node))
    ]


def test_only_crypto_verify_compares_a_signer():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        allowed = "verify" if path.name == "crypto.py" else None
        findings += signer_comparison_findings(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)), allowed)
    assert findings == []


def test_the_signer_comparison_check_can_fail():
    flagged = [
        "ok = sig.signer is Role.SERVER and verify(k, m, sig)",
        "if self.signature.signer != Role.USER: pass",
        "def to_bytes(self): return b'\\x00' if self.signer is Role.USER else b'\\x01'",
        "ok = Role.USER == side_sig.signer",
    ]
    for source in flagged:
        assert len(signer_comparison_findings(source, allowed="verify")) == 1, source
    inside = "def verify(key, message, signature, signer):\n    return signature.signer is signer"
    assert len(signer_comparison_findings(inside)) == 1  # verify is exempt only where it is allowed
    passed = [inside, "Signature(sig=raw, signer=pair.role)", "crypto.verify(key, message, sig, Role.SERVER)"]
    for source in passed:
        assert signer_comparison_findings(source, allowed="verify") == [], source



def reach_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each import of weakref and each .inject( call in source. A party's
    weak hold on its session and the session's queue are the session
    fabric's alone, so no attack holds a session or queues traffic by hand."""
    return [
        f"{filename}:{node.lineno} {'calls .inject(' if isinstance(node, ast.Call) else 'imports weakref'}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name == "weakref" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "weakref"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "inject"
    ]


def test_only_the_session_fabric_holds_a_session_weakly_or_queues_traffic():
    findings = {path.name: reach_findings(path.read_text(encoding="utf-8"), path.name) for path in SRC.rglob("*.py")}
    assert len(findings.pop("entities.py")) >= 2  # its weakref import, and emit's and deliver's queueing
    assert [finding for found in findings.values() for finding in found] == []


def test_the_reach_check_can_fail():
    for source in ("import weakref", "import os, weakref", "from weakref import ref", "live().inject(m)"):
        assert len(reach_findings(source)) == 1, source
    for source in ("Inject(message, 3)", "inject = 1", "import weakrefs", "session.actions"):
        assert reach_findings(source) == [], source


# a session's actions, which emit and deliver read
ATTACKER_SETTINGS = ("actions",)


def attacker_setting_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each attribute in source named as one of ATTACKER_SETTINGS. What an
    attacker does is the session fabric's alone to apply, so no party, flow
    or report can tell whether its session is attacked."""
    return [
        f"{filename}:{node.lineno} reads .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ATTACKER_SETTINGS
    ]


def test_only_the_session_fabric_reads_a_sessions_actions():
    findings = {path.name: attacker_setting_findings(path.read_text(encoding="utf-8"), path.name) for path in SRC.rglob("*.py")}
    assert len(findings.pop("entities.py")) >= 3  # the type check, and emit's and deliver's walks
    assert [finding for found in findings.values() for finding in found] == []


def test_the_attacker_setting_check_can_fail():
    flagged = [
        "session.actions",
        "if any(type(a) is Drop for a in self.session.actions): pass",
        "planted = len(result.session.actions)",
    ]
    for source in flagged:
        assert len(attacker_setting_findings(source)) == 1, source
    for source in ("actions = ()", "run_flow(config, store, actions)", "Session(seed, config, store, actions)"):
        assert attacker_setting_findings(source) == [], source


def holder_set_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each register_secret call in source that spells its own holders: a
    set display or comprehension, a set() or frozenset() call, or EntityKind
    among its arguments. protocols.SECRET_HOLDERS states who may hold each
    secret once, and register_secret reads it."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "register_secret":
            for part in (part for arg in [*node.args, *node.keywords] for part in ast.walk(arg)):
                if (
                    isinstance(part, (ast.Set, ast.SetComp))
                    or isinstance(part, ast.Call) and _name(part.func) in ("set", "frozenset")
                    or _name(part) == "EntityKind"
                ):
                    findings.append(f"{filename}:{node.lineno} register_secret spells its own holders")
                    break
    return findings


def test_no_secret_registration_spells_its_holders():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        findings += holder_set_findings(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)))
    assert findings == []


def test_the_holder_set_check_can_fail():
    flagged = [
        "self.session.register_secret(SecretKind.OTP, data, allowed=set(EntityKind))",
        "session.register_secret(kind, data, allowed={EntityKind.SERVER, EntityKind.USER})",
        "session.register_secret(kind, data, {EntityKind.USER} | ({EntityKind.SMARTPHONE} if p3 else set()))",
        "session.register_secret(kind, data, frozenset(parties))",
        "session.register_secret(kind, data, [entities.EntityKind.SERVER])",
        "session.register_secret(kind, data, {party for party in parties})",
    ]
    for source in flagged:
        assert len(holder_set_findings(source)) == 1, source
    passed = [
        "session.register_secret(kind, data, SECRET_HOLDERS[kind] | widened)",
        "register_secret(self.session, SecretKind.OTP, token.value.encode())",
        "holders = {EntityKind.USER, EntityKind.SERVER}",
    ]
    for source in passed:
        assert holder_set_findings(source) == [], source


# The declared state keys that no src/ code reads, each with the reason: the
# phone keeps them only so that the secret scan sees them held, until the
# scan reads what a party sent (ROADMAP item 1).
HELD_FOR_SCAN = {
    (EntityKind.SMARTPHONE, "otp"): "the one-time password it opened, which the scan hunts as an otp secret",
    (EntityKind.SMARTPHONE, "doc_values"): "the fields it decrypted, which the scan hunts as view_field secrets",
}


# the class of each party, whose methods read that party's own state
PARTY_CLASSES = {
    "UserModel": EntityKind.USER,
    "Terminal": EntityKind.TERMINAL,
    "Smartphone": EntityKind.SMARTPHONE,
    "Server": EntityKind.SERVER,
}


def state_reads(source: str) -> set[tuple[EntityKind | None, str]]:
    """(party, key) for each string key source reads off a .state: a
    subscript load, a state.get('key'), or a 'key' in (or not in) state. A
    read inside a class of PARTY_CLASSES is its party's; any other, in a
    module helper, Party or another module, has party None and counts for
    every party. An augmented assignment reads its key only to write it
    back, so it is no read."""
    tree = ast.parse(source)
    owner = {
        id(node): PARTY_CLASSES[cls.name]
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in PARTY_CLASSES
        for node in ast.walk(cls)
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _name(node.value) == "state":
            reads.append((node, node.slice))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            reads += [(node, key) for key in node.args[:1]] if _name(node.func.value) == "state" else []
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            reads += [(node, node.left)] if _name(node.comparators[0]) == "state" else []
    return {
        (owner.get(id(node)), key.value)
        for node, key in reads
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def unread_keys(table: dict, sources: dict[str, str]) -> set[tuple[EntityKind, str]]:
    """Each (party, key) table declares that no source reads at that party:
    in one of its class's methods, or anywhere outside the party classes."""
    read = set().union(*map(state_reads, sources.values()))
    return {
        (party, key)
        for party, hints in table.items()
        for key in hints
        if (party, key) not in read and (None, key) not in read
    }


def kept_message_findings(source: str, filename: str = "<src>") -> list[str]:
    """Each store into a .state outside Party.receive that keeps a message:
    under a key x.TAG or tag, or of a value named msg or message.
    Party.receive keeps every message a party takes, so what a party was
    handed is written down in one place."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for party in ast.walk(tree)
        if isinstance(party, ast.ClassDef) and party.name == "Party"
        for function in party.body
        if isinstance(function, ast.FunctionDef) and function.name == "receive"
        for node in ast.walk(function)
    }
    return [
        f"{filename}:{node.lineno} keeps a message outside Party.receive"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign)) and id(node) not in exempt
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for part in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(part, ast.Subscript) and _name(part.value) == "state"
        and (_name(part.slice) in ("TAG", "tag") or _name(node.value) in ("msg", "message"))
    ]


def _sources() -> dict[str, str]:
    return {str(path.relative_to(SRC)): path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}


def test_every_state_store_is_accounted_for():
    # what a party may hold is protocols.STATE and the tags that end at it,
    # which Entity.snapshots enforces; the source must keep no message outside
    # Party.receive, and read every declared key but those held for the scan
    sources = _sources()
    assert [finding for name, source in sources.items() for finding in kept_message_findings(source, name)] == []
    assert unread_keys(STATE, sources) == set(HELD_FOR_SCAN)


def test_the_kept_message_check_can_fail():
    flagged = [
        "terminal.state[msg.TAG] = msg",
        "self.state[SubmitTx.TAG] = other",
        "self.state['login'] = message",
        "self.state['n'], self.state[tag] = 1, message",
        "class Terminal:\n    def receive(self, message):\n        self.state[tag] = message",
        "class Party:\n    def handle(self, message):\n        self.state[tag] = message",
    ]
    for source in flagged:
        (finding,) = kept_message_findings(source)
        assert finding.endswith("keeps a message outside Party.receive"), source
    passed = [
        "class Party:\n    def receive(self, message):\n        tag = message.TAG\n        self.state[tag] = message",
        "self.state['pending_otp'] = msg.otp",
        "received = self.state.get(SubmitTx.TAG)",
    ]
    for source in passed:
        assert kept_message_findings(source) == [], source


def test_the_write_only_key_check_can_fail():
    table = {EntityKind.SERVER: {"ghost": int, "bumped": int, "seen": int, "got": str, "tested": bytes}}
    source = (
        "s.state['ghost'] = 0\ns.state['bumped'] += 1\nx = s.state['seen']\ny = phone.state.get('got')\n"
        "if 'tested' not in self.state: pass\nz = other.get('ghost')\nw = 'bumped' in registry"
    )
    unread = {(EntityKind.SERVER, "ghost"), (EntityKind.SERVER, "bumped")}
    assert unread_keys(table, {"a.py": "", "b.py": source}) == unread
    # a read in a party's method is that party's alone; one anywhere else is every party's
    table = {EntityKind.SMARTPHONE: {"nonce": bytes}, EntityKind.SERVER: {"nonce": bytes}}
    server_only = "class Server(Party):\n    def check(self):\n        return self.state['nonce']"
    assert unread_keys(table, {"p.py": server_only}) == {(EntityKind.SMARTPHONE, "nonce")}
    helper = "def nonce_of(party):\n    return party.state['nonce']"
    assert unread_keys(table, {"p.py": server_only, "q.py": helper}) == set()
    in_party = "class Party:\n    def check(self):\n        return self.state.get('nonce')"
    assert unread_keys(table, {"p.py": in_party}) == set()
    # a write-only key back in the real table is flagged beside the two held for the scan
    returned = {**STATE, EntityKind.USER: {**STATE[EntityKind.USER], "typed_otps": int}}
    assert unread_keys(returned, _sources()) == {*HELD_FOR_SCAN, (EntityKind.USER, "typed_otps")}


# The monkeypatch targets a lambda still records calls to, as (owner, name),
# each with the reason conftest's spy cannot: it patches a module or class
# attribute, and records a call's arguments and what it gave back.
LAMBDA_RECORDERS = {
    ("GOALS", "authenticate_as_victim"): "a dict entry, not an attribute",
    ("Session", "inject"): "records the verdict standing at each send, which the session holds, not the arguments",
}


def lambda_recorders(source: str) -> list[tuple[int, str, str]]:
    """(line, owner, name) of each setattr or setitem on a monkeypatch in
    source whose value is a lambda that calls .append: a recorder of calls
    written by hand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)  # not the builtin setattr
            and node.func.attr in ("setattr", "setitem") and node.args and isinstance(node.args[-1], ast.Lambda)
        ):
            continue
        if any(isinstance(part, ast.Call) and _name(part.func) == "append" for part in ast.walk(node.args[-1])):
            owner, key = node.args[0], node.args[-2]
            found.append((node.lineno, _name(owner), key.value if isinstance(key, ast.Constant) else _name(key)))
    return found


def test_no_test_records_calls_through_a_lambda():
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        for line, owner, name in lambda_recorders(path.read_text(encoding="utf-8")):
            found.setdefault((owner, name), []).append(f"{path.name}:{line}")
    assert {key: lines for key, lines in found.items() if key not in LAMBDA_RECORDERS} == {}
    # a stale entry would let a new recorder of that name through unexamined
    assert set(LAMBDA_RECORDERS) <= found.keys()


def test_the_lambda_recorder_check_can_fail():
    flagged = {
        'monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(a) or real(*a))': ("crypto", "verify"),
        'patch.setitem(entities._ENCODERS, str, lambda obj: seen.append(obj) or encode(obj))': ("_ENCODERS", "str"),
        'monkeypatch.setattr("visualauth.crypto.verify", lambda *a: calls.append(a) or real(*a))':
            (None, "visualauth.crypto.verify"),
    }
    for source, where in flagged.items():
        assert [found[1:] for found in lambda_recorders(source)] == [where], source
    passed = [
        'calls = spy(crypto, "verify")',
        'monkeypatch.setattr(mutants, "pytest", lambda work, args: (next(codes), "FAILED f - boom\\n"))',
        'monkeypatch.setattr(adversary, "run_flow", recording)',
        'setattr(box, "x", lambda: seen.append(1))',
    ]
    for source in passed:
        assert lambda_recorders(source) == [], source
