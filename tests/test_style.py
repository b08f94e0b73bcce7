"""Rules that hold for every source file under src/."""

from __future__ import annotations

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

import visualauth
from visualauth.entities import MESSAGES, Message

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 110

# The functools caches in src/ allowed to grow without a bound, each with
# the finite domain it is keyed on. Any other cache carries a numeric
# maxsize, so a memo keyed on session inputs cannot grow the process for
# as long as it runs.
UNBOUNDED_CACHES = {
    "_generator_poly": "keyed by parity degree: at most the 40 specs' parity counts",
    "_fields_encoder": "keyed by dataclass: one entry per class ever encoded",
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
    nor an allow-listed unbounded cache, as 'file:line name: problem'."""
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
    return findings


def test_every_cache_is_bounded_or_keyed_on_a_finite_domain():
    findings, owners = [], set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        findings += cache_findings(source, str(path.relative_to(SRC)))
        owners |= {
            node.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
        }
    assert findings == []
    # a stale entry would let a new cache of that name through unexamined
    assert set(UNBOUNDED_CACHES) <= owners


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
