"""The REP rules: AST checks behind the determinism & purity auditor.

Each rule maps one digest invariant onto a mechanically checkable
pattern.  The checks are deliberately syntactic -- no type inference --
so every rule documents the pattern it matches and accepts a
``# reprolint: disable=REPNNN -- justification`` escape hatch for the
cases the heuristic cannot see through (see
:mod:`repro.devtools.reprolint` for the comment grammar).

=======  ==============================================================
code     invariant
=======  ==============================================================
REP001   RNG draws on digest paths must be keyed to record identity,
         never pulled from a shared sequential stream.
REP002   Iteration feeding serialization / digests / shard merges must
         not walk sets or dict views unsorted.
REP003   Configs and fault plans are shared across processes and hashed
         for provenance; their dataclasses must be ``frozen=True``.
REP004   Inference code must not read wall clocks or the environment;
         two runs of one (seed, config) pair must see identical inputs.
REP005   Mutable default arguments alias state across calls -- a purity
         hazard everywhere, not just on digest paths.
REP006   Callables handed to the multiprocessing executor must be
         module-level: closures capture parent state that pickling or
         fork re-execution silently diverges from.
REP007   Broad exception handlers on measurement/inference paths must
         re-raise or classify into the ``repro.errors`` taxonomy;
         swallowing ``Exception`` hides failures from the supervisor's
         retry / quarantine / salvage ladder.
REP008   Adaptive control decisions (circuit breakers, probe governor)
         must fold from probe counts, never wall-clock reads -- even
         the monotonic clocks REP004 exempts: a breaker keyed on
         elapsed time trips differently on a slower machine.
=======  ==============================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = ["Finding", "RuleSpec", "RULES", "run_rule", "all_rule_codes"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``fatal`` marks findings that mean the check itself could not run
    (an unparseable file, a missing lockfile): the CLIs report those
    with exit status 2 instead of 1, per the shared exit contract.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    fix_hint: str
    fatal: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "fatal": self.fatal,
        }


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule: identity, rationale, and its checker."""

    code: str
    title: str
    rationale: str
    fix_hint: str
    check: Callable[["RuleContext"], List[Finding]]


@dataclass(frozen=True)
class RuleContext:
    """Everything a checker needs about one parsed file."""

    path: str
    tree: ast.Module
    source_lines: Tuple[str, ...]


#: the four comprehension node types share ``generators``.
_Comprehension = Union[ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp]
_AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# ----------------------------------------------------------------------
# REP001 -- unkeyed / shared RNG draws
# ----------------------------------------------------------------------

#: methods of ``random.Random`` (and the module-level aliases) that
#: consume the shared stream and therefore make results order-dependent.
RNG_DRAW_METHODS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "expovariate",
        "lognormvariate",
        "normalvariate",
        "gauss",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "binomialvariate",
    }
)

_RNG_NAME_RE = re.compile(r"(^|_)rng$|^rng", re.IGNORECASE)

#: helper constructors that return a *keyed* RNG (identity-derived, so
#: drawing from them is order-independent by construction).
_KEYED_RNG_FACTORIES = frozenset({"Random", "make_rng", "probe_rng"})


def _is_rng_name(name: str) -> bool:
    return bool(_RNG_NAME_RE.search(name))


def _is_keyed_rng_call(node: ast.AST) -> bool:
    """``random.Random(...)``, ``make_rng(...)``, ``engine.probe_rng(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _KEYED_RNG_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in _KEYED_RNG_FACTORIES
    return False


def _is_order_safe_iterable(node: ast.expr) -> bool:
    """Iterables whose order is defined by construction.

    ``range``/``sorted``/``enumerate``/``reversed``/``zip`` (the latter
    three when their operands are safe) and literal sequences.  A bare
    name or attribute is conservatively *unsafe*: its order may be set
    iteration or dict insertion, which the linter cannot see.
    """
    if isinstance(node, (ast.Constant, ast.Tuple, ast.List)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name in ("range", "sorted"):
            return True
        if name in ("enumerate", "reversed", "zip"):
            return all(_is_order_safe_iterable(arg) for arg in node.args)
    return False


class _Rep001Visitor(ast.NodeVisitor):
    """Flags draws from shared or sequentially-coupled RNG streams.

    A draw is flagged when its receiver is

    * the ``random`` module itself (``random.random()``),
    * an attribute whose terminal name looks like an RNG
      (``self._rng.choice(...)`` -- object-lifetime streams couple every
      caller to every other caller),
    * a local name that was assigned from such an attribute
      (``rng = self._rng`` then ``rng.random()``), or
    * a local keyed RNG (``rng = random.Random(repr(...))``) drawn
      *inside a loop entered after the construction* whose iterable is
      not provably ordered -- the draw sequence then couples to set or
      dict iteration order (the PeeringDB tenant-listing bug).

    Draws are allowed on a fresh ``random.Random(...)`` /
    ``make_rng(...)`` / ``probe_rng(...)`` value outside such loops, and
    on bare parameters named ``rng`` (the caller owns the keying;
    ``net/rng.py`` helpers rely on this).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        #: per-function name state: name -> ("shared"|"keyed", loop_depth)
        self._scopes: List[Dict[str, Tuple[str, int]]] = [{}]
        #: stack of loop-iterable safety flags, innermost last.
        self._loops: List[bool] = []

    # -- scope handling --------------------------------------------------

    def _enter(self) -> None:
        self._scopes.append({})

    def _exit(self) -> None:
        self._scopes.pop()

    def _lookup(self, name: str) -> Optional[Tuple[str, int]]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter()
        self.generic_visit(node)
        self._exit()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter()
        self.generic_visit(node)
        self._exit()

    # -- loop tracking ----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._loops.append(_is_order_safe_iterable(node.iter))
        for child in [node.target] + node.body:
            self.visit(child)
        self._loops.pop()
        for child in node.orelse:
            self.visit(child)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loops.append(True)  # while loops do not iterate a container
        for child in node.body:
            self.visit(child)
        self._loops.pop()
        for child in node.orelse:
            self.visit(child)

    def _visit_comp(self, node: _Comprehension) -> None:
        generators = node.generators
        for gen in generators:
            self.visit(gen.iter)
        self._loops.extend(_is_order_safe_iterable(g.iter) for g in generators)
        for gen in generators:
            for cond in gen.ifs:
                self.visit(cond)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.comprehension):
                self.visit(child)
        del self._loops[len(self._loops) - len(generators) :]

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    # -- assignments tracked for aliasing --------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track([node.target], node.value)
        self.generic_visit(node)

    def _track(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        state: Optional[str] = None
        if _is_keyed_rng_call(value):
            state = "keyed"
        elif isinstance(value, ast.Attribute) and _is_rng_name(value.attr):
            state = "shared"
        if state is not None:
            for name in names:
                self._scopes[-1][name] = (state, len(self._loops))
        else:
            # Reassignment from anything else clears the tracking.
            for name in names:
                for scope in self._scopes:
                    scope.pop(name, None)

    # -- the draws themselves --------------------------------------------

    def _flag(self, node: ast.Call, method: str, what: str) -> None:
        self.findings.append(
            Finding(
                code="REP001",
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"draw `.{method}()` from {what}: the result depends "
                    "on how many draws ran before it, so construction or "
                    "lookup order leaks into the digest"
                ),
                fix_hint=(
                    "key the draw to the record's identity: "
                    "`keyed_uniform(label, seed, *key)` or a fresh "
                    "`random.Random(repr((label, seed) + key))` per record "
                    "(see net/rng.py)"
                ),
            )
        )

    def _unsafe_loop_since(self, depth: int) -> bool:
        return any(not safe for safe in self._loops[depth:])

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in RNG_DRAW_METHODS:
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "random":
                    self._flag(node, func.attr, "the module-level `random` stream")
                else:
                    tracked = self._lookup(receiver.id)
                    if tracked is not None:
                        state, depth = tracked
                        if state == "shared":
                            self._flag(
                                node,
                                func.attr,
                                f"`{receiver.id}` (aliased from a shared RNG "
                                "attribute)",
                            )
                        elif state == "keyed" and self._unsafe_loop_since(depth):
                            self._flag(
                                node,
                                func.attr,
                                f"`{receiver.id}` drawn inside a loop whose "
                                "iteration order the linter cannot prove "
                                "(set/dict/opaque iterable)",
                            )
            elif isinstance(receiver, ast.Attribute) and _is_rng_name(receiver.attr):
                self._flag(
                    node,
                    func.attr,
                    f"`{ast.unparse(receiver)}` (a shared sequential RNG)",
                )
        self.generic_visit(node)


def _check_rep001(ctx: RuleContext) -> List[Finding]:
    visitor = _Rep001Visitor(ctx.path)
    visitor.visit(ctx.tree)
    return visitor.findings


# ----------------------------------------------------------------------
# REP002 -- unsorted iteration feeding serialization / digests / merges
# ----------------------------------------------------------------------

#: a function is a serialization context when its name matches this.
_SERIALIZATION_NAME_RE = re.compile(
    r"digest|fingerprint|serial|canonical|checksum|snapshot"
    r"|(^|_)pack|(^|_)merge|to_json|as_json|to_wire|journal",
    re.IGNORECASE,
)

#: ...or when its body hashes or dumps.
_HASHING_CALL_ATTRS = frozenset({"sha256", "sha1", "md5", "blake2b", "update", "dumps", "dump"})


def _is_unordered_expr(node: ast.expr) -> Optional[str]:
    """Name of the unordered construct, or None when the order is defined."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"`{func.id}(...)`"
        if isinstance(func, ast.Attribute) and func.attr in ("values", "keys", "items"):
            return f"`.{func.attr}()`"
    return None


class _Rep002Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._context_depth = 0

    def _is_serialization_fn(self, node: _AnyFunctionDef) -> bool:
        if _SERIALIZATION_NAME_RE.search(node.name):
            return True
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _HASHING_CALL_ATTRS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in ("hashlib", "json", "h", "hasher")
            ):
                return True
        return False

    def _visit_fn(self, node: _AnyFunctionDef) -> None:
        entered = self._is_serialization_fn(node)
        if entered:
            self._context_depth += 1
        self.generic_visit(node)
        if entered:
            self._context_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)

    def _flag(self, node: ast.AST, construct: str) -> None:
        self.findings.append(
            Finding(
                code="REP002",
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"iteration over {construct} inside a serialization/"
                    "digest/merge context without `sorted()`: set and dict-"
                    "view order is an implementation detail, so the "
                    "serialized bytes are not canonical"
                ),
                fix_hint="wrap the iterable in `sorted(...)` (with a key if "
                "elements are not naturally ordered)",
            )
        )

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self._context_depth == 0:
            return
        construct = _is_unordered_expr(iter_node)
        if construct is not None:
            self._flag(iter_node, construct)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: _Comprehension) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        # tuple(X) / list(X) materialize X's order directly.
        if (
            self._context_depth > 0
            and isinstance(node.func, ast.Name)
            and node.func.id in ("tuple", "list")
            and node.args
        ):
            self._check_iter(node.args[0])
        self.generic_visit(node)


def _check_rep002(ctx: RuleContext) -> List[Finding]:
    visitor = _Rep002Visitor(ctx.path)
    visitor.visit(ctx.tree)
    return visitor.findings


# ----------------------------------------------------------------------
# REP003 -- configs and fault plans must be frozen dataclasses
# ----------------------------------------------------------------------


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "dataclass":
            return dec
        if isinstance(dec, ast.Call):
            func = dec.func
            if isinstance(func, ast.Name) and func.id == "dataclass":
                return dec
            if isinstance(func, ast.Attribute) and func.attr == "dataclass":
                return dec
        if isinstance(dec, ast.Attribute) and dec.attr == "dataclass":
            return dec
    return None


def _is_frozen(dec: ast.expr) -> bool:
    if not isinstance(dec, ast.Call):
        return False
    for kw in dec.keywords:
        if kw.arg == "frozen":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _check_rep003(ctx: RuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dec = _dataclass_decorator(node)
        if dec is not None and not _is_frozen(dec):
            findings.append(
                Finding(
                    code="REP003",
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"dataclass `{node.name}` is not frozen: configs and "
                        "fault plans are shared with worker processes and "
                        "recorded for provenance, so in-place mutation "
                        "silently forks the run's identity"
                    ),
                    fix_hint="declare it `@dataclass(frozen=True)` and use "
                    "`dataclasses.replace` for variations",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REP004 -- wall-clock / environment reads in inference code
# ----------------------------------------------------------------------

#: ``time.*`` names that read the wall clock.  ``perf_counter`` /
#: ``monotonic`` / ``sleep`` are exempt: they feed timing observability
#: (excluded from the digest), not inference values.
_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime"})
_WALL_CLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})


def _check_rep004(ctx: RuleContext) -> List[Finding]:
    findings: List[Finding] = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                code="REP004",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{what} inside inference code: the value differs "
                    "between two runs of the same (seed, config) pair, so "
                    "anything derived from it is unreproducible"
                ),
                fix_hint="derive the value from the seed/config, pass it in "
                "explicitly, or keep it in timing metrics (which are "
                "excluded from the digest; `time.perf_counter` is allowed)",
            )
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name):
                if value.id == "time" and node.attr in _WALL_CLOCK_TIME_ATTRS:
                    flag(node, f"wall-clock read `time.{node.attr}`")
                elif value.id in ("datetime", "date") and node.attr in _WALL_CLOCK_DT_ATTRS:
                    flag(node, f"wall-clock read `{value.id}.{node.attr}`")
                elif value.id == "os" and node.attr == "environ":
                    flag(node, "environment read `os.environ`")
            elif (
                isinstance(value, ast.Attribute)
                and value.attr in ("datetime", "date")
                and node.attr in _WALL_CLOCK_DT_ATTRS
            ):
                flag(node, f"wall-clock read `datetime.{value.attr}.{node.attr}`")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                flag(node, "environment read `os.getenv`")
    return findings


# ----------------------------------------------------------------------
# REP005 -- mutable default arguments
# ----------------------------------------------------------------------


def _mutable_default(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.List):
        return "[]"
    if isinstance(node, ast.Dict):
        return "{}"
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("list", "dict", "set", "bytearray"):
            return f"{node.func.id}()"
    return None


def _check_rep005(ctx: RuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            what = _mutable_default(default)
            if what is not None:
                findings.append(
                    Finding(
                        code="REP005",
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                        message=(
                            f"mutable default {what} in `{node.name}`: the "
                            "object is created once and shared across every "
                            "call, so one caller's mutation leaks into the "
                            "next"
                        ),
                        fix_hint="default to `None` and create the container "
                        "inside the function body",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# REP006 -- closures handed to the multiprocessing executor
# ----------------------------------------------------------------------

_POOL_SUBMIT_ATTRS = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)


class _Rep006Visitor(ast.NodeVisitor):
    """Flags lambdas / nested functions crossing a pool boundary.

    With ``fork`` the closure appears to work until the captured parent
    state drifts; with ``spawn`` it fails to pickle outright.  Either
    way a retried or resumed shard no longer reruns the same code, so
    the merge is not reproducible.  Only module-level callables (rebuilt
    from the pool initializer's explicit arguments) are safe to submit.
    """

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._module_level: Set[str] = {
            n.name
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        self._nested: Set[str] = set()
        for outer in ast.walk(tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(outer):
                    if inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._nested.add(inner.name)

    def _flag(self, node: ast.AST, what: str, method: str) -> None:
        self.findings.append(
            Finding(
                code="REP006",
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{what} passed to `{method}`: closures capture "
                    "non-module-level state that pickling/fork re-execution "
                    "does not reproduce, so a retried shard may run "
                    "different code than its first attempt"
                ),
                fix_hint="submit a module-level function and ship its inputs "
                "through the pool initializer or the call arguments",
            )
        )

    def _check_callable_arg(self, arg: ast.expr, node: ast.AST, method: str) -> None:
        if isinstance(arg, ast.Lambda):
            self._flag(node, "lambda", method)
        elif isinstance(arg, ast.Name):
            name = arg.id
            if name in self._nested and name not in self._module_level:
                self._flag(node, f"nested function `{name}`", method)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_SUBMIT_ATTRS and node.args:
                self._check_callable_arg(node.args[0], node, func.attr)
            elif func.attr == "Pool":
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        self._check_callable_arg(kw.value, node, "Pool(initializer=...)")
        self.generic_visit(node)


def _check_rep006(ctx: RuleContext) -> List[Finding]:
    visitor = _Rep006Visitor(ctx.path, ctx.tree)
    visitor.visit(ctx.tree)
    return visitor.findings


# ----------------------------------------------------------------------
# REP007 -- broad exception handlers outside the error taxonomy
# ----------------------------------------------------------------------

#: Names from :mod:`repro.errors` whose presence in a handler body means
#: the failure is being classified rather than swallowed.
_TAXONOMY_NAMES = frozenset(
    {
        "ReproError",
        "TransportError",
        "DataError",
        "StageError",
        "StudyInterrupted",
        "DeadlineExceeded",
        "ShardTimeoutError",
        "classify_error",
        "wrap_error",
    }
)

_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception``, ``except BaseException``
    (bare names or inside a tuple; ``as exc`` does not matter)."""
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in _BROAD_EXCEPTION_NAMES:
            return True
    return False


def _handler_classifies(handler: ast.ExceptHandler) -> bool:
    """A handler is fine if it re-raises (anything) or touches the
    taxonomy -- wrapping, classifying, or constructing a ``ReproError``."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Name) and node.id in _TAXONOMY_NAMES:
                return True
            if isinstance(node, ast.Attribute) and node.attr in _TAXONOMY_NAMES:
                return True
    return False


def _check_rep007(ctx: RuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _catches_broadly(node) or _handler_classifies(node):
            continue
        caught = "bare except" if node.type is None else ast.unparse(node.type)
        findings.append(
            Finding(
                code="REP007",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"broad handler ({caught}) neither re-raises nor "
                    "classifies into the repro.errors taxonomy: the "
                    "supervisor cannot retry, quarantine, or salvage a "
                    "failure it never sees"
                ),
                fix_hint="re-raise, or wrap via repro.errors.wrap_error / "
                "a ReproError subclass so the failure is classified",
            )
        )
    return findings


# ----------------------------------------------------------------------
# REP008 -- clock reads feeding adaptive control decisions
# ----------------------------------------------------------------------

#: Every ``time.*`` callable that reads *any* clock.  REP008 is
#: stricter than REP004 on purpose: on adaptive decision paths even the
#: digest-exempt monotonic clocks are banned, because a breaker or
#: governor that branches on elapsed time makes different decisions on
#: a slower machine -- the exact worker-count/hardware dependence the
#: health ledger's count-based contract rules out.
_ANY_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)


def _check_rep008(ctx: RuleContext) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[Tuple[int, int]] = set()

    # Names bound by ``from time import monotonic [as tick]``.
    imported_clocks: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _ANY_CLOCK_TIME_ATTRS:
                    imported_clocks.add(alias.asname or alias.name)

    def clock_call(node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in _ANY_CLOCK_TIME_ATTRS
        ):
            return f"time.{func.attr}"
        if isinstance(func, ast.Name) and func.id in imported_clocks:
            return func.id
        return None

    # Syntactic taint, whole-file scope: any name ever assigned from an
    # expression containing a clock read carries the clock with it.
    tainted: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            value, targets = node.value, [node.target]
        else:
            continue
        if value is None:
            continue
        source = next(
            (c for sub in ast.walk(value) if (c := clock_call(sub))), None
        )
        if source is None:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    tainted[sub.id] = source

    def flag(node: ast.AST, what: str, via: Optional[str] = None) -> None:
        key = (node.lineno, node.col_offset)
        if key in seen:
            return
        seen.add(key)
        detail = f" via `{via}`" if via else ""
        findings.append(
            Finding(
                code="REP008",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"clock read `{what}`{detail} feeds an adaptive "
                    "control decision: breaker/governor transitions must "
                    "fold from probe counts so any worker count (and any "
                    "machine speed) reproduces the serial run"
                ),
                fix_hint="key the decision on outcome counts/streaks from "
                "the health ledger; clocks may only feed timing metrics",
            )
        )

    # Decision contexts: branch/loop/assert tests plus any comparison.
    roots: List[ast.expr] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            roots.append(node.test)
        elif isinstance(node, ast.Assert):
            roots.append(node.test)
        elif isinstance(node, ast.Compare):
            roots.append(node)
    for root in roots:
        for sub in ast.walk(root):
            source = clock_call(sub)
            if source is not None:
                flag(sub, source)
            elif isinstance(sub, ast.Name) and sub.id in tainted:
                flag(sub, tainted[sub.id], via=sub.id)
    return findings


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

RULES: Mapping[str, RuleSpec] = {
    spec.code: spec
    for spec in (
        RuleSpec(
            code="REP001",
            title="unkeyed/shared RNG draw on a digest path",
            rationale=(
                "a sequential RNG couples every draw to the draws before "
                "it, so construction and lookup order leak into inference "
                "outputs (the bug PR 3 hand-fixed in WhoisRegistry.lookup)"
            ),
            fix_hint="key draws to record identity via net/rng.py helpers",
            check=_check_rep001,
        ),
        RuleSpec(
            code="REP002",
            title="unsorted set/dict-view iteration feeding serialization",
            rationale=(
                "serialized bytes, digests, and merge streams must be "
                "canonical; set and dict-view order is not"
            ),
            fix_hint="wrap the iterable in sorted(...)",
            check=_check_rep002,
        ),
        RuleSpec(
            code="REP003",
            title="non-frozen dataclass in a config/fault-plan module",
            rationale=(
                "configs and plans cross process boundaries and are "
                "recorded for provenance; mutation forks the run identity"
            ),
            fix_hint="declare @dataclass(frozen=True)",
            check=_check_rep003,
        ),
        RuleSpec(
            code="REP004",
            title="wall-clock or environment read in inference code",
            rationale=(
                "two runs of one (seed, config) pair must see identical "
                "inputs; clocks and environments differ between runs"
            ),
            fix_hint="derive from seed/config or keep it in timing metrics",
            check=_check_rep004,
        ),
        RuleSpec(
            code="REP005",
            title="mutable default argument",
            rationale="the default is shared across calls; mutation leaks",
            fix_hint="default to None, create the container in the body",
            check=_check_rep005,
        ),
        RuleSpec(
            code="REP006",
            title="closure passed to the multiprocessing executor",
            rationale=(
                "captured parent state is not reproduced by pickle/fork, "
                "so retried shards may run different code"
            ),
            fix_hint="submit module-level functions only",
            check=_check_rep006,
        ),
        RuleSpec(
            code="REP007",
            title="broad exception handler outside the error taxonomy",
            rationale=(
                "a swallowed Exception on a measurement path is a "
                "failure the supervisor can neither retry, quarantine, "
                "nor report; classification is what makes degradation "
                "deliberate instead of silent"
            ),
            fix_hint="re-raise or wrap via repro.errors.wrap_error",
            check=_check_rep007,
        ),
        RuleSpec(
            code="REP008",
            title="clock read feeding an adaptive control decision",
            rationale=(
                "the adaptive contract keys breaker and governor "
                "transitions on probe counts so any worker count "
                "reproduces the serial run; a decision fed by any clock "
                "-- wall, monotonic, or perf -- varies with machine "
                "speed and breaks that bit-for-bit guarantee"
            ),
            fix_hint="fold counts/streaks in the health ledger instead",
            check=_check_rep008,
        ),
    )
}


def all_rule_codes() -> Tuple[str, ...]:
    return tuple(sorted(RULES))


def run_rule(code: str, ctx: RuleContext) -> List[Finding]:
    """Run one registered rule over a parsed file."""
    return RULES[code].check(ctx)
