"""Pass 1: the intra-package import graph against the declared layering.

Every parsed module under the package root (``ast`` only -- nothing is
imported) contributes its ``import``/``from ... import`` statements of
intra-package modules as edges, and each edge carries its *kind*:

* ``runtime`` -- module level, executed at import time;
* ``type`` -- inside an ``if TYPE_CHECKING:`` block, never executed;
* ``lazy`` -- inside a function body, executed on call.

Cycles are computed over runtime edges only (type/lazy edges are how
cycles are legitimately broken); the layering contract applies to every
kind, because even a type-only import couples the layers for readers
and refactors.

Layering
--------
``[tool.reproaudit.layers]`` assigns module prefixes to named layers
and gives each layer an explicit ``may_import`` list.  An edge from
layer A to layer B is

* fine when A == B or B is in A's ``may_import``;
* **layer-skipping** (ARC003) when B is reachable from A only through
  the transitive closure of ``may_import`` -- the dependency exists but
  bypasses the declared seam;
* **forbidden** (ARC002) otherwise.

``# reproaudit: allow-edge -- justification`` on the import's line (or
alone on the line above) suppresses ARC002/ARC003 for that edge; the
justification is mandatory, and a bare ``allow-edge`` is itself
reported as AUD000, mirroring the REP rules' disable grammar.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.rules import Finding
from repro.devtools.source import SourceTree

__all__ = [
    "ImportEdge",
    "ModuleGraph",
    "build_graph",
    "check_layering",
    "find_cycles",
]


@dataclass(frozen=True)
class ImportEdge:
    """One intra-package import: ``src`` module imports ``dst`` module."""

    src: str
    dst: str
    path: str  # repo-relative path of the importing file
    line: int
    col: int
    kind: str  # "runtime" | "type" | "lazy"


@dataclass(frozen=True)
class ModuleGraph:
    """The parsed package: modules and edges."""

    modules: Tuple[str, ...]
    edges: Tuple[ImportEdge, ...]
    #: repo-relative path of each module, for reporting.
    paths: Mapping[str, str]
    #: raw source lines per parsed module, for the allow-edge scan.
    sources: Mapping[str, Tuple[str, ...]]

    def runtime_edges(self) -> List[ImportEdge]:
        return [e for e in self.edges if e.kind == "runtime"]


def _module_name(rel: str, src_prefix: str) -> str:
    """``src/repro/net/asn.py`` -> ``repro.net.asn``."""
    if rel.startswith(src_prefix + "/"):
        rel = rel[len(src_prefix) + 1 :]
    mod = rel[: -len(".py")].replace("/", ".")
    if mod.endswith(".__init__"):
        mod = mod[: -len(".__init__")]
    return mod


class _ImportVisitor(ast.NodeVisitor):
    """Collect intra-package imports with their nesting kind."""

    def __init__(self, src_mod: str, path: str, known: Set[str]) -> None:
        self.src_mod = src_mod
        self.path = path
        self.known = known
        self.edges: List[ImportEdge] = []
        self._stack: List[Optional[str]] = []

    def _kind(self) -> str:
        for kind in reversed(self._stack):
            if kind is not None:
                return kind
        return "runtime"

    def visit_If(self, node: ast.If) -> None:
        test = ast.dump(node.test)
        kind = "type" if "TYPE_CHECKING" in test else None
        self._stack.append(kind)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._stack.append("lazy")
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _add(self, target: str, node: ast.AST) -> None:
        dst = self._resolve(target)
        if dst is None or dst == self.src_mod:
            return
        self.edges.append(
            ImportEdge(
                src=self.src_mod,
                dst=dst,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                kind=self._kind(),
            )
        )

    def _resolve(self, target: str) -> Optional[str]:
        """Longest known module prefix of ``target`` (or None if foreign)."""
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.known:
                return candidate
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import; repo style is absolute-only
            base_parts = self.src_mod.split(".")[: -node.level or None]
            module = ".".join(
                base_parts + ([node.module] if node.module else [])
            )
        else:
            module = node.module or ""
        if not module:
            return
        for alias in node.names:
            # `from pkg import name` targets the submodule pkg.name when
            # one exists, the package itself otherwise.
            dotted = f"{module}.{alias.name}"
            self._add(dotted if dotted in self.known else module, node)


def build_graph(source: SourceTree) -> ModuleGraph:
    """The import graph of every module in the parsed tree."""
    src_prefix = source.package_root.split("/")[0]
    paths: Dict[str, str] = {
        _module_name(rel, src_prefix): rel for rel in source.files
    }
    known: Set[str] = set(paths)
    edges: List[ImportEdge] = []
    sources: Dict[str, Tuple[str, ...]] = {}
    for mod, rel in paths.items():
        parsed = source.files[rel]
        if parsed.tree is None:
            continue
        sources[mod] = parsed.lines
        visitor = _ImportVisitor(mod, rel, known)
        visitor.visit(parsed.tree)
        edges.extend(visitor.edges)
    return ModuleGraph(
        modules=tuple(sorted(known)),
        edges=tuple(edges),
        paths=paths,
        sources=sources,
    )


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------


def find_cycles(graph: ModuleGraph) -> List[Tuple[str, ...]]:
    """Cycles among runtime edges (Tarjan SCCs of size > 1), sorted."""
    adjacency: Dict[str, Set[str]] = {m: set() for m in graph.modules}
    for edge in graph.runtime_edges():
        adjacency[edge.src].add(edge.dst)
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: (node, iterator) pairs to survive deep graphs.
        work = [(v, iter(sorted(adjacency[v])))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adjacency[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1:
                    # Rotate so the cycle starts at its smallest member.
                    pivot = component.index(min(component))
                    rotated = tuple(
                        component[pivot:] + component[:pivot]
                    )
                    sccs.append(rotated)

    for module in graph.modules:
        if module not in index:
            strongconnect(module)
    return sorted(sccs)


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------

_ALLOW_RE = re.compile(
    r"#\s*reproaudit:\s*allow-edge(?:\s+--\s*(?P<why>\S.*))?\s*$"
)


@dataclass(frozen=True)
class _Allow:
    line: int
    justified: bool
    standalone: bool


def _scan_allows(source_lines: Sequence[str]) -> List[_Allow]:
    allows: List[_Allow] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        allows.append(
            _Allow(
                line=lineno,
                justified=match.group("why") is not None,
                standalone=text.lstrip().startswith("#"),
            )
        )
    return allows


def _closure(
    may_import: Mapping[str, Tuple[str, ...]]
) -> Dict[str, Set[str]]:
    """Transitive closure of the may_import relation, per layer."""
    closure: Dict[str, Set[str]] = {}

    def reach(layer: str, seen: Set[str]) -> Set[str]:
        if layer in closure:
            return closure[layer]
        if layer in seen:  # defensive: a cyclic layer declaration
            return set()
        seen.add(layer)
        out: Set[str] = set()
        for dep in may_import.get(layer, ()):
            out.add(dep)
            out |= reach(dep, seen)
        closure[layer] = out
        return out

    for layer in may_import:
        reach(layer, set())
    return closure


def layer_of(
    module: str, layer_modules: Mapping[str, Tuple[str, ...]]
) -> Optional[str]:
    """The layer whose longest module prefix covers ``module``."""
    best: Optional[Tuple[int, str]] = None
    for layer, prefixes in layer_modules.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), layer)
    return best[1] if best is not None else None


def check_layering(
    graph: ModuleGraph,
    layer_modules: Mapping[str, Tuple[str, ...]],
    may_import: Mapping[str, Tuple[str, ...]],
) -> List[Finding]:
    """ARC001 cycles, ARC002/ARC003 bad edges, ARC004 unassigned, AUD000."""
    findings: List[Finding] = []
    for cycle in find_cycles(graph):
        head = cycle[0]
        findings.append(
            Finding(
                code="ARC001",
                path=graph.paths.get(head, head),
                line=1,
                col=0,
                message=(
                    "runtime import cycle: " + " -> ".join(cycle + (head,))
                ),
                fix_hint="break the cycle with a TYPE_CHECKING or "
                "function-level import, or move the shared piece down a "
                "layer",
            )
        )
    closure = _closure(may_import)
    assignments = {m: layer_of(m, layer_modules) for m in graph.modules}
    for module, layer in sorted(assignments.items()):
        if layer is None:
            findings.append(
                Finding(
                    code="ARC004",
                    path=graph.paths.get(module, module),
                    line=1,
                    col=0,
                    message=f"module {module} belongs to no declared "
                    "layer",
                    fix_hint="add its package (or the module itself) to a "
                    "layer in [tool.reproaudit.layers]",
                )
            )
    # The allow-edge scan runs over every module once: unjustified
    # comments are findings even when no edge needed them.
    allowed_lines: Dict[str, Set[int]] = {}
    for module, lines in graph.sources.items():
        path = graph.paths.get(module, module)
        for allow in _scan_allows(lines):
            if not allow.justified:
                findings.append(
                    Finding(
                        code="AUD000",
                        path=path,
                        line=allow.line,
                        col=0,
                        message=(
                            "allow-edge comment without a justification: "
                            "write `# reproaudit: allow-edge -- <why this "
                            "coupling is sound>` (an unjustified "
                            "allow-edge suppresses nothing)"
                        ),
                        fix_hint="append ` -- <justification>` or remove "
                        "the offending import",
                    )
                )
                continue
            covered = allowed_lines.setdefault(module, set())
            covered.add(allow.line)
            if allow.standalone:
                covered.add(allow.line + 1)
    for edge in sorted(
        graph.edges, key=lambda e: (e.path, e.line, e.col, e.dst)
    ):
        src_layer = assignments.get(edge.src)
        dst_layer = assignments.get(edge.dst)
        if src_layer is None or dst_layer is None or src_layer == dst_layer:
            continue
        if dst_layer in may_import.get(src_layer, ()):
            continue
        if edge.line in allowed_lines.get(edge.src, ()):
            continue
        if dst_layer in closure.get(src_layer, set()):
            findings.append(
                Finding(
                    code="ARC003",
                    path=edge.path,
                    line=edge.line,
                    col=edge.col,
                    message=(
                        f"layer-skipping import: {edge.src} "
                        f"[{src_layer}] imports {edge.dst} [{dst_layer}] "
                        f"({edge.kind}); {dst_layer} is reachable from "
                        f"{src_layer} only transitively"
                    ),
                    fix_hint="route through the intermediate layer, add "
                    f"'{dst_layer}' to {src_layer}'s may_import, or "
                    "justify with `# reproaudit: allow-edge -- <why>`",
                )
            )
        else:
            findings.append(
                Finding(
                    code="ARC002",
                    path=edge.path,
                    line=edge.line,
                    col=edge.col,
                    message=(
                        f"forbidden import: {edge.src} [{src_layer}] "
                        f"imports {edge.dst} [{dst_layer}] ({edge.kind}); "
                        f"{src_layer} may import only "
                        + (
                            ", ".join(may_import.get(src_layer, ()))
                            or "nothing"
                        )
                    ),
                    fix_hint="move the shared code down a layer, invert "
                    "the dependency, or justify with `# reproaudit: "
                    "allow-edge -- <why>`",
                )
            )
    return findings
