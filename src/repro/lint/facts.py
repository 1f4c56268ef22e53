"""Per-module facts for the whole-program lint tier.

The project-wide rules (stream-lineage dataflow, interprocedural
spawn-safety, cross-module ordered-iteration) never touch raw ASTs: phase
one of the runner extracts a :class:`ModuleFacts` summary from each file
in the same pass that runs the per-file rules, and phase two works on
those summaries alone.

The extraction classifies every ``StreamFactory.stream(...)`` /
``spawn(...)`` / ``substream(...)`` name argument by *lineage*:

``literal``
    a plain string constant (or an f-string of constants),
``param``
    derived from a parameter of the enclosing function,
``constant``
    derived from a module-level constant (possibly imported),
``loop``
    derived from a loop/comprehension target of an enclosing loop,
``dynamic``
    anything whose provenance cannot be established statically.

Locals are resolved through a flow-insensitive assignment map (``label =
f"sweep-{kind}"; streams.spawn(label)`` classifies like the f-string),
and the classification is the *weakest* lineage over the expression's
free names (any dynamic name makes the whole argument dynamic; a loop
name beats a parameter, which beats a constant).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.registry import dotted_name, import_bindings, module_name_for

__all__ = [
    "StreamCall",
    "Handoff",
    "UnorderedIteration",
    "MergeFeed",
    "FunctionFacts",
    "ModuleFacts",
    "module_name_for",
    "extract_facts",
]

#: RNG-lineage methods recognised on stream factories.
STREAM_METHODS = ("stream", "spawn", "substream")
#: Pool/executor classes whose worker callables must be spawn-safe.
SPAWN_API_CLASSES = ("WorkerSupervisor",)
#: Methods that accept a worker callable as their first positional arg.
SPAWN_SUBMIT_METHODS = ("run", "submit", "map", "apply", "apply_async", "map_async", "starmap")
#: :attr:`Handoff.callee` of a lambda handed to a pool.
LAMBDA_CALLEE = "<lambda>"
#: Module-level factory calls whose results never pickle under spawn.
UNPICKLABLE_FACTORIES = (
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "local",
    "open",
    "socket",
    "connect",
    "Thread",
    "Queue",
)

_MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class StreamCall:
    """One ``*.stream/spawn/substream(name)`` call site."""

    method: str
    function: str  # enclosing function qualname, or "<module>"
    lineno: int
    col: int
    name_kind: str  # literal | param | constant | loop | dynamic
    literal: Optional[str] = None  # the name, when name_kind == "literal"
    in_loop: bool = False
    #: Lineage of the factory the method is called *on*: a loop-derived
    #: receiver (``factory = root.spawn(f"rep-{i}")``) makes a fixed name
    #: per-iteration-fresh, so RNG012 leaves it alone.
    receiver_kind: str = "dynamic"


@dataclass(frozen=True)
class Handoff:
    """A callable handed to a spawn pool / supervisor API."""

    api: str  # e.g. "WorkerSupervisor.run" or ".submit"
    callee: str  # dotted name of the callable as written, or LAMBDA_CALLEE
    function: str
    lineno: int
    col: int


@dataclass(frozen=True)
class UnorderedIteration:
    """Iteration whose order is not pinned (set, or unsorted dict view)."""

    kind: str  # "set" | "dict-view"
    detail: str  # what is being iterated, for the message
    function: str
    lineno: int
    col: int


@dataclass(frozen=True)
class MergeFeed:
    """A ``merge_snapshot(...)`` argument resolved to its producing call."""

    callee: str  # dotted name of the producing callable
    function: str
    lineno: int
    col: int


@dataclass
class FunctionFacts:
    """Call-graph and capture summary of one function."""

    qualname: str
    lineno: int
    params: List[str] = field(default_factory=list)
    is_nested: bool = False
    calls: List[str] = field(default_factory=list)  # dotted callee names
    global_reads: List[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the whole-program tier knows about one module."""

    relpath: str
    module: str
    import_bindings: Dict[str, str] = field(default_factory=dict)  # local -> dotted origin
    constants: List[str] = field(default_factory=list)  # top-level constant names
    mutated_globals: List[str] = field(default_factory=list)
    unpicklable_globals: Dict[str, str] = field(default_factory=dict)  # name -> factory
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    stream_calls: List[StreamCall] = field(default_factory=list)
    handoffs: List[Handoff] = field(default_factory=list)
    unordered_iters: List[UnorderedIteration] = field(default_factory=list)
    merge_feeds: List[MergeFeed] = field(default_factory=list)


class _ScopeFrame:
    """Mutable per-function state carried by the extraction visitor."""

    def __init__(self, qualname: str, params: Sequence[str], nested: bool) -> None:
        self.qualname = qualname
        self.params = set(params)
        self.nested = nested
        self.loop_targets: List[Set[str]] = []
        self.assignments: Dict[str, List[ast.expr]] = {}
        self.calls: Set[str] = set()
        self.loads: Set[str] = set()
        self.stores: Set[str] = set()

    @property
    def active_loop_names(self) -> Set[str]:
        names: Set[str] = set()
        for frame in self.loop_targets:
            names |= frame
        return names


def _target_names(target: ast.AST) -> Set[str]:
    return {leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name)}


def _free_names(expr: ast.AST) -> Set[str]:
    """Root names an expression reads (attribute chains count their root)."""
    names: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


class _FactsExtractor(ast.NodeVisitor):
    """Single AST pass building a :class:`ModuleFacts`."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.facts = ModuleFacts(relpath=relpath, module=module_name_for(relpath))
        self._is_init = relpath.endswith("__init__.py")
        self._scopes: List[_ScopeFrame] = [_ScopeFrame(_MODULE_SCOPE, (), nested=False)]
        self._class_stack: List[str] = []
        for _, local, origin in import_bindings(tree, self.facts.module, self._is_init):
            self.facts.import_bindings[local] = origin
        self._prescan(tree)

    # ------------------------------------------------------------------ #
    # Pre-scan: top-level bindings, constants, global mutations           #
    # ------------------------------------------------------------------ #

    def _prescan(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                self._record_top_assign(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._record_top_assign([node.target], node.value)
        mutated: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                mutated.update(node.names)
        self.facts.mutated_globals = sorted(mutated)

    def _record_top_assign(self, targets: Sequence[ast.AST], value: ast.expr) -> None:
        names = sorted(set().union(*(_target_names(target) for target in targets)))
        if not names:
            return
        if isinstance(value, ast.Constant):
            self.facts.constants.extend(names)
        factory = self._unpicklable_factory(value)
        if factory is not None:
            for name in names:
                self.facts.unpicklable_globals[name] = factory

    @staticmethod
    def _unpicklable_factory(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.GeneratorExp):
            return "generator"
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] in UNPICKLABLE_FACTORIES:
                return name
        return None

    # ------------------------------------------------------------------ #
    # Scope bookkeeping                                                   #
    # ------------------------------------------------------------------ #

    def _enter_function(self, node) -> None:
        in_class = bool(self._class_stack)
        parent = self._scopes[-1].qualname
        if parent == _MODULE_SCOPE:
            prefix = ".".join(self._class_stack)
        else:
            prefix = parent
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        params = [arg.arg for arg in node.args.args + node.args.kwonlyargs + node.args.posonlyargs]
        if node.args.vararg:
            params.append(node.args.vararg.arg)
        if node.args.kwarg:
            params.append(node.args.kwarg.arg)
        if in_class and params and params[0] in ("self", "cls"):
            params = params[1:]
        nested = self._scopes[-1].qualname != _MODULE_SCOPE
        frame = _ScopeFrame(qualname, params, nested)
        self._prescan_function(frame, node)
        self._scopes.append(frame)

    @staticmethod
    def _prescan_function(frame: _ScopeFrame, node) -> None:
        """Collect the flow-insensitive local assignment map for ``node``."""
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    for name in _target_names(target):
                        frame.assignments.setdefault(name, []).append(child.value)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                for name in _target_names(child.target):
                    frame.assignments.setdefault(name, []).append(child.value)

    def _leave_function(self) -> None:
        frame = self._scopes.pop()
        local = frame.params | set(frame.assignments) | frame.stores
        self.facts.functions[frame.qualname] = FunctionFacts(
            qualname=frame.qualname,
            lineno=getattr(frame, "lineno", 1),
            params=sorted(frame.params),
            is_nested=frame.nested,
            calls=sorted(frame.calls),
            global_reads=sorted((frame.loads - local)),
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self._scopes[-1].lineno = node.lineno
        for child in node.body:
            self.visit(child)
        self._leave_function()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambdas form no named scope the project tier can resolve into.
        return

    def _visit_loop(self, node, targets: Set[str]) -> None:
        frame = self._scopes[-1]
        frame.loop_targets.append(targets)
        self.generic_visit(node)
        frame.loop_targets.pop()

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self._visit_loop(node, _target_names(node.target))

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node, set())

    def _visit_comprehension(self, node) -> None:
        frame = self._scopes[-1]
        targets: Set[str] = set()
        for generator in node.generators:
            self._check_iteration(generator.iter)
            targets |= _target_names(generator.target)
        frame.loop_targets.append(targets)
        self.generic_visit(node)
        frame.loop_targets.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Name(self, node: ast.Name) -> None:
        frame = self._scopes[-1]
        if isinstance(node.ctx, ast.Load):
            frame.loads.add(node.id)
        else:
            frame.stores.add(node.id)

    # ------------------------------------------------------------------ #
    # Fact-producing call sites                                           #
    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        frame = self._scopes[-1]
        name = dotted_name(node.func)
        if name is not None:
            frame.calls.add(name)
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in STREAM_METHODS and node.args:
                self._record_stream_call(node)
            if node.func.attr in SPAWN_SUBMIT_METHODS and node.args:
                self._record_handoff(node)
            if node.func.attr == "merge_snapshot" and node.args:
                self._record_merge_feed(node)
        elif isinstance(node.func, ast.Name) and node.func.id == "merge_snapshot" and node.args:
            self._record_merge_feed(node)
        self.generic_visit(node)

    def _record_stream_call(self, node: ast.Call) -> None:
        frame = self._scopes[-1]
        name_expr = node.args[0]
        kind, literal = self._classify(name_expr, frame, set())
        receiver_kind, _ = self._classify(node.func.value, frame, set())  # type: ignore[union-attr]
        self.facts.stream_calls.append(
            StreamCall(
                method=node.func.attr,  # type: ignore[union-attr]
                function=frame.qualname,
                lineno=node.lineno,
                col=node.col_offset,
                name_kind=kind,
                literal=literal,
                in_loop=bool(frame.loop_targets),
                receiver_kind=receiver_kind,
            )
        )

    def _record_handoff(self, node: ast.Call) -> None:
        frame = self._scopes[-1]
        attr = node.func.attr  # type: ignore[union-attr]
        receiver = node.func.value  # type: ignore[union-attr]
        api = self._spawn_api(receiver, frame)
        if api is None and attr == "run":
            # `.run` is only a handoff on a known spawn API receiver.
            return
        worker = node.args[0]
        callee = LAMBDA_CALLEE if isinstance(worker, ast.Lambda) else dotted_name(worker)
        if callee is None:
            return
        self.facts.handoffs.append(
            Handoff(
                api=f"{api}.{attr}" if api else f".{attr}",
                callee=callee,
                function=frame.qualname,
                lineno=node.lineno,
                col=node.col_offset,
            )
        )

    def _spawn_api(self, receiver: ast.expr, frame: _ScopeFrame) -> Optional[str]:
        """The spawn API class a method receiver resolves to, if any."""
        candidates: List[ast.expr] = [receiver]
        if isinstance(receiver, ast.Name):
            candidates.extend(frame.assignments.get(receiver.id, []))
        for expr in candidates:
            if isinstance(expr, ast.Call):
                name = dotted_name(expr.func)
                if name is not None and name.split(".")[-1] in SPAWN_API_CLASSES:
                    return name.split(".")[-1]
        return None

    def _record_merge_feed(self, node: ast.Call) -> None:
        frame = self._scopes[-1]
        argument = node.args[0]
        callee: Optional[str] = None
        if isinstance(argument, ast.Call):
            callee = dotted_name(argument.func)
        elif isinstance(argument, ast.Name):
            for value in frame.assignments.get(argument.id, []):
                if isinstance(value, ast.Call):
                    callee = dotted_name(value.func)
                    break
        if callee is None:
            return
        self.facts.merge_feeds.append(
            MergeFeed(
                callee=callee,
                function=frame.qualname,
                lineno=node.lineno,
                col=node.col_offset,
            )
        )

    # ------------------------------------------------------------------ #
    # Unordered iteration (for DET003)                                    #
    # ------------------------------------------------------------------ #

    def _check_iteration(self, iter_expr: ast.expr) -> None:
        frame = self._scopes[-1]
        verdict = self._iteration_kind(iter_expr, frame, set())
        if verdict is None:
            return
        kind, detail = verdict
        self.facts.unordered_iters.append(
            UnorderedIteration(
                kind=kind,
                detail=detail,
                function=frame.qualname,
                lineno=iter_expr.lineno,
                col=iter_expr.col_offset,
            )
        )

    def _iteration_kind(
        self, expr: ast.expr, frame: _ScopeFrame, seen: Set[str]
    ) -> Optional[Tuple[str, str]]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return ("set", "a set literal" if isinstance(expr, ast.Set) else "a set comprehension")
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name in ("set", "frozenset"):
                return ("set", f"`{name}(...)`")
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                "keys",
                "values",
                "items",
            ):
                return ("dict-view", f"`.{expr.func.attr}()`")
        if isinstance(expr, ast.Name) and expr.id not in seen:
            seen.add(expr.id)
            for value in frame.assignments.get(expr.id, []):
                verdict = self._iteration_kind(value, frame, seen)
                if verdict is not None:
                    return (verdict[0], f"`{expr.id}` ({verdict[1]})")
        return None

    # ------------------------------------------------------------------ #
    # Stream-name lineage classification                                  #
    # ------------------------------------------------------------------ #

    def _classify(
        self, expr: ast.expr, frame: _ScopeFrame, seen: Set[str]
    ) -> Tuple[str, Optional[str]]:
        if isinstance(expr, ast.Constant):
            return ("literal", expr.value if isinstance(expr.value, str) else None)
        if isinstance(expr, ast.Call):
            # A stream/spawn call inherits its *name argument's* lineage —
            # `factory = root.spawn(f"rep-{i}")` is loop-fresh.  Any other
            # call result has no statically known provenance.
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in STREAM_METHODS
                and expr.args
            ):
                return (self._classify(expr.args[0], frame, seen)[0], None)
            return ("dynamic", None)
        if isinstance(expr, ast.JoinedStr):
            kinds = set()
            for value in expr.values:
                if isinstance(value, ast.Constant):
                    continue
                inner = value.value if isinstance(value, ast.FormattedValue) else value
                kinds.add(self._classify(inner, frame, seen)[0])
            if not kinds:
                literal = "".join(
                    value.value for value in expr.values if isinstance(value, ast.Constant)
                )
                return ("literal", literal)
            return (self._weakest(kinds), None)
        free = _free_names(expr)
        if not free:
            return ("literal", None)
        kinds = {self._classify_name(name, frame, seen) for name in free}
        return (self._weakest(kinds), None)

    def _classify_name(self, name: str, frame: _ScopeFrame, seen: Set[str]) -> str:
        if name in frame.active_loop_names:
            return "loop"
        if name in frame.params:
            return "param"
        if name in seen:
            return "dynamic"
        if name in frame.assignments:
            seen.add(name)
            kinds = {
                self._classify(value, frame, seen)[0]
                for value in frame.assignments[name]
            }
            return self._weakest(kinds) if kinds else "dynamic"
        if name in self.facts.constants:
            return "constant"
        binding = self.facts.import_bindings.get(name)
        if binding is not None:
            # Resolution against the exporting module happens project-side;
            # mark as constant-candidate so single-module runs stay quiet.
            return "constant"
        return "dynamic"

    @staticmethod
    def _weakest(kinds: Set[str]) -> str:
        for kind in ("dynamic", "loop", "param", "constant", "literal"):
            if kind in kinds:
                return kind
        return "dynamic"


def extract_facts(relpath: str, tree: ast.Module) -> ModuleFacts:
    """Build the :class:`ModuleFacts` summary for one parsed module."""
    extractor = _FactsExtractor(relpath, tree)
    extractor.visit(tree)
    # Module-level loads count as a "<module>" pseudo-function so the
    # project tier can resolve calls made at import time.
    frame = extractor._scopes[0]
    extractor.facts.functions[_MODULE_SCOPE] = FunctionFacts(
        qualname=_MODULE_SCOPE,
        lineno=1,
        params=[],
        is_nested=False,
        calls=sorted(frame.calls),
        global_reads=[],
    )
    facts = extractor.facts
    facts.stream_calls.sort(key=lambda c: (c.lineno, c.col))
    facts.handoffs.sort(key=lambda h: (h.lineno, h.col))
    facts.unordered_iters.sort(key=lambda i: (i.lineno, i.col))
    facts.merge_feeds.sort(key=lambda m: (m.lineno, m.col))
    return facts
