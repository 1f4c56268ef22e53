"""PERF002: interprocedural spawn-safety for pool worker callables.

The sweep supervisor starts workers with the ``spawn`` method only, so a
worker callable is pickled by qualified name and every module it touches
is re-imported from scratch in the child.  For every callable handed to
:class:`~repro.harness.WorkerSupervisor` (and raw ``.submit``/``.map``/
``.apply*``/``.starmap`` sites), the rule flags:

* **lambdas and nested functions** — neither pickles under spawn, so the
  pool dies at runtime, often only on platforms where spawn is the
  default.  Nested ``def``s are followed into other modules too.  Raw
  pool methods are only checked for this in modules that import
  ``concurrent.futures`` or ``multiprocessing``;

and walks the worker's resolvable call graph for the failures that
survive pickling:

* reads of a module global that is **mutated after import** (any function
  in its module rebinds it via ``global``) — the parent-side value never
  reaches the child, so parent and worker silently compute on different
  state, breaking the byte-identity contract between worker counts;
* references to module globals bound to **unpicklable factories** (locks,
  open files, sockets, threads, lambdas) — captured state that dies at
  the pickling boundary, usually only on platforms where spawn is the
  default start method.

Escape hatch: ``allowed_globals = ["module:name", ...]`` registers
globals that are process-local *by design* (e.g. the ``repro.obs``
recorder facade, which every worker deliberately re-installs); list them
in ``[tool.reprolint.rules.PERF002]`` with a justification comment.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.facts import LAMBDA_CALLEE, Handoff, ModuleFacts
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import register_rule

__all__ = ["SpawnSafetyRule"]

#: Top-level packages whose import marks raw ``.submit``/``.map`` sites as
#: process-pool handoffs.
_POOL_PACKAGES = ("concurrent", "multiprocessing")


def _enclosing_nested_def(facts: ModuleFacts, handoff: Handoff) -> Optional[str]:
    """Qualname of the nested ``def`` a bare-name worker refers to, if any."""
    if "." in handoff.callee:
        return None
    scope = handoff.function
    while scope:
        function = facts.functions.get(f"{scope}.{handoff.callee}")
        if function is not None and function.is_nested:
            return function.qualname
        scope = scope.rpartition(".")[0]
    return None


@register_rule
class SpawnSafetyRule(ProjectRule):
    """PERF002: worker call graphs must not depend on parent-only state."""

    id = "PERF002"
    name = "spawn-safety"
    description = (
        "worker callable (transitively) reads mutated-after-import or "
        "unpicklable module globals; spawn children see different state"
    )
    default_severity = Severity.ERROR
    default_options = {"allowed_globals": [], "allow": []}

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        allowed = set(project.option(self, "allowed_globals"))
        allow_paths = project.option(self, "allow")
        for module_name, facts in project.modules.items():
            if allow_paths and project.module_in_paths(module_name, allow_paths):
                continue
            pool_module = any(
                origin.split(".")[0] in _POOL_PACKAGES
                for origin in facts.import_bindings.values()
            )
            for handoff in facts.handoffs:
                # Supervisor handoffs always spawn; raw pool methods only
                # count as such where a process pool is imported.
                spawns = pool_module or not handoff.api.startswith(".")
                if handoff.callee == LAMBDA_CALLEE:
                    if spawns:
                        yield project.diagnostic(
                            self,
                            facts.relpath,
                            handoff.lineno,
                            handoff.col,
                            f"`{handoff.api}(lambda, ...)`: lambdas do not "
                            "pickle under spawn; define a top-level worker "
                            "function",
                        )
                    continue
                resolved = project.resolve_callable(module_name, handoff.callee)
                if resolved is None and spawns:
                    local = _enclosing_nested_def(facts, handoff)
                    resolved = None if local is None else (module_name, local)
                if resolved is None:
                    continue
                worker_module, worker_qualname = resolved
                worker = project.function(worker_module, worker_qualname)
                if worker is not None and worker.is_nested:
                    yield project.diagnostic(
                        self,
                        facts.relpath,
                        handoff.lineno,
                        handoff.col,
                        f"`{handoff.api}({handoff.callee}, ...)`: resolves to "
                        f"a nested function in {worker_module}; it does not "
                        "pickle under spawn — move it to module top level",
                    )
                    continue
                for finding in self._closure_findings(
                    project, worker_module, worker_qualname, allowed
                ):
                    kind, owner_module, owner_function, global_name, detail = finding
                    if kind == "mutated":
                        reason = (
                            f"reads module global `{global_name}` of "
                            f"{owner_module}, which is mutated after import "
                            "(via `global`); a spawn child re-imports and "
                            "sees the pristine value, not the parent's"
                        )
                    else:
                        reason = (
                            f"references module global `{global_name}` of "
                            f"{owner_module}, bound to unpicklable state "
                            f"({detail}); it cannot cross the spawn boundary"
                        )
                    yield project.diagnostic(
                        self,
                        facts.relpath,
                        handoff.lineno,
                        handoff.col,
                        f"`{handoff.api}({handoff.callee}, ...)`: worker call "
                        f"graph function `{owner_function}` {reason}",
                    )

    def _closure_findings(
        self,
        project: ProjectContext,
        worker_module: str,
        worker_qualname: str,
        allowed: Set[str],
    ) -> List[Tuple[str, str, str, str, str]]:
        """Deterministic, deduplicated unsafe-global findings for a worker."""
        findings: Set[Tuple[str, str, str, str, str]] = set()
        for function_module, function_qualname in project.call_closure(
            worker_module, worker_qualname
        ):
            function = project.function(function_module, function_qualname)
            if function is None:
                continue
            for read in function.global_reads:
                resolved = self._resolve_global(project, function_module, read)
                if resolved is None:
                    continue
                kind, owner_module, global_name, detail = resolved
                if f"{owner_module}:{global_name}" in allowed:
                    continue
                findings.add(
                    (kind, owner_module, function_qualname, global_name, detail)
                )
        return sorted(findings)

    @staticmethod
    def _resolve_global(
        project: ProjectContext, module: str, name: str
    ) -> Optional[Tuple[str, str, str, str]]:
        """Classify a global read as (kind, owner module, name, detail)."""
        facts = project.modules.get(module)
        if facts is None:
            return None
        if name in facts.mutated_globals:
            return ("mutated", module, name, "")
        if name in facts.unpicklable_globals:
            return ("unpicklable", module, name, facts.unpicklable_globals[name])
        binding = facts.import_bindings.get(name)
        if binding is None:
            return None
        parts = binding.split(".")
        for end in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:end])
            if prefix not in project.modules:
                continue
            target = project.modules[prefix]
            leaf = ".".join(parts[end:])
            if leaf in target.mutated_globals:
                return ("mutated", prefix, leaf, "")
            if leaf in target.unpicklable_globals:
                return ("unpicklable", prefix, leaf, target.unpicklable_globals[leaf])
            return None
        return None
