"""PERF002: interprocedural spawn-safety for pool worker callables.

PERF001 catches the syntactic failure (lambdas / nested defs handed to a
pool).  This rule catches the semantic ones that survive pickling: a
worker that runs correctly in the parent would read different state in a
``spawn`` child, because spawn re-imports every module from scratch.
For every callable handed to :class:`~repro.harness.WorkerSupervisor`
(and raw ``.submit``/``.map`` sites), the rule walks the resolvable call graph and flags:

* reads of a module global that is **mutated after import** (any function
  in its module rebinds it via ``global``) — the parent-side value never
  reaches the child, so parent and worker silently compute on different
  state, breaking the byte-identity contract between worker counts;
* references to module globals bound to **unpicklable factories** (locks,
  open files, sockets, threads, lambdas) — captured state that dies at
  the pickling boundary, usually only on platforms where spawn is the
  default start method;
* workers that resolve to **nested functions** in another module — the
  cross-file case PERF001's single-module view cannot see.

Escape hatch: ``allowed_globals = ["module:name", ...]`` registers
globals that are process-local *by design* (e.g. the ``repro.obs``
recorder facade, which every worker deliberately re-installs); list them
in ``[tool.reprolint.rules.PERF002]`` with a justification comment.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import register_rule

__all__ = ["SpawnSafetyRule"]


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
            for handoff in facts.handoffs:
                resolved = project.resolve_callable(module_name, handoff.callee)
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
