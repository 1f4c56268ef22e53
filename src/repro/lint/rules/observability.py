"""Observability rules.

The instrumentation layer funnels every clock read through
:mod:`repro.obs.clock` so that (a) the zero-overhead contract is auditable
in one place and (b) DET001's determinism guarantees extend to reporting
code: a stray ``time.perf_counter()`` in an experiment driver bypasses the
null-recorder fast path and undermines the "instrumentation changes
nothing" invariant.

OBS002 guards the other end of the pipeline: metric and span *names*.
Everything downstream of the recorder — manifest diffs, the perf ratchet,
Prometheus export, ``grep``-ability of dashboards — assumes the set of
metric names is a closed, literal vocabulary.  A computed name
(``obs.counter_add(f"service.{name}")``) silently mints unbounded metric
families and breaks ratchet comparability, so names must be literal
dotted constants at the call site.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import (
    BannedNameRule,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = ["ClockFacadeRule", "LiteralMetricNameRule"]


@register_rule
class ClockFacadeRule(BannedNameRule):
    """OBS001: clock reads go through ``repro.obs.clock``, nowhere else.

    Applies to the whole ``repro`` tree except the allow-listed facade
    (``repro/obs/*`` by default), simulator hot paths included, so span
    timing and wall-time reporting have exactly one audited entry point —
    use :func:`repro.obs.clock.monotonic_s` / ``wall_clock_iso`` instead.
    """

    id = "OBS001"
    name = "clock-facade"
    description = (
        "direct time.time()/time.perf_counter() reads are banned outside "
        "repro/obs; use repro.obs.clock"
    )
    default_severity = Severity.ERROR
    default_options = {"allow": ["repro/obs/*"]}
    banned_names = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    )
    reason = "bypasses the clock facade; use repro.obs.clock.monotonic_s()"


#: Facade entry points whose first argument is a metric/span name.
_METRIC_CALLS = frozenset(
    {"counter_add", "gauge_set", "observe", "span", "span_add", "timed"}
)

#: The closed grammar of metric names: lowercase dotted constants
#: (``engine.slot``, ``service.cache_hits``, ``engine.phase.pu_redraw``).
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _is_obs_facade_call(name: str, from_obs_names: frozenset) -> bool:
    """Whether a dotted call name targets the ``repro.obs`` facade."""
    parts = name.split(".")
    if parts[-1] not in _METRIC_CALLS:
        return False
    if len(parts) == 1:
        return parts[0] in from_obs_names
    return parts[-2] == "obs"


@register_rule
class LiteralMetricNameRule(Rule):
    """OBS002: metric/span names are literal dotted constants.

    The diff ratchet, the Prometheus exporter, and ``trace/v2`` span
    identity all treat metric names as a fixed vocabulary; a computed
    name (f-string, concatenation, ``str.format``) mints unbounded
    families nobody can ratchet or grep.  Names looked up from a literal
    registry (``_COUNTER_METRICS[name]``) are allowed — the registry is
    the audited vocabulary.
    """

    id = "OBS002"
    name = "literal-metric-name"
    description = (
        "obs facade metric/span names must be literal dotted constants "
        "(no f-strings, concatenation, or str.format)"
    )
    default_severity = Severity.ERROR
    default_options = {"allow": []}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.in_paths(module.option(self, "allow")):
            return
        from_obs_names = frozenset(
            local
            for _, local, origin in module.imports
            if origin.rpartition(".")[0] in ("repro.obs", "repro.obs.recorder")
            and origin.rpartition(".")[2] in _METRIC_CALLS
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name = dotted_name(node.func)
            if name is None or not _is_obs_facade_call(name, from_obs_names):
                continue
            argument = node.args[0]
            if isinstance(argument, ast.Constant):
                if not (
                    isinstance(argument.value, str)
                    and _METRIC_NAME_RE.match(argument.value)
                ):
                    yield module.diagnostic(
                        self,
                        argument,
                        f"metric name {argument.value!r} passed to "
                        f"`{name}` is not a lowercase dotted constant "
                        "(like 'engine.slot')",
                    )
            elif isinstance(argument, ast.JoinedStr):
                yield module.diagnostic(
                    self,
                    argument,
                    f"f-string metric name passed to `{name}`; metric "
                    "names must be literal dotted constants (put computed "
                    "variants in a literal registry dict)",
                )
            elif isinstance(argument, ast.BinOp):
                yield module.diagnostic(
                    self,
                    argument,
                    f"computed metric name (string expression) passed to "
                    f"`{name}`; metric names must be literal dotted "
                    "constants",
                )
            elif (
                isinstance(argument, ast.Call)
                and isinstance(argument.func, ast.Attribute)
                and argument.func.attr == "format"
            ):
                yield module.diagnostic(
                    self,
                    argument,
                    f"str.format() metric name passed to `{name}`; metric "
                    "names must be literal dotted constants",
                )
