"""Robustness rules: loud failures and testable waiting.

The crash-safe harness (:mod:`repro.harness`) only works because failures
are *loud*: a worker exception becomes a retry, a quarantine record, and a
journal entry.  A ``try/except Exception: pass`` anywhere upstream
converts those failures into silent bad data — the sweep "succeeds" with
measurements missing or wrong, and nothing in the artifact says so.
ROB001 bans the pattern statically.

Retry and backoff loops have the dual problem: a ``time.sleep`` call
hard-wires the wall clock into control flow, so the loop cannot be driven
by an injected clock in tests and every retry test costs real seconds.
The supervisor's backoff is deterministic precisely because its ``sleep``
is a constructor argument; ROB002 bans wall-clock waiting everywhere
outside the :mod:`repro.obs.clock` facade.

Durable writes have the same shape of problem: a hand-rolled
``tempfile`` + ``os.replace`` dance usually forgets the fsync (of the
file, of the parent directory, or both), leaving exactly the torn
artifacts the chaos gate's ``cache-never-serves-stale`` contract exists
to catch.  ROB003 bans the raw ingredients everywhere outside
:mod:`repro.storage`, the one audited implementation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import BannedNameRule, ModuleContext, Rule, register_rule

__all__ = [
    "SilentBroadExceptRule",
    "WallClockBackoffRule",
    "AtomicWriteBypassRule",
]

_BROAD_NAMES = {"Exception", "BaseException"}


def _broad_catch(handler: ast.ExceptHandler) -> bool:
    """Whether the handler catches everything (bare, Exception-wide, ...)."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
            return True
        # builtins.Exception spelled as an attribute access.
        if isinstance(node, ast.Attribute) and node.attr in _BROAD_NAMES:
            return True
    return False


def _is_silent(statement: ast.stmt) -> bool:
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    # A docstring-style bare constant (including `...`) does nothing.
    return isinstance(statement, ast.Expr) and isinstance(
        statement.value, ast.Constant
    )


@register_rule
class SilentBroadExceptRule(Rule):
    """ROB001: no silently-swallowed broad exception handlers.

    Flags ``except:``, ``except Exception:`` and ``except BaseException:``
    handlers (including tuples containing them) whose body does nothing —
    only ``pass``, ``...``, or ``continue``.  Such a handler eats
    ``SimulationError`` invariant violations and worker failures without a
    trace; the harness's whole failure taxonomy depends on exceptions
    propagating to a supervisor that records them.  Narrow handlers
    (``except OSError: pass`` around best-effort cleanup) are fine; a
    deliberate broad swallow needs a ``# reprolint: disable=ROB001``
    justification on the swallowing statement.
    """

    id = "ROB001"
    name = "silent-broad-except"
    description = (
        "broad exception handler with a do-nothing body; handle, log, or "
        "re-raise — silent swallows turn failures into bad data"
    )
    default_severity = Severity.ERROR
    default_options: dict = {}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _broad_catch(node):
                continue
            if not all(_is_silent(statement) for statement in node.body):
                continue
            caught = (
                "except:"
                if node.type is None
                else f"except {ast.unparse(node.type)}:"
            )
            # Anchor on the swallowing statement so a justification
            # comment sits next to the `pass` it excuses.
            yield module.diagnostic(
                self,
                node.body[0],
                f"`{caught}` with a do-nothing body silently swallows "
                "failures; narrow the type, record the error, or re-raise",
            )


@register_rule
class WallClockBackoffRule(BannedNameRule):
    """ROB002: no wall-clock sleeps outside the facade.

    Flags any ``time.sleep`` call — including through an alias bound by
    ``from time import sleep`` or ``import time as t``.  A hand-rolled
    retry/backoff wait cannot be driven by an injected clock, so its
    behaviour is untestable without burning real seconds, and it stalls
    the single-threaded service loop.  Use :func:`repro.obs.clock.sleep_s`
    (injectable, like the supervisor's ``sleep=`` argument) instead; a
    deadline loop's clock read is OBS001's.  The facade itself
    (``repro/obs/*`` by default) is exempt.
    """

    id = "ROB002"
    name = "wall-clock-backoff"
    description = (
        "time.sleep is banned outside repro/obs; inject "
        "repro.obs.clock.sleep_s"
    )
    default_severity = Severity.ERROR
    default_options = {"allow": ["repro/obs/*"]}
    banned_names = ("time.sleep",)
    reason = (
        "blocks on the wall clock; retry/backoff must go through an "
        "injected sleep (repro.obs.clock.sleep_s)"
    )


@register_rule
class AtomicWriteBypassRule(BannedNameRule):
    """ROB003: durable writes go through ``repro.storage``, nowhere else.

    Flags calls to ``os.replace``/``os.rename`` and to
    ``tempfile.NamedTemporaryFile``/``tempfile.mkstemp`` (including
    aliases bound by ``from os import replace`` etc.) outside the
    allow-listed storage module.  A temp-file-plus-rename written by hand
    almost always skips one of the three syncs atomicity needs — file
    fsync before the rename, and parent-directory fsync after — so a
    crash can leave an empty or torn artifact under the final name,
    which downstream loaders then trust.
    :func:`repro.storage.atomic_write_text` is the one audited
    implementation; build the payload string and hand it over.  Scratch
    *directories* (``tempfile.mkdtemp``/``TemporaryDirectory``) are not
    write-rename patterns and stay legal.
    """

    id = "ROB003"
    name = "atomic-write-bypass"
    description = (
        "os.replace/os.rename and tempfile file factories are banned "
        "outside repro/storage.py; use repro.storage.atomic_write_text"
    )
    default_severity = Severity.ERROR
    default_options = {"allow": ["repro/storage.py"]}
    banned_names = (
        "os.replace",
        "os.rename",
        "tempfile.NamedTemporaryFile",
        "tempfile.mkstemp",
    )
    reason = (
        "hand-rolls an atomic write; a missed fsync here becomes a torn "
        "artifact — use repro.storage.atomic_write_text"
    )
