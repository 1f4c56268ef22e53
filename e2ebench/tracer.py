"""Outside-in tracing: spans recorded around calls into each ``repro`` layer.

Nothing under ``src/`` is changed.  :class:`Tracer` replaces a fixed list
of public functions and methods (``LAYER_TARGETS``) with wrappers that
record one span per call: name, start, end, parent span and op id.  Spans
stay in memory and are written once, when the run ends.  A layer's self
time is its spans' durations minus the part their child spans cover; the
self time of the benchmark's own ``bench.*`` root spans is time no layer
claims (``trace.unattributed_share``).

``SlottedEngine.run`` is always wrapped, also in untraced runs, but only
to keep each engine run's result counts for the output checks: an
untimed wrapper costs one extra call per engine run (two per
repetition), far below the timer's resolution at this scale.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: (module, attribute path, span name).  Module-level functions are
#: patched in the module that *calls* them, because callers bind the name
#: at import time.
LAYER_TARGETS = (
    ("repro.experiments.runner", "deploy_crn", "network.deploy"),
    ("repro.core.collector", "build_collection_tree", "graphs.tree"),
    ("repro.routing.coolest", "CoolestPolicy.__init__", "graphs.coolest_routes"),
    ("repro.spectrum.sensing", "CarrierSenseMap.__init__", "spectrum.sense_map"),
    ("repro.perf.executor", "run_comparison_repetition", "experiments.repetition"),
    ("repro.perf.executor", "execute_work_item", "harness.work_item"),
    (
        "repro.harness.checkpoint",
        "CheckpointWriter.append_measurement",
        "harness.journal_append",
    ),
    ("repro.service.jobs", "save_job_artifact", "storage.artifact_save"),
    ("repro.service.jobs", "merge_shards", "obs.trace_merge"),
    ("repro.service.jobs", "write_trace", "obs.trace_merge"),
    ("repro.service.daemon", "execute_job", "service.execute_job"),
    ("repro.service.daemon", "ExperimentService.submit", "service.admit"),
)

# Span fields, kept as small lists for cheap appends.
NAME, START, END, PARENT, OP = range(5)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder plus the patch set that feeds it.

    ``timed=False`` installs only the engine result probe.
    """

    def __init__(self, timed: bool = True) -> None:
        self.timed = timed
        self.spans: List[list] = []
        #: One record per ``SlottedEngine.run`` call.
        self.engine_runs: List[Dict] = []
        #: The op id new spans are tagged with (``None`` outside ops).
        self.op: Optional[int] = None
        self._local = threading.local()
        self._patches: list = []

    # ---- spans -------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[END] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # ---- patching ----------------------------------------------------- #

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        from repro.routing.coolest import CoolestPolicy
        from repro.sim.engine import SlottedEngine

        if self.timed:
            for module_name, path, name in LAYER_TARGETS:
                owner, attr = _resolve(module_name, path)
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        original_run = SlottedEngine.run
        tracer = self

        def probed_run(engine):
            policy = "coolest" if isinstance(engine.policy, CoolestPolicy) else "addc"
            start = time.perf_counter()
            if tracer.timed:
                with tracer.span(f"sim.{policy}.run"):
                    result = original_run(engine)
            else:
                result = original_run(engine)
            tracer.engine_runs.append(
                {
                    "policy": policy,
                    "seconds": time.perf_counter() - start,
                    "slots": int(result.slots_simulated),
                    "ff_slots": int(engine.fastforward_slots),
                    "delivered": int(result.delivered),
                    "packets": int(result.num_packets),
                    "attempts": int(result.total_transmissions),
                    "completed": bool(result.completed),
                    "op": tracer.op,
                    "end": time.perf_counter(),
                }
            )
            return result

        self._patch(SlottedEngine, "run", probed_run)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- export ------------------------------------------------------- #

    def graft(self, spans: List[list], engine_runs: List[Dict]) -> None:
        """Adopt another process's spans (the traced daemon's).

        A foreign root span becomes a child of the local ``bench.op`` span
        whose interval contains its start; both processes read the same
        system-wide monotonic clock.  Foreign roots come from the daemon's
        two threads and can overlap (its worker may start a job before the
        server thread has finished acknowledging it); each is clipped at
        the start of the next one under the same op, so overlapping time
        is counted once, on the critical path.
        """
        ops = [
            (record[START], record[END], index)
            for index, record in enumerate(self.spans)
            if record[NAME] == "bench.op"
        ]
        offset = len(self.spans)
        owners = []
        for record in spans:
            if record[PARENT] < 0:
                owner = next(
                    (i for s, e, i in ops if s <= record[START] <= e), -1
                )
                parent = owner
            else:
                owner = owners[record[PARENT]]
                parent = record[PARENT] + offset
            owners.append(owner)
            op = self.spans[owner][OP] if owner >= 0 else None
            self.spans.append([record[NAME], record[START], record[END], parent, op])
        previous: Dict[int, list] = {}
        for record in self.spans[offset:]:
            if record[PARENT] >= 0 and record[PARENT] < offset:
                earlier = previous.get(record[PARENT])
                if earlier is not None and earlier[END] > record[START]:
                    earlier[END] = record[START]
                previous[record[PARENT]] = record
        for run in engine_runs:
            run = dict(run)
            match = next((i for s, e, i in ops if s <= run["end"] <= e), -1)
            run["op"] = self.spans[match][OP] if match >= 0 else None
            self.engine_runs.append(run)

    def to_records(self) -> List[Dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op": s[OP]}
            for s in self.spans
        ]


# ---- analysis ----------------------------------------------------------- #


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    """``sim.addc.run`` -> ``sim``; the benchmark's roots are unattributed."""
    layer = name.split(".", 1)[0]
    return "unattributed" if layer == "bench" else layer


def root_accounting(spans: List[list]) -> float:
    """Largest gap, over root spans, between wall and summed self times.

    Returned as a share of that root's wall; self times of a well-nested
    tree sum exactly to its root's duration, so this guards against
    overlapping or unclosed spans.
    """
    own = self_times(spans)
    totals: Dict[int, float] = {}
    roots = {}
    for index, s in enumerate(spans):
        root = index
        while spans[root][PARENT] >= 0:
            root = spans[root][PARENT]
        totals[root] = totals.get(root, 0.0) + own[index]
        roots[root] = spans[root][END] - spans[root][START]
    worst = 0.0
    for root, wall in roots.items():
        if wall > 0:
            worst = max(worst, abs(totals[root] - wall) / wall)
    return worst
