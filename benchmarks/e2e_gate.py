"""Base-vs-change performance gate over the e2ebench ``fig6c-sweep`` workload.

    python3 benchmarks/e2e_gate.py BASE_TREE CHANGE_TREE

Both arguments are checkouts of this repository (CI uses ``git worktree``
for the merge base).  The gate runs ``e2ebench/run.py --workload
fig6c-sweep --seed 2012 --trace 0`` from the root of each checkout, in
three pairs whose order alternates (base then change, change then base,
base then change) so a host that drifts in speed hits both sides alike.
It reads ``run_seconds`` and every ``end_to_end`` metric's ``better`` and
``bound`` from the base checkout's ``BENCHMARK.json``, so a change cannot
loosen its own bounds, and exits 1 when

* a change median is worse than the base median by more than that
  metric's bound (exactly at the bound passes);
* any run reports ``correct: false`` or prints no result line;
* the change's failed share of operations is higher than the base's.

Only fig6c-sweep is gated here: e2ebench/README.md reports that the
``service-mix`` workload's normalized wall spreads about 10% from run to
run on a 20% bound, so three runs of it cannot tell a regression from a
slow host phase.

The gate imports nothing from ``repro``: the program under test is only
ever run as a subprocess inside its own checkout, so a program change
cannot move this yardstick.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

WORKLOAD = "fig6c-sweep"
SEED = 2012
PAIRS = 3
#: A run is a few tens of seconds; one that takes this long is hung.
RUN_TIMEOUT_S = 1800


def run_once(tree: Path, seconds: float) -> Dict:
    """One untraced e2ebench run in ``tree``; its JSON result line.

    A run that exits without a result line counts as an incorrect run
    with no metrics.
    """
    command = [
        sys.executable, "e2ebench/run.py", "--workload", WORKLOAD,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def worse_by(better: str, base: float, change: float) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = change - base if better == "lower" else base - change
    return delta / base


def _median(runs: Sequence[Dict], name: str) -> Optional[float]:
    values = [(run.get("metrics") or {}).get(name, {}).get("value") for run in runs]
    if not values or any(value is None for value in values):
        return None
    return statistics.median(values)


def _failed_share(runs: Sequence[Dict]) -> float:
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / max(1, attempted)


def verdict(
    metrics: Sequence[Dict], base: Sequence[Dict], change: Sequence[Dict]
) -> List[str]:
    """Every reason the change fails the gate; empty when it passes.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries; ``base``
    and ``change`` are the result lines of each side's runs.  A flagged
    metric's line starts with ``REGRESSION <name>``.
    """
    problems = []
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        before, after = _median(base, name), _median(change, name)
        if before is None or after is None:
            problems.append(f"MISSING {name}: a run reported no value")
            continue
        worse = worse_by(better, before, after)
        if worse > bound:
            problems.append(
                f"REGRESSION {name}: change median {after:.6g} is {worse:.1%} "
                f"worse than base median {before:.6g} ({better} is better, "
                f"bound {bound:.0%})"
            )
    for side, runs in (("base", base), ("change", change)):
        wrong = sum(not run.get("correct") for run in runs)
        if wrong:
            problems.append(f"INCORRECT: {wrong} {side} run(s) reported correct: false")
    base_share, change_share = _failed_share(base), _failed_share(change)
    if change_share > base_share:
        problems.append(f"FAILED SHARE: change {change_share:.4f} > base {base_share:.4f}")
    return problems


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: e2e_gate.py BASE_TREE CHANGE_TREE\n")
        return 2
    base_tree, change_tree = (Path(arg).resolve() for arg in argv)
    spec = json.loads((base_tree / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    for pair in range(PAIRS):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            tree = base_tree if side == "base" else change_tree
            result = run_once(tree, spec["run_seconds"])
            runs[side].append(result)
            values = " ".join(
                f"{name}={entry.get('value')}"
                for name, entry in (result.get("metrics") or {}).items()
            )
            correct = result.get("correct")
            print(f"pair {pair} {side:<6} correct={correct} {values}", flush=True)
    print(f"{'metric':<12} {'base median':>14} {'change median':>14} {'worse by':>9}")
    for metric in metrics:
        name = metric["name"]
        before, after = _median(runs["base"], name), _median(runs["change"], name)
        if before is not None and after is not None:
            worse = worse_by(metric["better"], before, after)
            print(f"{name:<12} {before:>14.6g} {after:>14.6g} {worse:>+9.1%}")
    problems = verdict(metrics, runs["base"], runs["change"])
    for problem in problems:
        print(problem)
    print(f"E2E GATE: {'FAIL' if problems else 'PASS'} ({WORKLOAD}, {PAIRS} pairs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
