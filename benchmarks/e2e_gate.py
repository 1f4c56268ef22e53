"""Base-vs-change performance gate over one e2ebench workload.

    python3 benchmarks/e2e_gate.py BASE_TREE CHANGE_TREE [--pairs N]
        [--workload NAME] [--seed S]

Both arguments are checkouts of this repository (CI uses ``git worktree``
for the merge base).  The gate runs ``e2ebench/run.py --workload NAME
--seed S --trace 0`` from the root of each checkout, in ``N`` pairs
(default 3) whose order alternates (base then change, change then base,
...) so a host that drifts in speed hits both sides alike.  ``NAME`` is a
workload listed in the base checkout's ``BENCHMARK.json`` (default
``fig6c-sweep``) and ``S`` the workload seed (default 2012); other values
give evidence on a second workload or a held-out seed.
Before the first pair it byte-compiles ``src/`` in both checkouts
(``python -m compileall -q src``), so neither side's ``setup_s`` pays for
stale ``.pyc`` files; it exits 2 when either compile fails.
It reads ``run_seconds`` and every ``end_to_end`` metric's ``better`` and
``bound`` from the base checkout's ``BENCHMARK.json``, so a change cannot
loosen its own bounds, and exits 1 when

* a change median is worse than the base median by more than that
  metric's bound (exactly at the bound passes);
* any run reports ``correct: false`` or prints no result line;
* the change's failed share of operations is higher than the base's.

For each metric it also prints each side's quartiles and in how many
pairs the change read strictly better.  A gain is claimable (``claim:
yes``) when the change is better in at least nine tenths of the pairs
and the medians differ by more than the base's own q1-q3 distance; claim
a gain from ten or more pairs, not from the default three.

CI gates fig6c-sweep only: e2ebench/README.md reports that the
``service-mix`` workload's normalized wall spreads about 10% from run to
run on a 20% bound, so three runs of it cannot tell a regression from a
slow host phase.  Run ``--workload service-mix --pairs 10`` for evidence
on it.

The gate imports nothing from ``repro``: the program under test is only
ever run as a subprocess inside its own checkout, so a program change
cannot move this yardstick.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOAD = "fig6c-sweep"
SEED = 2012
PAIRS = 3
#: A run is a few tens of seconds; one that takes this long is hung.
RUN_TIMEOUT_S = 1800


def _run(command: Sequence[str], tree: Path) -> Optional[Tuple[int, str, str]]:
    """``(returncode, stdout, stderr)`` of ``command`` run in ``tree``.

    The child starts in its own session.  One still running after
    ``RUN_TIMEOUT_S`` is hung: its whole process group (a ``repro serve``
    daemon it started included) is killed and the result is ``None``.
    """
    with subprocess.Popen(
        command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            sys.stderr.write(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(command)}\n")
            return None
    return child.returncode, stdout, stderr


def compile_tree(tree: Path) -> bool:
    """Byte-compile ``tree``'s ``src/``; whether every module compiled."""
    done = _run([sys.executable, "-m", "compileall", "-q", "src"], tree)
    if done is None:
        return False
    returncode, stdout, stderr = done
    if returncode != 0:
        sys.stderr.write(stdout[-2000:] + stderr[-2000:])
    return returncode == 0


def run_once(tree: Path, seconds: float, workload: str, seed: int) -> Dict:
    """One untraced e2ebench run of ``workload`` in ``tree``; its JSON result line.

    A run that exits without a result line, or is killed as hung, counts
    as an incorrect run with no metrics.
    """
    command = [
        sys.executable, "e2ebench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = _run(command, tree)
    if done is not None:
        _, stdout, stderr = done
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(stdout[-2000:] + stderr[-2000:])
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def worse_by(better: str, base: float, change: float) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = change - base if better == "lower" else base - change
    return delta / base


def _values(runs: Sequence[Dict], name: str) -> List[Optional[float]]:
    return [(run.get("metrics") or {}).get(name, {}).get("value") for run in runs]


def _median(runs: Sequence[Dict], name: str) -> Optional[float]:
    values = _values(runs, name)
    if not values or any(value is None for value in values):
        return None
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pair_evidence(
    metric: Dict, base: Sequence[Dict], change: Sequence[Dict]
) -> Optional[Dict]:
    """One metric's paired evidence; ``None`` when a run lacks the value.

    Run ``i`` of each side forms pair ``i``.  ``wins`` counts pairs where
    the change is strictly better (ties count for neither side);
    ``claimable`` is the gain rule of the module docstring.
    """
    name, better = metric["name"], metric["better"]
    before, after = _values(base, name), _values(change, name)
    if not before or not after or None in before or None in after:
        return None
    wins = sum(worse_by(better, b, c) < 0 for b, c in zip(before, after))
    base_q, change_q = quartiles(before), quartiles(after)
    pairs = min(len(before), len(after))
    claimable = (
        wins >= 0.9 * pairs
        and abs(change_q[1] - base_q[1]) > base_q[2] - base_q[0]
    )
    return {
        "base": base_q,
        "change": change_q,
        "wins": wins,
        "pairs": pairs,
        "claimable": claimable,
    }


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
    parser = argparse.ArgumentParser(prog="e2e_gate.py")
    parser.add_argument("base_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--workload", default=WORKLOAD)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_tree, change_tree = args.base_tree.resolve(), args.change_tree.resolve()
    spec = json.loads((base_tree / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [workload["name"] for workload in spec.get("workloads", ())]
    if args.workload not in workloads:
        parser.error(
            f"--workload must be one of {', '.join(workloads)} "
            f"(the base checkout's BENCHMARK.json), got {args.workload!r}"
        )
    for tree in (base_tree, change_tree):
        if not compile_tree(tree):
            print(f"E2E GATE: ERROR (cannot byte-compile {tree / 'src'})")
            return 2
    print(f"workload {args.workload}, seed {args.seed}", flush=True)
    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            tree = base_tree if side == "base" else change_tree
            result = run_once(tree, spec["run_seconds"], args.workload, args.seed)
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
    for metric in metrics:
        evidence = pair_evidence(metric, runs["base"], runs["change"])
        if evidence is not None:
            base_q = " / ".join(f"{value:.6g}" for value in evidence["base"])
            change_q = " / ".join(f"{value:.6g}" for value in evidence["change"])
            print(
                f"{metric['name']:<12} q1/median/q3 base {base_q}, change {change_q}; "
                f"change better in {evidence['wins']} of {evidence['pairs']} pairs; "
                f"claim: {'yes' if evidence['claimable'] else 'no'}"
            )
    problems = verdict(metrics, runs["base"], runs["change"])
    for problem in problems:
        print(problem)
    verdict_word = "FAIL" if problems else "PASS"
    print(f"E2E GATE: {verdict_word} ({args.workload}, {args.pairs} pairs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
