"""Tests for the base-vs-change e2ebench gate's verdict (benchmarks/e2e_gate.py)."""

from __future__ import annotations

import importlib.util
import os
import signal
import sys
import time
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e_gate.py"
_spec = importlib.util.spec_from_file_location("e2e_gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def run(wall=1.0, ops=1.0, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
        },
    }


#: A BENCHMARK.json for fake checkouts: two workloads, one gated metric.
SPEC = (
    '{"run_seconds": 0, '
    '"workloads": [{"name": "fig6c-sweep"}, {"name": "service-mix"}], '
    '"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}'
)


def flagged(problems):
    regressions = [p for p in problems if p.startswith("REGRESSION")]
    return sorted(p.split()[1].rstrip(":") for p in regressions)


class TestVerdict:
    def test_identical_runs_pass(self):
        runs = [run(), run(), run()]
        assert gate.verdict(METRICS, runs, runs) == []

    def test_the_gate_imports_nothing_from_the_program(self):
        source = GATE_PATH.read_text()
        assert "import repro" not in source and "from repro" not in source

    @pytest.mark.parametrize(
        "change, expected",
        [
            # lower is better: a larger wall is worse.
            (run(wall=1.3), ["wall_s"]),
            (run(wall=0.5), []),
            # higher is better: fewer ops per second is worse.
            (run(ops=0.7), ["ops_per_s"]),
            (run(ops=2.0), []),
        ],
    )
    def test_each_direction(self, change, expected):
        assert flagged(gate.verdict(METRICS, [run()] * 3, [change] * 3)) == expected

    def test_a_median_exactly_at_the_bound_passes(self):
        at_bound = run(wall=1.25, ops=0.75)
        assert gate.verdict(METRICS, [run()] * 3, [at_bound] * 3) == []
        past = run(wall=1.2500001, ops=0.7499999)
        assert flagged(gate.verdict(METRICS, [run()] * 3, [past] * 3)) == [
            "ops_per_s",
            "wall_s",
        ]

    def test_the_median_not_the_worst_run_decides(self):
        change = [run(wall=1.0), run(wall=9.0), run(wall=1.1)]
        assert gate.verdict(METRICS, [run()] * 3, change) == []

    def test_an_incorrect_run_fails_on_either_side(self):
        wrong = [run(), run(correct=False), run()]
        for base, change in (([run()] * 3, wrong), (wrong, [run()] * 3)):
            problems = gate.verdict(METRICS, base, change)
            assert [p for p in problems if p.startswith("INCORRECT")]

    def test_a_higher_failed_share_fails(self):
        base = [run(failed=1), run(), run()]
        problems = gate.verdict(METRICS, base, [run(failed=1), run(failed=1), run()])
        assert [p for p in problems if p.startswith("FAILED SHARE")]
        # The same share, or a lower one, passes.
        assert gate.verdict(METRICS, base, base) == []
        assert gate.verdict(METRICS, base, [run()] * 3) == []

    def test_a_run_without_a_result_line_fails(self):
        silent = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        problems = gate.verdict(METRICS, [run()] * 3, [run(), silent, run()])
        assert any(p.startswith("MISSING wall_s") for p in problems)
        assert any(p.startswith("INCORRECT") for p in problems)


def test_worse_by_is_signed_by_direction():
    assert gate.worse_by("lower", 2.0, 3.0) == pytest.approx(0.5)
    assert gate.worse_by("higher", 2.0, 3.0) == pytest.approx(-0.5)


class TestPairedEvidence:
    WALL = METRICS[0]

    def test_quartiles_of_ten(self):
        assert gate.quartiles(list(range(1, 11))) == pytest.approx([3.25, 5.5, 7.75])
        assert gate.quartiles([4.0]) == [4.0, 4.0, 4.0]

    def test_a_clear_gain_is_claimable(self):
        base = [run(wall=10.0 + 0.1 * i) for i in range(10)]
        change = [run(wall=8.0 + 0.1 * i) for i in range(10)]
        evidence = gate.pair_evidence(self.WALL, base, change)
        assert evidence["wins"] == 10 and evidence["pairs"] == 10
        assert evidence["base"][1] == pytest.approx(10.45)
        assert evidence["change"][1] == pytest.approx(8.45)
        assert evidence["claimable"]

    def test_eight_wins_in_ten_is_not_a_claim(self):
        base = [run(wall=10.0)] * 10
        change = [run(wall=8.0)] * 8 + [run(wall=12.0)] * 2
        evidence = gate.pair_evidence(self.WALL, base, change)
        assert evidence["wins"] == 8
        assert not evidence["claimable"]

    def test_ties_count_for_neither_side(self):
        evidence = gate.pair_evidence(self.WALL, [run()] * 10, [run()] * 10)
        assert evidence["wins"] == 0
        assert not evidence["claimable"]

    def test_a_gap_inside_the_base_spread_is_not_a_claim(self):
        # The change wins every pair, but by less than the base's own
        # q1-q3 distance.
        base = [run(wall=10.0 + i) for i in range(10)]
        change = [run(wall=9.5 + i) for i in range(10)]
        evidence = gate.pair_evidence(self.WALL, base, change)
        assert evidence["wins"] == 10
        assert not evidence["claimable"]

    def test_higher_is_better_metrics_win_upward(self):
        ops = METRICS[1]
        evidence = gate.pair_evidence(ops, [run(ops=1.0)] * 10, [run(ops=2.0)] * 10)
        assert evidence["wins"] == 10 and evidence["claimable"]

    def test_a_missing_value_gives_no_evidence(self):
        silent = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        assert gate.pair_evidence(self.WALL, [run()] * 2, [run(), silent]) is None


def test_main_runs_the_requested_pairs_alternating(tmp_path, monkeypatch, capsys):
    base_tree, change_tree = tmp_path / "base", tmp_path / "change"
    for tree in (base_tree, change_tree):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(SPEC)
    order = []

    def fake_run(tree, seconds, workload, seed):
        assert (workload, seed) == ("fig6c-sweep", 2012)
        order.append(tree.name)
        return run(wall=1.0 if tree.name == "base" else 0.5)

    def fake_compile(tree):
        order.append(f"compile {tree.name}")
        return True

    monkeypatch.setattr(gate, "run_once", fake_run)
    monkeypatch.setattr(gate, "compile_tree", fake_compile)
    assert gate.main([str(base_tree), str(change_tree), "--pairs", "4"]) == 0
    # Both trees are byte-compiled before the first run.
    assert order[:2] == ["compile base", "compile change"]
    assert order[2:] == ["base", "change", "change", "base"] * 2
    out = capsys.readouterr().out
    assert "change better in 4 of 4 pairs; claim: yes" in out
    assert "E2E GATE: PASS (fig6c-sweep, 4 pairs)" in out
    order.clear()
    assert gate.main([str(base_tree), str(change_tree)]) == 0
    assert len(order) == 2 + 2 * gate.PAIRS == 8


def test_a_tree_that_does_not_compile_stops_the_gate(tmp_path, monkeypatch, capsys):
    base_tree, change_tree = tmp_path / "base", tmp_path / "change"
    for tree in (base_tree, change_tree):
        (tree / "src").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(SPEC)
    (change_tree / "src" / "broken.py").write_text("def f(:\n")
    assert gate.compile_tree(base_tree)
    assert not gate.compile_tree(change_tree)

    def never(tree, seconds, workload, seed):
        raise AssertionError("a run started although a tree did not compile")

    monkeypatch.setattr(gate, "run_once", never)
    assert gate.main([str(base_tree), str(change_tree)]) == 2
    assert "cannot byte-compile" in capsys.readouterr().out


def test_workload_and_seed_reach_every_run(tmp_path, monkeypatch, capsys):
    base_tree, change_tree = tmp_path / "base", tmp_path / "change"
    for tree in (base_tree, change_tree):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(SPEC)
    calls = []

    def fake_run(tree, seconds, workload, seed):
        calls.append((tree.name, workload, seed))
        return run()

    monkeypatch.setattr(gate, "run_once", fake_run)
    monkeypatch.setattr(gate, "compile_tree", lambda tree: True)
    argv = [str(base_tree), str(change_tree), "--pairs", "2"]
    assert gate.main(argv + ["--workload", "service-mix", "--seed", "7"]) == 0
    assert calls == [
        ("base", "service-mix", 7),
        ("change", "service-mix", 7),
        ("change", "service-mix", 7),
        ("base", "service-mix", 7),
    ]
    out = capsys.readouterr().out
    assert "workload service-mix, seed 7" in out
    assert "E2E GATE: PASS (service-mix, 2 pairs)" in out
    # Only a workload the base checkout's BENCHMARK.json lists is accepted.
    calls.clear()
    with pytest.raises(SystemExit) as exit_info:
        gate.main(argv + ["--workload", "paper-rep"])
    assert exit_info.value.code == 2 and calls == []


#: A fake checkout's e2ebench/run.py that hangs: it starts one sleeping
#: grandchild (as a hung run leaves its ``repro serve`` daemon), records
#: its pid, then sleeps past the gate's timeout.
HUNG_RUN = """\
import subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open("grandchild.pid", "w") as handle:
    handle.write(str(grandchild.pid))
time.sleep(60)
"""


def running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_hung_run_is_killed_with_its_process_group(tmp_path, monkeypatch):
    (tmp_path / "e2ebench").mkdir()
    (tmp_path / "e2ebench" / "run.py").write_text(HUNG_RUN)
    monkeypatch.setattr(gate, "RUN_TIMEOUT_S", 1)
    pid_file = tmp_path / "grandchild.pid"
    try:
        record = gate.run_once(tmp_path, 0, "fig6c-sweep", 2012)
        assert record == {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(pid)
    finally:
        if pid_file.exists() and running(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
