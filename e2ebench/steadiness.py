"""Repeat one workload over several seeds and summarize the spread.

    python3 e2ebench/steadiness.py --workload paper-rep --seeds 1-10 --seconds 25

Runs ``run.py`` once per seed (untraced), then prints, for every
end-to-end figure, the median and quartiles over the runs and the
quartile distance as a share of the median, normalized and raw side by
side.  This is how the steadiness table in README.md was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIGURES = ("setup_s", "slots_per_s", "peak_rss_mb", "wall_s", "ops_per_s")


def seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    rows = []
    for seed in seeds(args.seeds):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        report = json.loads(
            Path(f".e2ebench/out/{args.workload}-seed{seed}-trace0.json").read_text()
        )
        rows.append(report)
        e2e = report["end_to_end"]
        print(f"seed {seed}: " + " ".join(f"{k}={e2e[k]:.5g}" for k in FIGURES)
              + f" raw_wall={e2e['raw']['wall_s']:.4g} ref={report['host']['ref_s']:.4g}",
              flush=True)
    print(f"{'figure':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}   raw: median / spread")
    for name in FIGURES:
        values = [r["end_to_end"][name] for r in rows]
        raw = [r["end_to_end"]["raw"].get(name) for r in rows]
        q1, median, q3 = statistics.quantiles(values, n=4)
        line = f"{name:<14}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{(q3 - q1) / median:>9.3f}"
        if None not in raw:
            r1, rmed, r3 = statistics.quantiles(raw, n=4)
            line += f"   {rmed:.5g} / {(r3 - r1) / rmed:.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
