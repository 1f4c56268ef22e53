"""Start-up stays free of SciPy.

SciPy is needed only by four functions (the Student-t interval, the Welch
test, the exact zeta bound and the energy detector's Q-function), which
import it on first call.  Loading it at module import would cost every
interpreter, CLI call, daemon and ``spawn`` worker over a second and
~60 MB, so each case here runs a real entry path in a fresh interpreter
and checks that no ``scipy`` module was loaded.  The last case checks the
four functions still return exactly what the direct SciPy call returns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Printed by every driver: the ``scipy`` modules the interpreter loaded.
_REPORT = textwrap.dedent(
    """
    import json, sys
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """
)


def _python(args, extra_path=(), cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *map(str, extra_path)])
    process = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=cwd,
    )
    assert process.returncode == 0, process.stderr
    return process


def _scipy_loaded_by(driver: str, extra_path=(), cwd=None):
    process = _python(["-c", driver + _REPORT], extra_path, cwd)
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_job_path_never_loads_scipy(tmp_path):
    driver = textwrap.dedent(
        """
        from pathlib import Path
        # e2ebench's set-up import set, then one job of each simulated kind.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_comparison_repetition
        from repro.service.jobs import JobSpec, execute_job

        for name, spec in (
            ("fig6", JobSpec(kind="fig6", subfigure="c", scale="quick", repetitions=2)),
            ("compare", JobSpec(kind="compare", scale="quick", repetitions=1)),
        ):
            Path(name).mkdir()
            execute_job(spec, Path(name) / "artifact.json")
        """
    )
    assert _scipy_loaded_by(driver, cwd=tmp_path) == []
    assert (tmp_path / "fig6" / "artifact.json").exists()
    assert (tmp_path / "compare" / "artifact.json").exists()


def test_cli_and_daemon_never_load_scipy():
    assert _scipy_loaded_by("import repro.cli, repro.service.daemon\n") == []
    process = _python(["-X", "importtime", "-m", "repro", "--help"])
    assert "usage" in process.stdout
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in process.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.cli" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
    # Only `lint` itself loads the linter; it forwards its arguments.
    assert [name for name in imported if name.startswith("repro.lint")] == []


def test_spawn_worker_never_loads_scipy(tmp_path):
    # Spawned workers import submitted functions by module name, so the
    # probe lives in a real module on the workers' PYTHONPATH.
    (tmp_path / "startup_probe.py").write_text(
        textwrap.dedent(
            """
            import sys

            from repro.experiments.config import ExperimentConfig
            from repro.experiments.runner import run_comparison_repetition


            def repetition_then_modules():
                run_comparison_repetition(ExperimentConfig.quick_scale(), 0)
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            """
        )
    )
    driver = textwrap.dedent(
        """
        import json
        from repro.perf.pool import WarmWorkerPool
        from startup_probe import repetition_then_modules

        if __name__ == "__main__":
            with WarmWorkerPool(1) as pool:
                print(json.dumps(pool.submit(repetition_then_modules).result()))
        """
    )
    script = tmp_path / "driver.py"
    script.write_text(driver)
    process = _python([str(script)], extra_path=[tmp_path])
    assert json.loads(process.stdout.strip().splitlines()[-1]) == []


def test_lazy_scipy_functions_match_direct_scipy_calls():
    driver = textwrap.dedent(
        """
        import json, math, sys
        from repro.core.pcr import zeta_series_bound
        from repro.metrics.stats import comparison_significant, t_confidence_interval
        from repro.spectrum.detection import q_function

        assert "scipy" not in sys.modules
        a = [10.0, 12.5, 11.0, 13.25, 9.5]
        b = [14.0, 15.5, 13.0, 16.75]
        got = {
            "ci": t_confidence_interval(a, 0.9).upper,
            "welch": comparison_significant(a, b)[1],
            "zeta": zeta_series_bound(3.7, "exact"),
            "q": q_function([-1.5, 0.0, 0.3, 2.0]).tolist(),
        }

        import numpy as np
        from scipy.special import erfc, zeta
        from scipy.stats import t, ttest_ind

        sample = np.asarray(a)
        stderr = float(sample.std(ddof=1)) / math.sqrt(sample.size)
        want = {
            "ci": float(sample.mean()) + float(t.ppf(0.95, sample.size - 1)) * stderr,
            "welch": float(ttest_ind(a, b, equal_var=False).pvalue),
            "zeta": float(zeta(2.7)) - 1.0,
            "q": (0.5 * erfc(np.asarray([-1.5, 0.0, 0.3, 2.0]) / math.sqrt(2.0))).tolist(),
        }
        print(json.dumps([got, want]))
        """
    )
    got, want = json.loads(_python(["-c", driver]).stdout.strip().splitlines()[-1])
    assert got == want
