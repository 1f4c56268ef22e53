"""Tier-1 gate and unit tests for reprolint (``repro.lint``).

Three layers:

* per-rule fixtures — every rule in the pack has one snippet it must flag
  and one it must leave alone,
* framework behaviour — suppression comments, rule selection, path
  scoping, CLI output and exit codes,
* the repo gate — linting ``src/`` at HEAD must come back clean, so any
  new determinism or paper-invariant violation fails tier-1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
import repro.cli
from repro.errors import ConfigurationError
from repro.lint import (
    RULES,
    Diagnostic,
    lint_paths,
    lint_source,
    path_matches,
)
from repro.lint.cli import build_parser, main as reprolint_main
from repro.lint.suppress import parse_suppressions

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def rule_ids(diagnostics) -> set:
    return {diagnostic.rule_id for diagnostic in diagnostics}


# One (flagging_path, bad_source, clean_source) triple per rule.  The clean
# snippet is linted at the same path, so it exercises the rule itself rather
# than the path scoping.
RULE_FIXTURES = {
    "RNG001": (
        "repro/sim/backoff.py",
        "import random\n",
        "from repro.rng import StreamFactory\n\n__all__ = []\n",
    ),
    "RNG002": (
        "repro/sim/backoff.py",
        "import numpy as np\n\nrng = np.random.default_rng(7)\n",
        (
            "import numpy as np\n\n\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n\n\n"
            "__all__ = ['draw']\n"
        ),
    ),
    "DET001": (
        "repro/sim/engine.py",
        "import os\n\nsalt = os.urandom(8)\n",
        "def advance(slot: int) -> int:\n    return slot + 1\n\n\n__all__ = ['advance']\n",
    ),
    "DET002": (
        "repro/metrics/rollup.py",
        "result = [n * 2 for n in {3, 1, 2}]\n",
        "result = [n * 2 for n in sorted({3, 1, 2})]\n",
    ),
    "INV001": (
        "repro/spectrum/sensing.py",
        "BETA_COEFF = 3.6275987284684357\n",
        "import math\n\nSQRT3 = math.sqrt(3.0)\n",
    ),
    "INV002": (
        "repro/spectrum/sir.py",
        "def check(x: float) -> bool:\n    return x == 0.0\n\n\n__all__ = ['check']\n",
        (
            "def check(count: int) -> bool:\n"
            "    return count == 0\n\n\n__all__ = ['check']\n"
        ),
    ),
    "API001": (
        "repro/sim/policies.py",
        "def act(history=[]):\n    return history\n\n\n__all__ = ['act']\n",
        "def act(history=None):\n    return history or []\n\n\n__all__ = ['act']\n",
    ),
    "API002": (
        "repro/sim/policies.py",
        (
            "def guard():\n    try:\n        return 1\n"
            "    except:\n        return 0\n\n\n__all__ = ['guard']\n"
        ),
        (
            "def guard():\n    try:\n        return 1\n"
            "    except ValueError:\n        return 0\n\n\n__all__ = ['guard']\n"
        ),
    ),
    "API003": (
        "repro/metrics/summary.py",
        "__all__ = ['gone']\n\n\ndef present() -> int:\n    return 1\n",
        "__all__ = ['present']\n\n\ndef present() -> int:\n    return 1\n",
    ),
    "OBS001": (
        "repro/experiments/progress_report.py",
        "import time\n\nstart = time.perf_counter()\n",
        (
            "from repro.obs.clock import monotonic_s\n\n"
            "start = monotonic_s()\n\n__all__ = []\n"
        ),
    ),
    "OBS002": (
        "repro/service/metrics_shim.py",
        (
            "import repro.obs as obs\n\n\n"
            "def count(name: str) -> None:\n"
            "    obs.counter_add(f'service.{name}')\n\n\n"
            "__all__ = ['count']\n"
        ),
        (
            "import repro.obs as obs\n\n"
            "_METRICS = {'admitted': 'service.jobs_admitted'}\n\n\n"
            "def count(name: str) -> None:\n"
            "    obs.counter_add(_METRICS[name])\n"
            "    obs.counter_add('service.requests')\n\n\n"
            "__all__ = ['count']\n"
        ),
    ),
    "ROB001": (
        "repro/harness/cleanup.py",
        (
            "def release(handles):\n"
            "    for handle in handles:\n"
            "        try:\n"
            "            handle.close()\n"
            "        except Exception:\n"
            "            pass\n\n\n"
            "__all__ = ['release']\n"
        ),
        (
            "def release(handles):\n"
            "    for handle in handles:\n"
            "        try:\n"
            "            handle.close()\n"
            "        except OSError:\n"
            "            pass\n\n\n"
            "__all__ = ['release']\n"
        ),
    ),
    "ROB002": (
        "repro/harness/waiting.py",
        (
            "import time\n\n\n"
            "def wait_until(check):\n"
            "    while not check():\n"
            "        time.sleep(0.1)\n\n\n"
            "__all__ = ['wait_until']\n"
        ),
        (
            "from repro.obs.clock import sleep_s\n\n\n"
            "def wait_until(check, sleep=sleep_s):\n"
            "    while not check():\n"
            "        sleep(0.1)\n\n\n"
            "__all__ = ['wait_until']\n"
        ),
    ),
    "ROB003": (
        "repro/experiments/export.py",
        (
            "import json\n"
            "import os\n\n\n"
            "def save(path, payload):\n"
            "    tmp = str(path) + '.tmp'\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write(json.dumps(payload))\n"
            "    os.replace(tmp, path)\n\n\n"
            "__all__ = ['save']\n"
        ),
        (
            "import json\n\n"
            "from repro.storage import atomic_write_text\n\n\n"
            "def save(path, payload):\n"
            "    atomic_write_text(path, json.dumps(payload))\n\n\n"
            "__all__ = ['save']\n"
        ),
    ),
    "RNG010": (
        "repro/sim/nodes.py",
        (
            "def sense(streams):\n"
            "    return streams.stream('shared')\n\n\n"
            "def transmit(streams):\n"
            "    return streams.stream('shared')\n\n\n"
            "__all__ = ['sense', 'transmit']\n"
        ),
        (
            "def sense(streams):\n"
            "    return streams.stream('sense')\n\n\n"
            "def transmit(streams):\n"
            "    return streams.stream('transmit')\n\n\n"
            "__all__ = ['sense', 'transmit']\n"
        ),
    ),
    "PERF002": (
        "repro/perf/workers.py",
        (
            "_CURRENT = None\n\n\n"
            "def set_current(value):\n"
            "    global _CURRENT\n"
            "    _CURRENT = value\n\n\n"
            "__all__ = ['set_current']\n"
        ),
        (
            "def work(current, item):\n"
            "    return (current, item)\n\n\n"
            "__all__ = ['work']\n"
        ),
    ),
    "SUP001": (
        "repro/sim/tidy.py",
        "x = 1  # reprolint: disable=DET002 -- nothing here needs it\n",
        "vals = [n for n in {1, 2}]  # reprolint: disable=DET002 -- tiny fixed set\n",
    ),
}

# Further cases for rules that check more than one thing, keyed
# "<rule id>-<case>"; same (flagging_path, bad_source, clean_source) shape.
MORE_FIXTURES = {
    "ROB003-fsynced-append": (
        "repro/service/audit.py",
        (
            "import json\n"
            "import os\n\n\n"
            "def log(path, record):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(json.dumps(record) + '\\n')\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n\n\n"
            "__all__ = ['log']\n"
        ),
        (
            "from repro.storage import append_record, open_append\n\n\n"
            "def log(path, record):\n"
            "    with open_append(path) as handle:\n"
            "        append_record(handle, record)\n\n\n"
            "__all__ = ['log']\n"
        ),
    ),
    "OBS002-batched-span": (
        "repro/sim/phases.py",
        (
            "import repro.obs as obs\n\n\n"
            "def publish(phase: str, total_s: float, count: int) -> None:\n"
            "    obs.span_add('engine.phase.' + phase, total_s, count)\n\n\n"
            "__all__ = ['publish']\n"
        ),
        (
            "import repro.obs as obs\n\n"
            "_PHASES = {'sensing': 'engine.phase.sensing'}\n\n\n"
            "def publish(phase: str, total_s: float, count: int) -> None:\n"
            "    obs.span_add(_PHASES[phase], total_s, count)\n\n\n"
            "__all__ = ['publish']\n"
        ),
    ),
}
ALL_FIXTURES = {**RULE_FIXTURES, **MORE_FIXTURES}


def fixture_rule(case):
    return case.split("-")[0]


class TestRuleFixtures:
    @pytest.mark.parametrize("case", sorted(ALL_FIXTURES))
    def test_positive_fixture_fires(self, case):
        rule_id = fixture_rule(case)
        path, bad, _ = ALL_FIXTURES[case]
        diagnostics = lint_source(bad, path=path)
        assert rule_id in rule_ids(diagnostics), (
            f"{rule_id} should flag:\n{bad}"
        )
        finding = next(d for d in diagnostics if d.rule_id == rule_id)
        assert finding.line >= 1
        assert finding.path == path

    @pytest.mark.parametrize("case", sorted(ALL_FIXTURES))
    def test_negative_fixture_clean(self, case):
        rule_id = fixture_rule(case)
        path, _, good = ALL_FIXTURES[case]
        diagnostics = lint_source(good, path=path)
        assert rule_id not in rule_ids(diagnostics), (
            f"{rule_id} should not flag:\n{good}"
        )

    def test_every_registered_rule_has_fixtures(self):
        assert [rule.id for rule in RULES] == sorted(RULE_FIXTURES), "one entry per id"
        assert {fixture_rule(case) for case in MORE_FIXTURES} <= set(RULE_FIXTURES)

    @pytest.mark.parametrize(
        "rule_id, path, source",
        [
            ("OBS001", "repro/experiments/x.py", "import time as _t\n\n_t.perf_counter()\n"),
            ("DET001", "repro/sim/x.py", "import os as _os\n\n_os.urandom(8)\n"),
            ("ROB002", "repro/service/x.py", "import time as _t\n\n_t.sleep(1)\n"),
            ("RNG002", "repro/sim/x.py", "import numpy.random as npr\n\nnpr.default_rng(1)\n"),
            ("RNG002", "repro/sim/x.py", "import numpy as xp\n\nxp.random.default_rng(1)\n"),
            ("ROB003", "repro/service/x.py", "import os as _os\n\n_os.replace('a', 'b')\n"),
        ],
        ids=["OBS001", "DET001", "ROB002", "RNG002-submodule", "RNG002-package", "ROB003"],
    )
    def test_aliased_module_import_does_not_evade_ban(self, rule_id, path, source):
        assert rule_id in rule_ids(lint_source(source, path=path))

    def test_aliased_clock_import_is_clean_inside_the_facade(self):
        source = (
            "import time as _time\n\n\n"
            "def wait(seconds: float) -> float:\n"
            "    _time.sleep(seconds)\n"
            "    return _time.perf_counter()\n\n\n"
            "__all__ = ['wait']\n"
        )
        assert lint_source(source, path="repro/obs/clock.py") == []

    def test_rng002_flags_numpy_random_import(self):
        diagnostics = lint_source(
            "from numpy.random import default_rng\n", path="repro/sim/x.py"
        )
        assert "RNG002" in rule_ids(diagnostics)

    def test_rng_rules_allow_repro_rng_package(self):
        source = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
        assert "RNG002" in rule_ids(lint_source(source, path="repro/sim/x.py"))
        assert "RNG002" not in rule_ids(
            lint_source(source, path="repro/rng/streams.py")
        )

    def test_det001_only_fires_in_hot_paths(self):
        source = "import os\n\nsalt = os.urandom(8)\n"
        assert "DET001" in rule_ids(lint_source(source, path="repro/sim/x.py"))
        assert "DET001" in rule_ids(lint_source(source, path="repro/metrics/x.py"))
        assert "DET001" not in rule_ids(
            lint_source(source, path="repro/experiments/report.py")
        )

    def test_obs001_allows_the_clock_facade(self):
        source = "import time\n\n\ndef monotonic_s() -> float:\n    return time.perf_counter()\n\n\n__all__ = ['monotonic_s']\n"
        assert "OBS001" in rule_ids(
            lint_source(source, path="repro/experiments/x.py")
        )
        assert "OBS001" not in rule_ids(
            lint_source(source, path="repro/obs/clock.py")
        )

    def test_obs001_flags_from_time_imports(self):
        assert "OBS001" in rule_ids(
            lint_source(
                "from time import perf_counter\n", path="repro/viz/timing.py"
            )
        )

    def test_api003_tolerates_pep562_lazy_exports(self):
        source = (
            "__all__ = ['lazy']\n\n\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        )
        assert "API003" not in rule_ids(
            lint_source(source, path="repro/metrics/summary.py")
        )

    def test_det002_flags_order_sensitive_wrappers(self):
        assert "DET002" in rule_ids(
            lint_source("order = list(set([3, 1, 2]))\n", path="repro/a.py")
        )
        assert "DET002" in rule_ids(
            lint_source("for x in {1, 2}:\n    pass\n", path="repro/a.py")
        )
        assert "DET002" not in rule_ids(
            lint_source("order = sorted(set([3, 1, 2]))\n", path="repro/a.py")
        )

    def test_inv001_catches_truncated_constant_copies(self):
        diagnostics = lint_source("S = 1.7320508\n", path="repro/core/x.py")
        assert "INV001" in rule_ids(diagnostics)

    def test_inv001_allows_canonical_modules(self):
        source = "C = 0.8660254037844386\n"
        assert "INV001" not in rule_ids(
            lint_source(source, path="repro/core/pcr.py")
        )

    def test_inv002_scoped_to_numeric_layers(self):
        source = "flag = 1.0 == 2.0\n"
        assert "INV002" in rule_ids(
            lint_source(source, path="repro/geometry/distance.py")
        )
        assert "INV002" not in rule_ids(
            lint_source(source, path="repro/experiments/runner.py")
        )

    def test_api003_missing_all_and_init_exemption(self):
        source = "def helper() -> int:\n    return 1\n"
        assert "API003" in rule_ids(lint_source(source, path="repro/util.py"))
        # __init__.py re-export lists are deliberate; only dangling names count.
        assert "API003" not in rule_ids(
            lint_source("from repro.errors import ReproError\n", path="repro/__init__.py")
        )
        assert "API003" in rule_ids(
            lint_source("__all__ = ['missing']\n", path="repro/__init__.py")
        )

    def test_syntax_error_reported_as_parse_diagnostic(self):
        diagnostics = lint_source("def broken(:\n", path="repro/x.py")
        assert [d.rule_id for d in diagnostics] == ["PARSE"]

    def test_rob001_flags_bare_except_with_pass(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n\n__all__ = []\n"
        assert "ROB001" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_flags_base_exception_in_tuple(self):
        source = (
            "try:\n    x = 1\n"
            "except (ValueError, BaseException):\n    ...\n\n__all__ = []\n"
        )
        assert "ROB001" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_allows_broad_handler_that_acts(self):
        source = (
            "try:\n    x = 1\n"
            "except Exception as exc:\n    raise RuntimeError(str(exc))\n\n"
            "__all__ = []\n"
        )
        assert "ROB001" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob001_suppressible_on_the_pass_line(self):
        source = (
            "try:\n    x = 1\n"
            "except Exception:\n"
            "    pass  # reprolint: disable=ROB001 -- last-ditch cleanup\n\n"
            "__all__ = []\n"
        )
        assert "ROB001" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob002_flags_from_import_sleep_alias(self):
        source = (
            "from time import sleep as snooze\n\n\n"
            "def retry(fn):\n"
            "    for _ in range(3):\n"
            "        snooze(1.0)\n"
            "    return fn()\n\n\n"
            "__all__ = ['retry']\n"
        )
        assert "ROB002" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob002_flags_wall_clock_deadline_loop(self):
        """A deadline loop's clock read is reported once, by OBS001."""
        source = (
            "import time\n\n\n"
            "def wait(deadline):\n"
            "    while time.monotonic() < deadline:\n"
            "        pass\n\n\n"
            "__all__ = ['wait']\n"
        )
        found = rule_ids(lint_source(source, path="repro/x.py"))
        assert "OBS001" in found and "ROB002" not in found

    def test_rob002_exempts_the_clock_facade(self):
        source = "import time\n\ntime.sleep(0.0)\n\n__all__ = []\n"
        assert "ROB002" not in rule_ids(
            lint_source(source, path="repro/obs/clock.py")
        )
        assert "ROB002" in rule_ids(lint_source(source, path="repro/cli.py"))

    def test_rob003_flags_from_import_rename_alias(self):
        source = (
            "from os import rename as mv\n\n\n"
            "def save(path, text):\n"
            "    with open(str(path) + '.tmp', 'w') as handle:\n"
            "        handle.write(text)\n"
            "    mv(str(path) + '.tmp', path)\n\n\n"
            "__all__ = ['save']\n"
        )
        assert "ROB003" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_flags_tempfile_file_factories(self):
        source = (
            "import tempfile\n\n\n"
            "def scratch():\n"
            "    return tempfile.mkstemp()\n\n\n"
            "__all__ = ['scratch']\n"
        )
        assert "ROB003" in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_allows_scratch_directories(self):
        source = (
            "import tempfile\n\n\n"
            "def scratch():\n"
            "    return tempfile.mkdtemp()\n\n\n"
            "__all__ = ['scratch']\n"
        )
        assert "ROB003" not in rule_ids(lint_source(source, path="repro/x.py"))

    def test_rob003_exempts_the_storage_module(self):
        source = "import os\n\nos.replace('a', 'b')\n\n__all__ = []\n"
        assert "ROB003" not in rule_ids(
            lint_source(source, path="repro/storage.py")
        )
        assert "ROB003" in rule_ids(
            lint_source(source, path="repro/obs/tracing.py")
        )

    def test_rob002_allows_injected_sleep(self):
        source = (
            "from repro.obs.clock import sleep_s\n\n\n"
            "def retry(fn, sleep=sleep_s):\n"
            "    for attempt in range(3):\n"
            "        sleep(0.5 * 2 ** attempt)\n"
            "    return fn()\n\n\n"
            "__all__ = ['retry']\n"
        )
        assert "ROB002" not in rule_ids(lint_source(source, path="repro/x.py"))


class TestSuppressions:
    def test_same_line_disable(self):
        path, bad, _ = RULE_FIXTURES["INV002"]
        suppressed = bad.replace(
            "x == 0.0",
            "x == 0.0  # reprolint: disable=INV002 -- exact-zero guard",
        )
        assert "INV002" not in rule_ids(lint_source(suppressed, path=path))

    def test_standalone_comment_covers_next_line(self):
        source = (
            "# reprolint: disable=INV001 -- fixture constant\n"
            "BETA_COEFF = 3.6275987284684357\n"
        )
        assert "INV001" not in rule_ids(
            lint_source(source, path="repro/spectrum/x.py")
        )

    def test_file_level_disable(self):
        source = (
            "# reprolint: disable-file=DET002\n"
            "a = list(set([1, 2]))\n"
            "b = list(set([3, 4]))\n"
        )
        assert "DET002" not in rule_ids(lint_source(source, path="repro/a.py"))

    def test_disable_all(self):
        source = "import random  # reprolint: disable=all\n"
        assert lint_source(source, path="repro/sim/a.py") == []

    def test_unrelated_rule_still_fires(self):
        source = "import random  # reprolint: disable=DET002\n"
        assert "RNG001" in rule_ids(lint_source(source, path="repro/sim/a.py"))

    def test_marker_inside_string_is_ignored(self):
        source = (
            "note = '# reprolint: disable=RNG001'\nimport random\n"
        )
        assert "RNG001" in rule_ids(lint_source(source, path="repro/sim/a.py"))

    def test_parse_suppressions_index(self):
        index = parse_suppressions(
            "x = 1  # reprolint: disable=INV002, DET002\n"
        )
        assert index.is_suppressed("INV002", 1)
        assert index.is_suppressed("DET002", 1)
        assert not index.is_suppressed("INV002", 2)
        assert not index.is_suppressed("RNG001", 1)


class TestConfig:
    """Rule selection and path scoping; neither reads a configuration file."""

    def test_select_and_ignore(self):
        """``select`` runs exactly the listed rules and ignores the rest."""
        source = "import random\n\nimport time\n\nstart = time.time()\n"
        assert rule_ids(lint_source(source, "repro/sim/a.py", ["RNG001"])) == {"RNG001"}
        assert rule_ids(lint_source(source, "repro/sim/a.py", ["OBS001"])) == {"OBS001"}
        with pytest.raises(ConfigurationError):
            lint_source(source, "repro/sim/a.py", ["NOPE999"])

    def test_path_matches_suffix_semantics(self):
        assert path_matches("src/repro/rng/streams.py", ["repro/rng/*"])
        assert path_matches("repro/rng/streams.py", ["repro/rng/*"])
        assert not path_matches("src/repro/sim/engine.py", ["repro/rng/*"])


class TestFrameworkApi:
    def test_diagnostic_dict_and_human_formats(self):
        diagnostic = Diagnostic(
            rule_id="RNG001",
            path="repro/a.py",
            line=3,
            col=4,
            message="nope",
        )
        assert diagnostic.format_human() == "repro/a.py:3:4: RNG001 nope"
        assert diagnostic.as_dict()["rule"] == "RNG001"

    def test_lint_is_deterministic(self, tmp_path):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "a.py").write_text(
            "import random\nimport time\n\nstart = time.time()\n",
            encoding="utf-8",
        )
        (package / "b.py").write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        first = [d.as_dict() for d in lint_paths([tmp_path]).diagnostics]
        second = [d.as_dict() for d in lint_paths([tmp_path]).diagnostics]
        assert first == second
        locations = [(d["path"], d["line"], d["col"]) for d in first]
        assert locations == sorted(locations), "diagnostics come out sorted"


class TestCli:
    def test_human_output_contains_location(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "bad.py").write_text(
            "def f(x=[]):\n    return x\n", encoding="utf-8"
        )
        code = reprolint_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.py:1:" in out
        assert "API001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "ok.py").write_text(
            "__all__ = ['f']\n\n\ndef f() -> int:\n    return 1\n",
            encoding="utf-8",
        )
        assert reprolint_main([str(tmp_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert reprolint_main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        assert reprolint_main(["--select", "NOPE999", str(tmp_path)]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_help_lists_only_paths_select_and_list_rules(self):
        actions = build_parser()._actions
        assert [a.dest for a in actions] == ["help", "paths", "select", "list_rules"]

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_class in RULES:
            assert rule_class.id in out


class TestRepoGate:
    """The tier-1 contract: the repo itself lints clean, violations fail."""

    def test_src_tree_is_lint_clean(self):
        report = lint_paths([SRC_DIR])
        findings = "\n".join(d.format_human() for d in report.diagnostics)
        assert report.diagnostics == [], f"reprolint found violations in src/:\n{findings}"

    def test_addc_repro_lint_subcommand(self, tmp_path, capsys):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "ok.py").write_text(
            "__all__ = ['f']\n\n\ndef f() -> int:\n    return 1\n",
            encoding="utf-8",
        )
        assert repro.cli.main(["lint", str(tmp_path)]) == 0
        assert "finding(s) in 1 file(s)" in capsys.readouterr().out
        (package / "bad.py").write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
        # Leading options reach reprolint's own parser.
        assert repro.cli.main(["lint", "--select", "RNG001", str(tmp_path)]) == 0
        assert repro.cli.main(["lint", "--select", "API001", str(tmp_path)]) == 1

    def test_introduced_violation_fails(self, tmp_path, capsys):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        clean = SRC_DIR / "repro" / "sim" / "packet.py"
        (package / "packet.py").write_text(
            clean.read_text(encoding="utf-8")
            + "\nimport random  # injected regression\n",
            encoding="utf-8",
        )
        code = reprolint_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RNG001" in out and "packet.py" in out

    def test_rule_pack_fixtures_fail_via_cli(self, tmp_path, capsys):
        for case, (path, bad, _) in sorted(ALL_FIXTURES.items()):
            # Unique basename per case: several fixtures share a directory.
            target = tmp_path / Path(path).parent / f"fixture_{case.lower()}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(bad, encoding="utf-8")
        code = reprolint_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in RULE_FIXTURES:
            assert rule_id in out, f"{rule_id} fixture missing from CLI output"


def write_tree(root: Path, files: dict) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


class TestProjectTier:
    """RNG010 over a mini-package: stream names grouped across files."""

    def test_rng010_cross_module_collision(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def f(streams):\n    return streams.stream('shared')\n",
                "pkg/b.py": "def g(streams):\n    return streams.stream('shared')\n",
                "pkg/c.py": (
                    "def h(streams):\n"
                    "    first = streams.stream('again')\n"
                    "    return first, streams.stream('again')\n"
                ),
            },
        )
        report = lint_paths([Path("pkg")], select=["RNG010"])
        assert rule_ids(report.diagnostics) == {"RNG010"}
        assert len(report.diagnostics) == 1, (
            "one diagnostic per colliding name; a re-request in one function is legal"
        )
        finding = report.diagnostics[0]
        assert (finding.path, finding.line) == ("pkg/a.py", 2), "anchored at the first site"
        assert "pkg.a:f" in finding.message and "pkg.b:g" in finding.message

class TestStrictSuppressions:
    """SUP001: every run reports suppressions that silence nothing."""

    def test_unused_suppressions_reported(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(
            tmp_path,
            {
                "pkg/a.py": (
                    "# reprolint: disable-file=RNG001\n"
                    "x = 1  # reprolint: disable=DET002 -- stale\n"
                    "import random\n"
                ),
            },
        )
        report = lint_paths([Path("pkg")], select=["RNG001", "DET002", "SUP001"])
        findings = [d for d in report.diagnostics if d.rule_id == "SUP001"]
        # The file-level RNG001 suppression is used (line 3); only the
        # DET002 line suppression is dead.
        assert [d.line for d in findings] == [2]
        assert "SUP001" not in rule_ids(
            lint_paths([Path("pkg")], select=["RNG001", "DET002"]).diagnostics
        )

    def test_suppression_for_a_rule_that_did_not_run_is_not_unused(self):
        source = "x == 0.5  # reprolint: disable=INV002\n"
        path = "repro/experiments/a.py"
        assert "SUP001" not in rule_ids(lint_source(source, path, ["RNG001", "SUP001"]))
        assert "SUP001" not in rule_ids(
            lint_source(source.replace("INV002", "all"), path, ["RNG001", "SUP001"])
        )
        # A typo names no rule of the pack: dead whatever runs.
        assert "SUP001" in rule_ids(
            lint_source(source.replace("INV002", "INV02"), path, ["RNG001", "SUP001"])
        )
        # INV002 ran and found nothing outside its numeric layers.
        assert "SUP001" in rule_ids(lint_source(source, path))

    def test_suppression_of_project_finding_counts_as_used(self):
        path, bad, _ = RULE_FIXTURES["RNG010"]
        suppressed = bad.replace(
            "return streams.stream('shared')\n",
            "return streams.stream('shared')  # reprolint: disable=RNG010 -- fixture\n",
            1,
        )
        diagnostics = lint_source(suppressed, path=path)
        assert "RNG010" not in rule_ids(diagnostics)
        assert "SUP001" not in rule_ids(diagnostics), (
            "a suppression consumed by a finding reported from finish() is not unused"
        )
