"""Configuration for :mod:`repro.lint`, driven by ``pyproject.toml``.

The linter reads its settings from the ``[tool.reprolint]`` table::

    [tool.reprolint]
    exclude = ["benchmarks/*"]          # glob patterns, path-suffix matched
    fail_on = "warning"                 # exit non-zero at/above this severity
    select = []                         # optional allow-list of rule ids
    ignore = []                         # rule ids to disable entirely
    strict = false                      # report unused suppressions (SUP001)

    [tool.reprolint.severity]
    DET002 = "error"                    # per-rule severity overrides

    [tool.reprolint.rules.RNG002]
    allow = ["repro/rng/*"]             # rule-specific options

Paths are matched by *suffix*: the pattern ``repro/rng/*`` matches
``src/repro/rng/streams.py`` no matter which directory the linter was
invoked from.  On Python >= 3.11 the file is parsed with :mod:`tomllib`; on
3.9/3.10 a small built-in parser covers the subset of TOML this table uses
(string/number/bool scalars, arrays, and nested ``[a.b.c]`` headers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.diagnostics import Severity

__all__ = ["path_matches", "LintConfig", "load_pyproject_table"]

_DEFAULT_EXCLUDES = (
    "*.egg-info/*",
    "build/*",
    "dist/*",
    "__pycache__/*",
    ".git/*",
)


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """Whether ``relpath`` matches any glob pattern by path suffix.

    >>> path_matches("src/repro/rng/streams.py", ["repro/rng/*"])
    True
    >>> path_matches("src/repro/sim/engine.py", ["repro/rng/*"])
    False
    """
    if not patterns:
        return False
    parts = PurePosixPath(relpath.replace("\\", "/")).parts
    suffixes = ["/".join(parts[i:]) for i in range(len(parts))]
    return any(
        fnmatch(suffix, pattern) for suffix in suffixes for pattern in patterns
    )


def _parse_minimal_toml(text: str) -> Dict[str, Any]:
    """Parse the small TOML subset ``[tool.reprolint]`` needs (3.9 fallback)."""
    root: Dict[str, Any] = {}
    table = root
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for key in line[1:-1].strip().split("."):
                table = table.setdefault(key.strip().strip('"'), {})
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        table[key.strip().strip('"')] = _parse_minimal_value(value.strip())
    return root


def _parse_minimal_value(text: str) -> Any:
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_minimal_value(item.strip()) for item in inner.split(",") if item.strip()]
    if text.startswith(('"', "'")):
        return text.strip("\"'")
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_pyproject_table(pyproject_path: Path) -> Dict[str, Any]:
    """Return the ``[tool.reprolint]`` table of a ``pyproject.toml`` file."""
    text = Path(pyproject_path).read_text(encoding="utf-8")
    try:
        import tomllib  # Python >= 3.11

        data = tomllib.loads(text)
    except ModuleNotFoundError:  # pragma: no cover - exercised on 3.9/3.10
        try:
            import tomli  # type: ignore[import-not-found]

            data = tomli.loads(text)
        except ModuleNotFoundError:
            data = _parse_minimal_toml(text)
    table = data.get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        raise ConfigurationError("[tool.reprolint] must be a TOML table")
    return table


@dataclass
class LintConfig:
    """Resolved linter configuration.

    ``select`` (when non-empty) is an allow-list of rule ids; ``ignore``
    removes rules after selection.  ``severity_overrides`` re-grades a rule;
    ``rule_options`` feeds rule-specific knobs (each rule documents its own,
    and falls back to its built-in defaults for missing keys).
    """

    exclude: List[str] = field(default_factory=lambda: list(_DEFAULT_EXCLUDES))
    fail_on: Severity = Severity.WARNING
    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Report unused suppression comments (SUP001); also via --strict.
    strict: bool = False

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether a rule survives the ``select``/``ignore`` filters."""
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def severity_for(self, rule_id: str, default: Severity) -> Severity:
        """The effective severity of a rule."""
        return self.severity_overrides.get(rule_id, default)

    def options_for(self, rule_id: str) -> Dict[str, Any]:
        """Rule-specific options from ``[tool.reprolint.rules.<id>]``."""
        return self.rule_options.get(rule_id, {})

    def is_excluded(self, relpath: str) -> bool:
        """Whether a file is excluded from linting entirely."""
        return path_matches(relpath, self.exclude)

    @classmethod
    def from_table(cls, table: Dict[str, Any]) -> "LintConfig":
        """Build a config from a parsed ``[tool.reprolint]`` table."""
        config = cls()
        if "exclude" in table:
            config.exclude = list(_DEFAULT_EXCLUDES) + [
                str(pattern) for pattern in table["exclude"]
            ]
        if "fail_on" in table:
            config.fail_on = Severity.from_name(str(table["fail_on"]))
        config.select = [str(rule) for rule in table.get("select", [])]
        config.ignore = [str(rule) for rule in table.get("ignore", [])]
        config.strict = bool(table.get("strict", False))
        for rule_id, name in table.get("severity", {}).items():
            config.severity_overrides[str(rule_id)] = Severity.from_name(str(name))
        for rule_id, options in table.get("rules", {}).items():
            if not isinstance(options, dict):
                raise ConfigurationError(
                    f"[tool.reprolint.rules.{rule_id}] must be a table"
                )
            config.rule_options[str(rule_id)] = dict(options)
        return config

    @classmethod
    def from_pyproject(cls, pyproject_path: Path) -> "LintConfig":
        """Load configuration from a specific ``pyproject.toml``."""
        return cls.from_table(load_pyproject_table(pyproject_path))

    @classmethod
    def discover(cls, start_dir: Optional[Path] = None) -> "LintConfig":
        """Walk up from ``start_dir`` (default: cwd) for a ``pyproject.toml``.

        Returns the built-in defaults when no file is found.
        """
        directory = Path(start_dir) if start_dir is not None else Path.cwd()
        directory = directory.resolve()
        for candidate_dir in (directory, *directory.parents):
            candidate = candidate_dir / "pyproject.toml"
            if candidate.is_file():
                return cls.from_pyproject(candidate)
        return cls()
