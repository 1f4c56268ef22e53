"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 daemon_shim.py SPANS_OUT serve --socket ... --state-dir ...``

The traced service-mix pass starts the daemon through this file instead
of ``python -m repro``.  It installs the same outside-in wrappers as the
in-process workloads, captures the daemon's own recorder profile (the
``engine.phase.*`` spans and counters) just before the drain, and writes
everything to ``SPANS_OUT`` when the daemon exits.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    import repro.obs as obs
    from repro.cli import main as cli_main
    from repro.service.daemon import ExperimentService

    tracer = Tracer().install()
    captured = {"profile": {}, "snapshot": {}}
    original_drain = ExperimentService.drain

    def drain(service):
        captured["profile"] = obs.profile()
        captured["snapshot"] = obs.snapshot()
        return original_drain(service)

    ExperimentService.drain = drain
    try:
        return cli_main(cli_args)
    finally:
        tracer.restore()
        ExperimentService.drain = original_drain
        with open(out, "w") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "engine_runs": tracer.engine_runs,
                    "profile": captured["profile"],
                    "snapshot": captured["snapshot"],
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
