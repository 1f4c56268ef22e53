"""Byte pins of what a job writes: artifact, manifest ``extra``, trace ids.

One tiny job of each kind (fig6, compare, chaos) runs through
:func:`repro.service.jobs.execute_job`.  Its artifact is pinned by a
BLAKE2b digest of the file's bytes, and its manifest by the whole
``extra`` block (the journal path is normalised, since it names a
temporary directory).  The span ids of a merged ``trace/v2`` tree are
pinned as the complete ``(span_id, parent_id, name)`` list.

These pins are independent of how the job layer is built: any refactor
of the result types, the artifact writer or the span-id construction
must leave every value here unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.obs as obs
from repro.obs.tracing import load_spans, merge_shards, write_trace
from repro.service.jobs import JobSpec, execute_job

TINY = {"area": 900.0, "num_pus": 4, "num_sus": 20, "max_slots": 200_000}

SPECS = {
    "fig6": JobSpec(
        kind="fig6",
        subfigure="c",
        values=(0.2,),
        seed=20120612,
        repetitions=1,
        overrides=TINY,
    ),
    "compare": JobSpec(
        kind="compare", seed=20120612, repetitions=1, overrides=TINY
    ),
    "chaos": JobSpec(
        kind="chaos",
        seed=20120612,
        repetitions=1,
        overrides=TINY,
        chaos={"intensity": 0.3, "horizon_slots": 500},
    ),
}

ARTIFACT_DIGESTS = {
    "fig6": "c26fdb0db867bd5c9e63e9c27a0f912e",
    "compare": "6ac44ebaf81d6897989366efe88cb44e",
    "chaos": "c76bc661d58688afe3c9baa22aacd717",
}

_CLEAN_STATS = {
    "inline_rescues": 0,
    "pool_rebuilds": 0,
    "quarantined": 0,
    "retries": 0,
    "timeouts": 0,
    "worker_crashes": 0,
    "worker_errors": 0,
}


def _harness_block(config_hash: str) -> dict:
    return {
        "cached_items": 0,
        "checkpoint": "<journal>",
        "config_hash": config_hash,
        "dropped_points": [],
        "failures": [],
        "resumed": False,
        "stats": dict(_CLEAN_STATS),
        "status": "complete",
    }


MANIFEST_EXTRAS = {
    "fig6": {
        "harness": _harness_block("6bcc6e49a139c39f105ae179e6558706"),
        "sweep": "fig6c",
        "workers": 1,
    },
    "compare": {
        "harness": _harness_block("22ab8c75c1067fee01439a82d73aff81"),
        "sweep": "comparison",
        "workers": 1,
    },
    "chaos": {
        "chaos": {
            "aggregate": {
                "blackout_failures": 0,
                "completed": 1,
                "delivered": 13,
                "fault_events": 5,
                "mean_availability": 0.9674496644295302,
                "mean_delay_ms": 149.0,
                "num_packets": 20,
                "outages_open": 2,
                "outages_recovered": 3,
                "packets_lost": 7,
                "packets_orphaned": 7,
                "repetitions": 1,
            },
            "cached_items": 0,
            "config_hash": "5ab78b7e783812e9b8c3b4fca12684e8",
            "failures": [],
            "options": {
                "blackout": False,
                "drop_queue": True,
                "horizon_slots": 500,
                "intensity": 0.3,
                "mean_downtime_slots": 200.0,
                "sensing_fault_fraction": 0.0,
            },
            "resumed": False,
            "stats": dict(_CLEAN_STATS),
            "status": "complete",
        },
        "sweep": "chaos",
        "workers": 1,
    },
}


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_job_artifact_and_manifest_extra_are_pinned(tmp_path, kind):
    journal = tmp_path / "journal.ndjson"
    execute_job(SPECS[kind], tmp_path / "artifact.json", checkpoint_path=journal)
    data = (tmp_path / "artifact.json").read_bytes()
    assert hashlib.blake2b(data, digest_size=16).hexdigest() == (
        ARTIFACT_DIGESTS[kind]
    )
    manifest = json.loads((tmp_path / "artifact.manifest.json").read_text())
    extra = manifest["extra"]
    if "harness" in extra:
        assert extra["harness"]["checkpoint"] == str(journal)
        extra["harness"]["checkpoint"] = "<journal>"
    assert extra == MANIFEST_EXTRAS[kind]


_PROFILE = {
    "sweep.repetition": {"count": 1, "total_ms": 4.0},
    "engine.slot": {"count": 100, "total_ms": 2.0},
    "engine.phase.sensing": {"count": 100, "total_ms": 1.0},
}


def _rep_ids(point: int, rep: int) -> list:
    rep_id = f"job/point-{point}/rep-{rep}"
    return [(rep_id, f"job/point-{point}", f"rep-{rep}")] + [
        (f"{rep_id}/{name}", rep_id, name)
        for name in ("engine.phase.sensing", "engine.slot", "sweep.repetition")
    ]


MERGED_IDS = (
    [("job", None, "comparison"), ("job/point-0", "job", "point-0")]
    + _rep_ids(0, 0)
    + _rep_ids(0, 1)
    + [("job/point-1", "job", "point-1")]
    + _rep_ids(1, 0)
    + _rep_ids(1, 1)
)


def test_merged_span_ids_are_the_name_path(tmp_path):
    """2 points x 2 repetitions, shards given out of order: every id is
    its name path under ``job``, and the trace id is the fingerprint."""
    spec = SPECS["compare"]
    trace_id = spec.fingerprint()
    shards = [(point, rep, _PROFILE) for point in (1, 0) for rep in (1, 0)]
    spans = merge_shards(shards, job_name="comparison")
    assert [(s.span_id, s.parent_id, s.name) for s in spans] == MERGED_IDS
    write_trace(tmp_path / "trace.ndjson", trace_id, spans)
    header, loaded = load_spans(tmp_path / "trace.ndjson")
    assert header["trace_id"] == trace_id
    assert [span.to_dict() for span in loaded] == [
        span.to_dict() for span in spans
    ]
