"""CLI-level tests for the service layer and the harnessed chaos command.

Two contracts live here:

* ``addc-repro chaos --checkpoint/--resume`` — the fault-injection sweep
  now runs through the shared jobs layer, so a journal torn by a kill
  resumes to byte-identical artifacts exactly like ``fig6``/``compare``;
* the ``serve``/``service`` commands parse, share defaults, and build
  specs that agree with the one-shot commands about fingerprints.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.cli import build_parser, main
from repro.service.jobs import JobSpec


@pytest.fixture(autouse=True)
def _null_recorder_between_tests():
    obs.set_recorder(None)
    yield
    obs.set_recorder(None)


TINY_FLAGS = [
    "--seed", "20120612",
    "--repetitions", "2",
]


def _chaos_args(tmp_path, label, extra):
    return [
        "chaos",
        *TINY_FLAGS,
        "--intensity", "0.3",
        "--horizon-slots", "500",
        "--mean-downtime", "100",
        "--save", str(tmp_path / f"{label}.json"),
        *extra,
    ]


class TestChaosCheckpointResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path, capsys):
        """Satellite contract: tear the chaos journal mid-record (what a
        SIGKILL leaves behind), resume, and get the exact bytes of an
        uninterrupted run — RNG stream positions included."""
        journal = tmp_path / "chaos.ndjson"

        assert main(_chaos_args(tmp_path, "reference", [])) == 0
        reference = (tmp_path / "reference.json").read_bytes()

        assert (
            main(
                _chaos_args(
                    tmp_path, "first", ["--checkpoint", str(journal)]
                )
            )
            == 0
        )
        assert (tmp_path / "first.json").read_bytes() == reference

        # Tear the journal's last record mid-line and resume: only the
        # torn repetition is recomputed, and the artifact matches.
        torn = journal.read_bytes()
        journal.write_bytes(torn[:-25])
        assert (
            main(
                _chaos_args(
                    tmp_path,
                    "resumed",
                    ["--checkpoint", str(journal), "--resume"],
                )
            )
            == 0
        )
        out = capsys.readouterr().out
        assert (tmp_path / "resumed.json").read_bytes() == reference
        assert "resumed" in out

    def test_resume_refuses_a_foreign_journal(self, tmp_path, capsys):
        """A journal from a *different* chaos sweep (other seed) must be
        refused by fingerprint, not silently mixed in."""
        journal = tmp_path / "chaos.ndjson"
        assert (
            main(_chaos_args(tmp_path, "first", ["--checkpoint", str(journal)]))
            == 0
        )
        code = main(
            [
                "chaos",
                "--seed", "999",
                "--repetitions", "2",
                "--intensity", "0.3",
                "--horizon-slots", "500",
                "--mean-downtime", "100",
                "--save", str(tmp_path / "other.json"),
                "--checkpoint", str(journal),
                "--resume",
            ]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().err


class TestServiceCli:
    def test_serve_and_service_parse_with_shared_defaults(self):
        parser = build_parser()
        serve = parser.parse_args(["serve"])
        submit = parser.parse_args(["service", "submit", "compare"])
        assert serve.socket == submit.socket
        assert serve.queue_capacity == 4
        assert submit.scale == "quick"
        smoke = parser.parse_args(["service", "smoke"])
        assert smoke.service_command == "smoke"

    def test_submit_spec_matches_one_shot_fingerprints(self):
        """A ``service submit`` spec and the equivalent one-shot CLI run
        must agree on the experiment's identity (the cache key)."""
        from repro.cli import _job_spec

        parser = build_parser()
        args = parser.parse_args(
            ["service", "submit", "fig6", "--subfigure", "c",
             "--seed", "7", "--repetitions", "1"]
        )
        spec = _job_spec(args)
        direct = JobSpec(kind="fig6", subfigure="c", seed=7, repetitions=1)
        assert spec == direct
        assert spec.fingerprint() == direct.fingerprint()

    def test_submit_chaos_spec_carries_fault_options(self):
        from repro.cli import _job_spec

        parser = build_parser()
        args = parser.parse_args(
            ["service", "submit", "chaos", "--intensity", "0.5",
             "--blackout", "--repetitions", "1"]
        )
        spec = _job_spec(args)
        assert spec.kind == "chaos"
        options = spec.chaos_options()
        assert options.intensity == 0.5
        assert options.blackout is True

    def test_fig6_submit_requires_subfigure(self):
        from repro.cli import _job_spec
        from repro.errors import ServiceError

        parser = build_parser()
        args = parser.parse_args(["service", "submit", "fig6"])
        with pytest.raises(ServiceError, match="subfigure"):
            _job_spec(args)

    def test_unreachable_socket_is_a_typed_failure(self, tmp_path, capsys):
        code = main(
            ["service", "ping", "--socket", str(tmp_path / "nowhere.sock")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ERROR [service]" in err
        assert "addc-repro serve" in err

    def test_fig6_harness_manifest_still_carries_harness_block(
        self, tmp_path, capsys
    ):
        """The fig6 refactor onto the jobs layer must not change the CLI
        artifact/manifest contract the OBSERVABILITY docs promise."""
        save = tmp_path / "fig6c.json"
        journal = tmp_path / "fig6c.ndjson"
        code = main(
            [
                "fig6", "c",
                "--seed", "20120612",
                "--repetitions", "1",
                "--save", str(save),
                "--checkpoint", str(journal),
            ]
        )
        assert code == 0
        manifest = json.loads(
            (tmp_path / "fig6c.manifest.json").read_text()
        )
        assert manifest["extra"]["sweep"] == "fig6c"
        assert manifest["extra"]["harness"]["status"] == "complete"
        assert journal.exists()


class TestOneJobPath:
    """``fig6``/``compare``/``chaos`` run the job the daemon would run."""

    def test_chaos_stdout_does_not_depend_on_harness_flags(self, capsys):
        """A retry flag changes how failures are handled, never which
        experiment runs: both command lines print the same bytes."""
        assert main(["chaos", "--repetitions", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(["chaos", "--repetitions", "1", "--max-retries", "2"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (
                ["fig6", "c", "--repetitions", "1"],
                JobSpec(kind="fig6", subfigure="c", repetitions=1),
            ),
            (["chaos", "--repetitions", "1"], JobSpec(kind="chaos", repetitions=1)),
        ],
        ids=["fig6c", "chaos"],
    )
    def test_cli_saves_the_daemon_bytes(self, argv, spec, tmp_path, capsys):
        from repro.cli import _job_spec
        from repro.service.jobs import run_job, save_job_artifact

        assert _job_spec(build_parser().parse_args(argv)).fingerprint() == (
            spec.fingerprint()
        )
        saved = tmp_path / "cli.json"
        assert main([*argv, "--save", str(saved)]) == 0
        reference = tmp_path / "reference.json"
        save_job_artifact(run_job(spec), reference)
        assert saved.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["fig6", "c"], ["compare"], ["chaos"]],
        ids=["fig6", "compare", "chaos"],
    )
    def test_quarantine_is_handled_alike_for_every_kind(
        self, argv, monkeypatch, capsys
    ):
        """A repetition that keeps failing is quarantined and reported the
        same way by all three job commands: exit 1 with PARTIAL, or the
        survivors with --allow-partial."""
        import repro.perf.executor as executor_module

        real = executor_module.execute_work_item

        def poisoned(item):
            if item.repetition == 0:
                raise ValueError("deterministic poison")
            return real(item)

        monkeypatch.setattr(executor_module, "execute_work_item", poisoned)
        argv = [*argv, "--repetitions", "2", "--max-retries", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "quarantined: point 0 rep 0 (error after 1 attempts)" in err
        assert "PARTIAL" in err
        assert main([*argv, "--allow-partial"]) == 0
        captured = capsys.readouterr()
        assert "quarantined: point 0 rep 0" in captured.err
        assert "PARTIAL" not in captured.err
        assert captured.out
