"""Tests for the ocelot command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import _flag_table, build_parser, main
from repro.compression.sz.encoding import ENTROPY_STAGES
from repro.core.config import (
    VALID_CACHE_MODES, VALID_MODES, VALID_TRANSFER_MODES, OcelotConfig,
)
from repro.errors import ConfigurationError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (["info"], ["predict"], ["compress"], ["transfer"],
                        ["inspect", "x.sz"]):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_the_learned_block_policy_surface_is_gone(self, capsys):
        """Argparse rejects the verb and the flag; nothing quietly ignores them."""
        for argv in (["train-policy", "--output", "p.json"],
                     ["compress", "--block-size", "16", "--adaptive-predictor",
                      "--block-policy", "p.json"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
        assert "--block-policy" in capsys.readouterr().err

    def test_submit_has_no_priority_flag(self, capsys):
        """There is one scheduler class: argparse rejects the flag."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["submit", "--priority", "high"])
        assert exit_info.value.code == 2
        assert "--priority" in capsys.readouterr().err

    def test_compress_arguments(self):
        args = build_parser().parse_args(
            ["compress", "--application", "nyx", "--compressor", "sz2", "--error-bound", "1e-4"]
        )
        assert args.application == "nyx"
        assert args.compressor == "sz2"
        assert args.error_bound == 1e-4

    @pytest.mark.parametrize("flag, values, field", [
        ("entropy", ENTROPY_STAGES, "entropy_stage"),
        ("cache-mode", VALID_CACHE_MODES, "cache_mode"),
        ("mode", VALID_MODES, "mode"),
        ("transfer-mode", VALID_TRANSFER_MODES, "transfer_mode"),
    ])
    def test_flag_choices_are_the_tuple_the_config_checks(self, flag, values, field):
        """Each value set is written once: the flag offers what the config accepts."""
        assert _flag_table()[flag][1]["choices"] is values
        for value in values:
            OcelotConfig(**{field: value, "cache_dir": "/unused"})
        with pytest.raises(ConfigurationError):
            OcelotConfig(**{field: "bogus"})

    def test_invalid_application_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "--application", "doom"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "sz3" in out
        assert "cesm" in out
        assert "anvil" in out

    def test_compress_json_output(self, capsys):
        code = main([
            "compress", "--application", "cesm", "--scale", "0.03",
            "--compressor", "sz3-fast", "--error-bound", "1e-3", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compression_ratio"] > 1.0
        assert payload["psnr_db"] > 40.0

    def test_compress_npy_input(self, tmp_path, capsys):
        data = np.add.outer(np.sin(np.linspace(0, 3, 40)), np.cos(np.linspace(0, 2, 30)))
        path = tmp_path / "field.npy"
        np.save(path, data.astype(np.float32))
        code = main(["compress", "--input", str(path), "--compressor", "sz3-fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == [40, 30]

    def test_predict_text_output(self, capsys):
        code = main([
            "predict", "--application", "miranda", "--scale", "0.03",
            "--compressor", "sz3-fast", "--train-fraction", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "P-CR" in out

    def test_transfer_json_output(self, capsys):
        code = main([
            "transfer", "--application", "miranda", "--snapshots", "1", "--scale", "0.03",
            "--source", "anvil", "--destination", "cori",
            "--modes", "direct", "grouped", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"direct", "grouped"}
        assert payload["grouped"]["compression_ratio"] > 1.0

    def test_transfer_streamed_mode(self, capsys):
        code = main([
            "transfer", "--application", "miranda", "--snapshots", "1", "--scale", "0.03",
            "--modes", "compressed", "--block-size", "16",
            "--transfer-mode", "streamed", "--stream-window", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["compressed"]
        assert report["transfer_mode"] == "streamed"
        assert report["timings"]["streaming_s"] > 0
        assert report["timings"]["streaming_s"] == pytest.approx(report["total_s"])

    def test_inspect_blocked_blob(self, tmp_path, capsys):
        from repro.compression import ErrorBound, create_compressor

        data = np.add.outer(
            np.sin(np.linspace(0, 3, 48)), np.cos(np.linspace(0, 2, 40))
        ).astype(np.float32)
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=24)
        result = compressor.compress(data, ErrorBound(value=1e-3, mode="abs"))
        path = tmp_path / "field.sz"
        path.write_bytes(result.blob.to_bytes())
        code = main(["inspect", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 3
        assert "is_blocked" not in payload
        assert len(payload["blocks"]) == payload["num_blocks"] == result.blob.num_blocks > 1
        first = payload["blocks"][0]
        assert set(first) == {
            "id", "origin", "shape", "predictor", "entropy", "codebook", "section",
            "section_bytes", "alias_of",
        }
        assert first["section_bytes"] > 0
        assert first["alias_of"] is None
        # sz3-fast runs no entropy stage, so there is no codebook to report.
        assert payload["codebook"]["mode"] == "none"
        assert payload["entropy_stage"] == "none"
        assert payload["block_codecs"] == {"none": payload["num_blocks"]}

    def test_exit_codes(self, tmp_path, capsys):
        """Typed errors end in one line and exit 1, argparse rejects bad
        values with 2, a failed job exits 2 — never a traceback."""
        from repro.service import JobStore

        state = str(tmp_path / "jobs.jsonl")
        JobStore(state).record_terminal("job-0001", "failed", 3.0, error="boom")
        table = [
            (["transfer", "--source", "nowhere", "--snapshots", "1", "--scale", "0.02"], 1),
            (["predict", "--snapshots", "0"], 2),
            (["predict", "--train-fraction", "1.5"], 2),
            (["compress", "--adaptive-predictor"], 1),
            (["status", "job-0042", "--state", state], 1),
            (["status", "job-0001", "--state", state], 2),
        ]
        errors = []
        for argv, expected in table:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            errors.append(capsys.readouterr().err)
            assert (argv, code) == (argv, expected)
            assert "Traceback" not in errors[-1]
            if code == 1:
                assert errors[-1].startswith(f"ocelot {argv[0]}: ")
                assert errors[-1].count("\n") == 1
        assert errors[0].startswith("ocelot transfer: unknown source endpoint 'nowhere'")
        assert errors[0].endswith(" (invalid_request)\n")

    def test_cache_stats_on_a_missing_directory_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 1
        assert not missing.exists()
        assert capsys.readouterr().err == (
            f"ocelot cache: no cache directory at {missing} (invalid_config)\n"
        )

    def test_cache_stats_and_clear_report_the_blob_tier(self, tmp_path, capsys):
        from repro.cache import BlobCache

        BlobCache(str(tmp_path)).put_blob("a" * 32, b"x" * 100)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["blob"] == {"entries": 1, "bytes": 114}
        assert (stats["total_entries"], stats["total_bytes"]) == (1, 114)
        assert "tiers" not in stats and "block_hits" not in stats["session"]
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "    blob:      1 entries  114 B"
        with pytest.raises(SystemExit) as exit_info:  # one tier: no flag to pick it
            main(["cache", "clear", "--cache-dir", str(tmp_path), "--tier", "block"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"removed 1 entries from {tmp_path}\n"

    def test_inspect_shows_an_older_blobs_aliases(self, tmp_path, capsys):
        from pathlib import Path

        fixtures = json.loads(Path(__file__).with_name("blob_fixtures.json").read_text())
        path = tmp_path / "aliased.sz"
        path.write_bytes(bytes.fromhex(fixtures["v3-aliased-blocks"]["hex"]))
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [block["alias_of"] for block in payload["blocks"]] == [
            None, None, 0, None, None, 3, None, None, 6
        ]
        assert main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  layout: 9 independent block(s)" in lines
        assert [line[-10:] for line in lines if line.endswith(("=        3", "=        6"))] == [
            "=        3", "=        6"
        ]

    def test_an_older_blobs_stage_timings_still_parse_and_decode(self, tmp_path, capsys):
        """Older builds could stamp encode stage timings into a blob's
        metadata; such a blob round-trips, decodes the same and inspects."""
        from repro.compression import CompressedBlob, ErrorBound, create_blocked_compressor

        data = np.add.outer(
            np.sin(np.linspace(0, 3, 48)), np.cos(np.linspace(0, 2, 40))
        ).astype(np.float32)
        compressor = create_blocked_compressor("sz3", block_shape=16)
        blob = compressor.compress(data, ErrorBound(value=1e-3, mode="abs")).blob
        timings = {"predict_quantize_s": 0.0125, "entropy_s": 0.004, "lossless_s": 0.0031}
        blob.metadata["stage_timings"] = dict(timings)
        parsed = CompressedBlob.from_bytes(blob.to_bytes())
        assert parsed.metadata["stage_timings"] == timings
        assert (compressor.decompress(parsed) == compressor.decompress(blob)).all()
        path = tmp_path / "timed.sz"
        path.write_bytes(blob.to_bytes())
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_blocks"] == blob.num_blocks
        assert "stage_timings" not in payload
        with pytest.raises(SystemExit) as exit_info:  # the flag went with the feature
            main(["compress", "--stage-timings"])
        assert exit_info.value.code == 2

    def test_inspect_whole_array_blob(self, tmp_path, capsys):
        from repro.compression import ErrorBound, create_compressor

        data = np.linspace(0, 1, 512).astype(np.float32)
        result = create_compressor("sz3-fast").compress(data, ErrorBound.relative(1e-3))
        path = tmp_path / "whole.sz"
        path.write_bytes(result.blob.to_bytes())
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "layout: 1 independent block(s)" in out
        assert "(512,)" in out and "payload" not in out  # the one block's row


class TestJobServiceCommands:
    def test_submit_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["submit", "--application", "cesm", "miranda", "--copies", "2",
             "--destination", "bebop", "--state", "jobs.json"]
        )
        assert args.command == "submit"
        assert args.application == ["cesm", "miranda"]
        assert args.copies == 2
        for command in (["jobs"], ["status", "job-0001"]):
            assert parser.parse_args(command).command == command[0]

    def test_submit_jobs_status_roundtrip(self, tmp_path, capsys):
        state = tmp_path / "jobs.jsonl"
        code = main([
            "submit", "--application", "miranda", "--copies", "2",
            "--scale", "0.02", "--size-scale", "5000",
            "--state", str(state), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 2
        assert all(job["status"] == "completed" for job in payload["jobs"])
        assert payload["combined_makespan_s"] > 0
        # Per-job event feeds were persisted.
        kinds = {event["kind"] for event in payload["jobs"][0]["events"]}
        assert {"submitted", "phase_started", "phase_finished", "completed"} <= kinds

        assert main(["jobs", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "job-0002" in out and "completed" in out

        assert main(["status", "job-0002", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "job-0002" in out
        assert "phase_started" in out

    def test_jobs_reads_the_log_once(self, tmp_path, capsys, monkeypatch):
        """The job listing and the ``batch`` line come from one read of the log."""
        import builtins

        state = tmp_path / "jobs.jsonl"
        assert self._submit(state) == 0
        capsys.readouterr()
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["jobs", "--state", str(state), "--json"]) == 0
        monkeypatch.undo()
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 1 and payload["combined_makespan_s"] > 0
        assert opened.count(str(state)) == 1

    def _submit(self, state, *extra):
        return main([
            "submit", "--application", "miranda", "--scale", "0.02",
            "--size-scale", "5000", "--state", str(state), "--json", *extra,
        ])

    def test_second_submit_appends_and_continues_numbering(self, tmp_path, capsys):
        from repro.service import JobStore

        state = tmp_path / "jobs.jsonl"
        assert self._submit(state) == 0
        first = state.read_bytes()
        assert self._submit(state) == 0
        capsys.readouterr()
        # Appended, not rewritten: the first batch's lines are untouched.
        assert state.read_bytes().startswith(first) and len(state.read_bytes()) > len(first)
        records = JobStore(str(state)).load()
        assert [(r["kind"], r.get("job_id")) for r in records] == [
            ("submitted", "job-0001"), ("terminal", "job-0001"),
            ("record", "job-0001"), ("batch", None),
            ("submitted", "job-0002"), ("terminal", "job-0002"),
            ("record", "job-0002"), ("batch", None),
        ]

    def test_torn_last_line_loses_only_itself(self, tmp_path, capsys):
        state = tmp_path / "jobs.jsonl"
        assert self._submit(state) == 0
        with open(state, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "submitted", "job_id": "job-0002", "spe')
        capsys.readouterr()
        assert main(["jobs", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "completed" in out and "job-0002" not in out
        # ... and the next batch is not glued to the fragment.
        assert self._submit(state) == 0
        capsys.readouterr()
        assert main(["jobs", "--state", str(state), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["jobs"]
        assert [(job["job_id"], job["status"]) for job in listed] == [
            ("job-0001", "completed"), ("job-0002", "completed"),
        ]

    def test_status_prints_the_feed_of_a_completed_job(self, tmp_path, capsys):
        state = tmp_path / "jobs.jsonl"
        assert self._submit(state) == 0
        capsys.readouterr()
        assert main(["status", "job-0001", "--state", str(state)]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        feed = lines[lines.index("  events:") + 1:]
        assert feed[0].endswith("submitted") and feed[-1].endswith("completed")
        assert any("phases: wait" in line for line in lines)

    def test_status_exit_codes(self, tmp_path, capsys):
        """Unknown job: 1.  Failed job: 2, so scripts can gate on it."""
        from repro.service import JobStore

        state = tmp_path / "jobs.jsonl"
        assert main(["status", "job-0042", "--state", str(state)]) == 1  # no log yet
        store = JobStore(str(state))
        store.record_submitted("job-0001", 0.0, {"source": "anvil", "destination": "cori"})
        store.record_terminal("job-0001", "failed", 3.0, error="boom")
        assert main(["status", "job-0042", "--state", str(state)]) == 1
        assert "unknown job" in capsys.readouterr().err
        assert main(["status", "job-0001", "--state", str(state)]) == 2
        assert "error: boom" in capsys.readouterr().out
        assert main(["status", "job-0001", "--state", str(state), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "failed"

    def test_a_crashed_submit_is_recovered_as_it_was_submitted(
        self, tmp_path, capsys, monkeypatch
    ):
        """The ``submitted`` lines carry the flags' configuration, so
        ``recover`` resumes the job a clean ``submit`` would have run."""
        from repro.service import OcelotService

        flags = ["--application", "miranda", "--scale", "0.02", "--compressor", "sz3",
                 "--error-bound", "1e-4", "--size-scale", "5000", "--json"]
        clean, crashed = str(tmp_path / "clean.jsonl"), str(tmp_path / "crashed.jsonl")
        assert main(["submit", *flags, "--state", clean]) == 0
        expected = json.loads(capsys.readouterr().out)["jobs"]

        def crash(service):
            raise RuntimeError("killed mid-batch")

        with monkeypatch.context() as patch:
            patch.setattr(OcelotService, "run_pending", crash)
            with pytest.raises(RuntimeError):
                main(["submit", *flags, "--state", crashed])
        assert main(["jobs", "--state", crashed, "--json"]) == 0
        assert [job["status"] for job in json.loads(capsys.readouterr().out)["jobs"]] == [
            "pending"
        ]

        assert main(["recover", "--state", crashed, "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert [job["job_id"] for job in resumed["jobs"]] == ["job-0001"]
        assert resumed["jobs"][0]["report"] == expected[0]["report"]
        assert resumed["jobs"][0]["report"]["compressor"] == "sz3"
        assert main(["jobs", "--state", crashed, "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["jobs"]
        assert [job["status"] for job in listed] == ["completed"]
        # Nothing is left to resume, and nothing already finished re-runs.
        assert main(["recover", "--state", crashed, "--json"]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again == {"jobs": [], "finished": ["job-0001"], "unrecoverable": []}

    def test_jobs_filters_by_tenant_and_summarises_waits(self, tmp_path, capsys):
        state = tmp_path / "jobs.jsonl"
        assert self._submit(state, "--tenant", "physics", "--copies", "2") == 0
        assert self._submit(state, "--tenant", "climate") == 0
        capsys.readouterr()
        assert main(["jobs", "--state", str(state), "--tenant", "physics"]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "job-0002" in out and "job-0003" not in out
        assert "2 job(s): completed=2, p50 wait" in out and "p99 wait" in out
        assert "combined makespan" not in out  # a batch figure, not a tenant's
        assert main(["jobs", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "3 job(s): completed=3" in out and "combined makespan (last batch)" in out
        assert main(["jobs", "--state", str(state), "--tenant", "nobody"]) == 0
        assert "no jobs recorded" in capsys.readouterr().out

    def test_jobs_with_no_gateway_jobs_names_the_gateway(self, capsys, monkeypatch):
        """An empty gateway listing names the gateway it asked, not the local log."""
        routes = []

        def fetch(route):
            routes.append(route)
            return {"jobs": []}

        monkeypatch.setattr("repro.cli._fetch_gateway_json", fetch)
        assert main(["jobs", "--url", "http://gateway.test:8080/", "--tenant", "x"]) == 0
        out = capsys.readouterr().out
        assert routes == ["http://gateway.test:8080/v1/jobs?tenant=x"]
        assert "no jobs recorded in http://gateway.test:8080/ for tenant 'x'" in out
        assert ".ocelot-jobs.jsonl" not in out
