"""Tests for the durable job store (JSONL write-ahead log).

The store's contract is crash tolerance: appends are flushed line by
line so a crash can at worst tear the final line, ``load``/``replay``
skip torn records instead of failing, and ``compact`` rewrites the
folded state atomically so a crash mid-compaction leaves the original
log intact.
"""

from __future__ import annotations

import os

import pytest

from repro.service import JobStore, atomic_write_text


@pytest.fixture()
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.wal"))


def _submit(store, job_id, **extra):
    store.record_submitted(
        job_id,
        submitted_at=extra.pop("submitted_at", 0.0),
        spec={"source": "anvil", "destination": "cori", **extra},
        dataset_recipe={"application": "miranda", "snapshots": 1},
    )


class TestAppendAndLoad:
    def test_round_trip_in_append_order(self, store):
        _submit(store, "job-0001")
        store.record_terminal("job-0001", "completed", 12.5,
                              report={"compression_ratio": 3.0})
        _submit(store, "job-0002", submitted_at=1.0)
        records = store.load()
        assert [r["kind"] for r in records] == ["submitted", "terminal", "submitted"]
        assert records[1]["report"] == {"compression_ratio": 3.0}

    def test_missing_file_loads_empty(self, store):
        assert not store.exists()
        assert store.load() == []
        assert store.replay() == {}

    def test_torn_tail_is_skipped(self, store):
        _submit(store, "job-0001")
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "terminal", "job_id": "job-0001", "sta')
        records = store.load()
        assert len(records) == 1 and records[0]["kind"] == "submitted"
        assert store.replay()["job-0001"]["status"] == "pending"

    def test_corrupt_middle_line_is_skipped(self, store):
        _submit(store, "job-0001")
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        store.record_terminal("job-0001", "failed", 3.0, error="boom")
        states = store.replay()
        assert states["job-0001"]["status"] == "failed"
        assert states["job-0001"]["error"] == "boom"


class TestReplay:
    def test_folds_to_latest_state(self, store):
        _submit(store, "job-0001")
        _submit(store, "job-0002", submitted_at=2.0)
        store.record_terminal("job-0002", "completed", 9.0, report={"ok": True})
        states = store.replay()
        assert list(states) == ["job-0001", "job-0002"]  # submission order
        assert states["job-0001"]["status"] == "pending"
        assert states["job-0002"]["status"] == "completed"
        assert states["job-0002"]["report"] == {"ok": True}

    def test_resubmission_supersedes_stale_terminal(self, store):
        _submit(store, "job-0001")
        store.record_terminal("job-0001", "failed", 4.0, error="crash")
        _submit(store, "job-0001", submitted_at=10.0)
        state = store.replay()["job-0001"]
        assert state["status"] == "pending"
        assert "error" not in state and "finished_at" not in state


class TestRecordLines:
    """``record`` / ``batch`` lines: what ``ocelot submit`` appends once a
    batch has drained, beside the service's own write-ahead lines."""

    RECORD = {
        "kind": "record", "job_id": "job-0001", "status": "completed",
        "submitted_at": 0.0, "finished_at": 12.5, "makespan_s": 12.5, "wait_s": 0.5,
        "source": "anvil", "destination": "cori", "tenant": "acme",
        "report": {"compression_ratio": 3.0},
        "events": [{"seq": 1, "kind": "submitted", "time_s": 0.0},
                   {"seq": 2, "kind": "completed", "time_s": 12.5}],
        "timeline": [],
    }
    BATCH = {"kind": "batch", "combined_makespan_s": 12.5}

    def _drained_batch(self, store):
        _submit(store, "job-0001", tenant="acme")
        store.record_terminal("job-0001", "completed", 12.5,
                              report={"compression_ratio": 3.0})
        store.append(self.RECORD)
        store.append(self.BATCH)

    def test_replay_folds_a_record_line_over_the_wal_state(self, store):
        self._drained_batch(store)
        states = store.replay()
        assert list(states) == ["job-0001"]  # the batch line names no job
        state = states["job-0001"]
        # What only the record line knows ...
        assert [event["kind"] for event in state["events"]] == ["submitted", "completed"]
        assert (state["makespan_s"], state["wait_s"]) == (12.5, 0.5)
        # ... laid over what the write-ahead lines said, none of it lost.
        assert state["status"] == "completed" and state["finished_at"] == 12.5
        assert state["spec"]["tenant"] == "acme"
        assert state["dataset_recipe"] == {"application": "miranda", "snapshots": 1}
        assert "kind" not in state

    def test_compact_keeps_record_and_batch_lines_verbatim(self, store):
        self._drained_batch(store)
        store.append({"kind": "batch", "combined_makespan_s": 99.0})  # a later batch
        _submit(store, "job-0002", submitted_at=3.0)
        with open(store.path, encoding="utf-8") as handle:
            lines_before = handle.read().splitlines()
        before = store.replay()
        assert store.compact() == 2
        assert [r["kind"] for r in store.load()] == [
            "submitted", "terminal", "record", "submitted", "batch",
        ]
        assert store.load()[-1]["combined_makespan_s"] == 99.0  # the last one
        with open(store.path, encoding="utf-8") as handle:
            assert set(handle.read().splitlines()) <= set(lines_before)
        assert store.replay() == before

    def test_resubmission_supersedes_a_stale_record(self, store):
        self._drained_batch(store)
        _submit(store, "job-0001", submitted_at=20.0)
        state = store.replay()["job-0001"]
        assert state["status"] == "pending"
        assert "events" not in state and "makespan_s" not in state
        store.compact()
        assert [r["kind"] for r in store.load()] == ["submitted", "batch"]

    def test_append_after_a_torn_tail_starts_a_fresh_line(self, store):
        _submit(store, "job-0001")
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "terminal", "job_id": "job-0001", "sta')
        _submit(store, "job-0002")  # would be glued to the fragment and lost
        assert list(store.replay()) == ["job-0001", "job-0002"]
        with open(store.path, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 3


class TestCompaction:
    def test_compact_folds_to_one_pair_per_job(self, store):
        for _ in range(3):  # repeated lives of the same job
            _submit(store, "job-0001")
            store.record_terminal("job-0001", "failed", 1.0, error="retry")
        _submit(store, "job-0001")
        store.record_terminal("job-0001", "completed", 8.0, report={"ok": 1})
        _submit(store, "job-0002", submitted_at=3.0)
        before = store.replay()
        assert store.compact() == 2
        records = store.load()
        # One submitted per job plus one terminal for the finished one.
        assert [r["kind"] for r in records] == ["submitted", "terminal", "submitted"]
        assert store.replay() == before

    def test_compact_leaves_no_temp_files(self, store, tmp_path):
        _submit(store, "job-0001")
        store.compact()
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_clear_removes_log(self, store):
        _submit(store, "job-0001")
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent


class TestAtomicWrites:
    def test_atomic_write_text_replaces_content(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_atomic_write_creates_parent_directory(self, tmp_path):
        target = tmp_path / "nested" / "deep" / "state.json"
        atomic_write_text(str(target), "ok")
        assert target.read_text() == "ok"

    def test_failed_write_preserves_original(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_text(str(target), "original")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(target), "lone surrogate \udc80")
        assert target.read_text() == "original"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
