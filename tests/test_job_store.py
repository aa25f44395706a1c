"""Tests for the durable job store (JSONL write-ahead log).

The store's contract is crash tolerance: appends are flushed line by
line so a crash can at worst tear the final line, and ``load``/``replay``
skip torn records instead of failing.
"""

from __future__ import annotations

import pytest

from repro.service import JobStore


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

    def test_resubmission_supersedes_a_stale_record(self, store):
        self._drained_batch(store)
        _submit(store, "job-0001", submitted_at=20.0)
        state = store.replay()["job-0001"]
        assert state["status"] == "pending"
        assert "events" not in state and "makespan_s" not in state

    def test_append_after_a_torn_tail_starts_a_fresh_line(self, store):
        _submit(store, "job-0001")
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "terminal", "job_id": "job-0001", "sta')
        _submit(store, "job-0002")  # would be glued to the fragment and lost
        assert list(store.replay()) == ["job-0001", "job-0002"]
        with open(store.path, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 3


class TestClear:
    def test_clear_removes_log(self, store):
        _submit(store, "job-0001")
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent

