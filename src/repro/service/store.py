"""Durable job store: a JSONL write-ahead log.

The one persistence format for jobs — a service with a store attached
writes it, :meth:`~repro.service.api.OcelotService.recover` resumes from
it, and ``ocelot submit`` / ``jobs`` / ``status`` keep their records in
it:

* every state change is *appended* as one JSON line and flushed to
  disk, so the log is only ever extended — a crash can at worst leave a
  torn final line, which :meth:`load` detects and ignores;
* :meth:`replay` folds the log into the latest per-job state, in
  submission order, which is what
  :meth:`~repro.service.api.OcelotService.recover` consumes to resume
  or re-queue jobs after a crash.

Record shapes (the ``kind`` field discriminates):

* ``{"kind": "submitted", "job_id": ..., "submitted_at": ..., "spec":
  {...}, "dataset_recipe": {...}|null}`` — appended before a job is
  enqueued; ``dataset_recipe`` is the generator recipe that can rebuild
  the dataset byte-identically (synthetic datasets carry one).
* ``{"kind": "terminal", "job_id": ..., "status": ..., "finished_at":
  ..., "report": {...}|null, "error": ...|null}`` — appended exactly
  when the scheduler retires the job, which is what makes re-billing a
  finished job impossible across a crash.
* ``{"kind": "record", "job_id": ..., **JobHandle.as_dict()}`` — what
  the write-ahead lines cannot say (event feed, timeline, wait,
  makespan), appended by ``ocelot submit`` once its batch has drained;
  :meth:`replay` folds it over the job's state.
* ``{"kind": "batch", "combined_makespan_s": ...}`` — one per drained
  ``ocelot submit``; it names no job, so :meth:`replay` skips it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

__all__ = ["JobStore"]


class JobStore:
    """Append-only JSONL job log with crash-tolerant reads."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def exists(self) -> bool:
        """Whether the log file is present on disk."""
        return os.path.exists(self.path)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def append(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line and flush it to disk."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with open(self.path, "a+b") as handle:
            # A crash can leave a torn last line: start a fresh one, or
            # this record would be glued to the fragment and lost with it.
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = "\n" + line
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())

    def record_submitted(
        self,
        job_id: str,
        submitted_at: float,
        spec: Dict[str, Any],
        dataset_recipe: Optional[Dict[str, Any]] = None,
    ) -> None:
        """WAL entry for a newly enqueued job."""
        self.append(
            {
                "kind": "submitted",
                "job_id": job_id,
                "submitted_at": submitted_at,
                "spec": spec,
                "dataset_recipe": dataset_recipe,
            }
        )

    def record_terminal(
        self,
        job_id: str,
        status: str,
        finished_at: Optional[float],
        report: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """WAL entry for a job reaching a terminal state."""
        self.append(
            {
                "kind": "terminal",
                "job_id": job_id,
                "status": status,
                "finished_at": finished_at,
                "report": report,
                "error": error,
            }
        )

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def load(self) -> List[Dict[str, Any]]:
        """All intact records, in append order.

        A torn or corrupt line (the signature of a crash mid-append) is
        skipped rather than failing the whole log.
        """
        if not self.exists():
            return []
        records: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "kind" in record:
                    records.append(record)
        return records

    def replay(
        self, records: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Fold the log into the latest state of each job.

        ``records`` is the result of a :meth:`load` the caller already
        made, folded instead of reading the log a second time.

        Returns ``{job_id: state}`` in first-submission order, where each
        state carries the submit-time facts (``spec``,
        ``dataset_recipe``, ``submitted_at``) plus the latest ``status``
        (``pending`` when no terminal record followed the submission)
        and, for finished jobs, the terminal ``report`` / ``error`` —
        with a ``record`` line's fields (events, timeline, wait,
        makespan, the flat spec) laid over them where one was written.
        """
        states: Dict[str, Dict[str, Any]] = {}
        for record in self.load() if records is None else records:
            job_id = record.get("job_id")
            if not job_id:
                continue
            kind = record.get("kind")
            if kind == "submitted":
                # A re-submission after recovery supersedes every field
                # of a previous life (the key keeps its place in order).
                states[job_id] = {
                    "job_id": job_id,
                    "status": "pending",
                    "submitted_at": record.get("submitted_at", 0.0),
                    "spec": record.get("spec") or {},
                    "dataset_recipe": record.get("dataset_recipe"),
                }
            elif kind == "terminal":
                state = states.setdefault(job_id, {"job_id": job_id})
                state["status"] = record.get("status", "failed")
                state["finished_at"] = record.get("finished_at")
                if record.get("report") is not None:
                    state["report"] = record["report"]
                if record.get("error") is not None:
                    state["error"] = record["error"]
            elif kind == "record":
                state = states.setdefault(job_id, {"job_id": job_id})
                state.update((k, v) for k, v in record.items() if k != "kind")
        return states

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Delete the log file (no-op when absent)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
