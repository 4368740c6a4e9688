"""Crash-safe JSONL cell-outcome journal for sweeps.

A long ablation grid (the E8/E19 benches, a Carbon500-scale sweep) can
die halfway to a SIGKILLed worker, an OOM kill, or a power cut — the
same failure modes the paper's §3.3 checkpoint/restart discussion
assumes for long-lived HPC jobs.  The journal is the sweep's
checkpoint: one fsync'd JSON line per *completed* cell (index, params
hash, metrics, timing, attempt, captured spans), written the moment
the parent observes the outcome, so a later ``--resume`` run can
replay every journaled cell and re-execute only the missing or failed
ones.  Because per-cell seeds are a pure function of grid position
(:func:`repro.parallel.seeds.derive_seed`), the merged result is
bit-identical to an uninterrupted run.

Record kinds:

* ``header`` — the run fingerprint (cell count, grid hash, base seed,
  scenario name).  Resume refuses a journal whose fingerprint does not
  match the requested sweep: replaying cells of a *different* grid
  must be impossible.
* ``cell`` — one finished attempt: ``status`` ``"ok"`` (with metrics)
  or ``"failed"`` (with error text + worker traceback).
* ``quarantine`` — a cell the harness retired (``timed_out`` /
  ``killed`` / ``failed``); informational — resume re-executes it.

Durability: every append is flushed and ``os.fsync``'d before the
harness moves on, so a journal never claims a cell the disk has not
seen (the classic write-ahead rule).  Floats survive the JSON round
trip exactly (``json`` serializes via ``repr``), which is what makes
"bit-identical after resume" an honest claim.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "JournalError",
    "SweepJournal",
    "grid_hash",
    "params_hash",
]

#: journal format version (bump on incompatible record changes)
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """A journal cannot be used: corrupt line, fingerprint mismatch."""


def _stable_hash(obj: Any) -> str:
    """Short content hash of a value's canonical ``repr``."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


def params_hash(params: Mapping[str, Any]) -> str:
    """Order-independent fingerprint of one cell's call parameters."""
    return _stable_hash(tuple(sorted(params.items())))


def grid_hash(names: Sequence[str],
              cells: Sequence[Mapping[str, Any]]) -> str:
    """Fingerprint of a whole expanded grid (names + every cell)."""
    return _stable_hash((tuple(names),
                         tuple(params_hash(c) for c in cells)))


def make_header(n_cells: int,
                grid_fingerprint: str,
                scenario: Any,
                base_seed: Optional[int],
                seed_param: str) -> Dict[str, Any]:
    """The run fingerprint written as the journal's first record."""
    name = (f"{getattr(scenario, '__module__', '?')}."
            f"{getattr(scenario, '__qualname__', repr(scenario))}")
    return {
        "kind": "header",
        "version": JOURNAL_VERSION,
        "n_cells": int(n_cells),
        "grid_hash": grid_fingerprint,
        "scenario": name,
        "base_seed": base_seed,
        "seed_param": seed_param,
    }


#: header fields that must match for a resume to be legal
_FINGERPRINT_FIELDS = ("version", "n_cells", "grid_hash", "scenario",
                       "base_seed", "seed_param")


def _drop_torn_tail(path: Path) -> None:
    """Mend an unterminated final line before appending to a journal.

    :meth:`SweepJournal.read` skips a torn *final* line, but the next
    append would glue a new record onto it, turning the tail into a
    corrupt middle line that every later resume refuses.  The mend
    agrees with the reader on what is torn: a tail that does not parse
    is cut; one that parses was replayed, so it keeps its record and
    only gains the newline it lost.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        start = data.rfind(b"\n") + 1
        if start == len(data):
            return
        try:
            json.loads(data[start:])
        except ValueError:
            fh.truncate(start)
        else:
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


class SweepJournal:
    """Append-only JSONL journal of one sweep's cell outcomes.

    Open with :meth:`for_run` (validates or writes the header, returns
    the replayable records when resuming) and append through
    :meth:`record_cell` / :meth:`record_quarantine`.  The file handle
    is kept open in append mode for the life of the run; every record
    is flushed and fsync'd before the call returns.
    """

    def __init__(self, path: Path, header: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.header = header
        self._fh = None  # lazily opened on first append

    # -- construction --------------------------------------------------------

    @classmethod
    def for_run(cls, path, header: Dict[str, Any],
                resume: bool = False,
                ) -> Tuple["SweepJournal", Dict[int, Dict[str, Any]]]:
        """Open a journal for a run; return ``(journal, replayable)``.

        ``replayable`` maps cell index -> the latest ``status == "ok"``
        cell record — non-empty only when ``resume`` is true and a
        matching journal already exists.  Without ``resume`` an
        existing file is truncated (a fresh run owns its journal).
        """
        path = Path(path)
        replay: Dict[int, Dict[str, Any]] = {}
        if resume and path.exists() and path.stat().st_size > 0:
            old_header, records = cls.read(path)
            mismatched = [f for f in _FINGERPRINT_FIELDS
                          if old_header.get(f) != header.get(f)]
            if mismatched:
                raise JournalError(
                    f"journal {path} was written by a different run "
                    f"(mismatched: {', '.join(mismatched)}); refusing "
                    "to resume — delete it or point --journal elsewhere")
            for rec in records:
                if rec.get("kind") == "cell" and rec.get("status") == "ok":
                    replay[int(rec["index"])] = rec
            _drop_torn_tail(path)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, header), replay

    @classmethod
    def read(cls, path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Parse a journal into ``(header, records)``.

        A torn final line (the process died mid-write) is ignored —
        that cell simply re-executes; any other malformed content is a
        :class:`JournalError`.
        """
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as e:
            raise JournalError(f"cannot read journal {path}: {e}") from e
        if not lines:
            raise JournalError(f"journal {path} is empty")
        records: List[Dict[str, Any]] = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:
                if lineno == len(lines):  # torn tail: crash mid-append
                    break
                raise JournalError(
                    f"journal {path} line {lineno} is corrupt: {e}"
                ) from e
            records.append(rec)
        if not records or records[0].get("kind") != "header":
            raise JournalError(
                f"journal {path} does not start with a header record")
        return records[0], records[1:]

    # -- appending -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True, default=repr)
                       + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_cell(self, index: int, params: Mapping[str, Any],
                    status: str,
                    metrics: Optional[Mapping[str, float]] = None,
                    elapsed_s: float = 0.0,
                    attempt: int = 1,
                    error: str = "",
                    traceback_text: str = "",
                    spans: Sequence[Mapping[str, Any]] = ()) -> None:
        """Journal one finished attempt (``ok`` or ``failed``)."""
        rec: Dict[str, Any] = {
            "kind": "cell",
            "index": int(index),
            "params_hash": params_hash(params),
            "status": status,
            "elapsed_s": float(elapsed_s),
            "attempt": int(attempt),
        }
        if status == "ok":
            rec["metrics"] = dict(metrics or {})
        else:
            rec["error"] = error
            rec["traceback"] = traceback_text
        if spans:
            rec["spans"] = [dict(s) for s in spans]
        self._append(rec)

    def record_quarantine(self, index: int, params: Mapping[str, Any],
                          status: str, attempts: int,
                          detail: str = "") -> None:
        """Journal a harness-level retirement of one cell."""
        self._append({
            "kind": "quarantine",
            "index": int(index),
            "params_hash": params_hash(params),
            "status": status,
            "attempts": int(attempts),
            "detail": detail,
        })

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
