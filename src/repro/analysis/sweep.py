"""Parameter-sweep harness for policy sensitivity studies.

The ablation experiments (DESIGN.md §5) all share one shape: vary one
or two policy knobs over a grid, re-run the same seeded scenario, and
tabulate a few scalar outcomes against a baseline.  This module is that
shape, factored out:

* :func:`sweep` — run ``scenario(**params)`` over a parameter grid and
  collect named metrics (``workers=N`` shards the grid across a process
  pool via :mod:`repro.parallel`; output is bit-identical to serial);
* :class:`SweepResult` — the table, with baseline-relative savings and
  an ASCII rendering;
* :class:`CellFailure` / :exc:`SweepCellError` — how a failing cell is
  reported without (non-strict) or with (strict) killing the sweep;
* :class:`SweepStats` — how the sweep ran: wall clock, per-cell times,
  execution mode (and, for fallbacks, why).

The scenario callable owns all seeding; the harness adds none unless an
explicit ``base_seed`` is given, in which case each cell receives
``derive_seed(base_seed, cell_index)`` keyed on its *canonical grid
position* — never on worker count or completion order (sweeps must be
exactly reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "CellFailure",
    "CellQuarantine",
    "SweepCellError",
    "SweepResult",
    "SweepStats",
    "sweep",
]


@dataclass
class CellFailure:
    """One failed sweep cell: its grid position, params, and exception.

    In non-strict sweeps these accumulate on
    :attr:`SweepResult.failures` instead of killing the run; the
    remaining cells still execute.
    """

    index: int
    params: Dict[str, Any]
    error: BaseException
    traceback_text: str = ""

    def describe(self) -> str:
        kv = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return (f"cell #{self.index} ({kv}): "
                f"{type(self.error).__name__}: {self.error}")


#: quarantine statuses a cell can be retired with (DESIGN.md §5f)
QUARANTINE_STATUSES = ("timed_out", "killed", "failed")


@dataclass
class CellQuarantine:
    """One cell retired by the robustness harness rather than by its
    own Python-level exception.

    ``status`` is ``"timed_out"`` (the per-cell watchdog fired),
    ``"killed"`` (the worker running it died — SIGKILL, OOM — and the
    retry budget is spent), or ``"failed"`` (kept raising past the
    retry budget under a journaling run).  Quarantined cells are simply
    absent from ``rows``; they never abort the grid, even in strict
    mode, because they carry no scenario exception to re-raise.  A
    ``--resume`` run re-executes them.
    """

    index: int
    params: Dict[str, Any]
    status: str
    attempts: int = 1
    detail: str = ""

    def describe(self) -> str:
        kv = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        tail = f": {self.detail}" if self.detail else ""
        return (f"cell #{self.index} ({kv}) quarantined "
                f"[{self.status}] after {self.attempts} attempt(s){tail}")


class SweepCellError(RuntimeError):
    """A sweep cell failed in strict mode.

    Names the offending parameter assignment; the original exception is
    chained as ``__cause__`` and kept on :attr:`failure`.
    """

    def __init__(self, failure: CellFailure):
        super().__init__(f"sweep scenario failed at {failure.describe()}")
        self.failure = failure

    @property
    def params(self) -> Dict[str, Any]:
        return self.failure.params


@dataclass
class SweepStats:
    """Execution record of one sweep run.

    ``cell_times_s`` is ordered by canonical cell index over the cells
    this run actually executed (all of them, except replayed ones and
    after a strict abort).
    ``mode`` is ``"serial"``, ``"process-pool"``, or
    ``"serial-fallback"`` (with ``fallback_reason`` saying why the pool
    was not used).  Wall clock includes pool startup — speedup claims
    must pay for their own overhead.
    """

    n_cells: int
    #: batches submitted to the execution loop, retried attempts
    #: included (one batch holds as many cells as fit in its 50 ms
    #: budget at the measured cell time)
    n_chunks: int
    workers: int
    mode: str
    wall_s: float
    cell_times_s: List[float] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    #: cells whose results were replayed from a journal (``--resume``)
    n_replayed: int = 0
    #: cells actually evaluated by this invocation
    n_executed: int = 0
    #: extra attempts spent on retried cells (0 on a clean run)
    n_retried: int = 0
    #: journal file backing this run, if any
    journal_path: Optional[str] = None

    @property
    def cell_time_total_s(self) -> float:
        """Sum of per-cell compute time (serial-equivalent work)."""
        return sum(self.cell_times_s)

    @property
    def effective_parallelism(self) -> float:
        """Aggregate cell time / wall time — 1.0 means no overlap."""
        if self.wall_s <= 0:
            return 1.0
        return self.cell_time_total_s / self.wall_s


@dataclass
class SweepResult:
    """Outcome table of one parameter sweep.

    ``rows`` holds the successful cells in canonical grid order;
    ``failures`` the failed ones (non-strict mode only — strict sweeps
    raise instead); ``quarantined`` the cells the robustness harness
    retired (watchdog timeout, worker death) instead of aborting the
    grid — present in any mode, re-executed by a ``--resume`` run.
    Table semantics (``column``/``best``/``relative_to``/``render``)
    are over ``rows`` alone.
    """

    param_names: List[str]
    metric_names: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)
    quarantined: List[CellQuarantine] = field(default_factory=list)
    stats: Optional[SweepStats] = None

    def column(self, name: str) -> List[Any]:
        """All values of one parameter or metric, in row order."""
        known = (self.rows[0].keys() if self.rows
                 else set(self.param_names) | set(self.metric_names))
        if name not in known:
            raise KeyError(
                f"unknown column {name!r}; have {sorted(known)}")
        return [r[name] for r in self.rows]

    def best(self, metric: str, minimize: bool = True) -> Dict[str, Any]:
        """The row optimizing ``metric``."""
        if not self.rows:
            raise ValueError("empty sweep")
        key = (min if minimize else max)
        return key(self.rows, key=lambda r: r[metric])

    def relative_to(self, metric: str,
                    baseline: float) -> List[float]:
        """(baseline - value) / baseline per row — positive saves."""
        if baseline <= 0:
            raise ValueError("baseline must be positive")
        return [(baseline - r[metric]) / baseline for r in self.rows]

    def render(self, floatfmt: str = "{:.2f}") -> str:
        """Aligned text table of the sweep."""
        cols = self.param_names + self.metric_names
        widths = {c: max(len(c), 10) for c in cols}
        lines = [" ".join(f"{c:>{widths[c]}s}" for c in cols)]
        for r in self.rows:
            cells = []
            for c in cols:
                v = r[c]
                s = floatfmt.format(v) if isinstance(v, float) else str(v)
                cells.append(f"{s:>{widths[c]}s}")
            lines.append(" ".join(cells))
        return "\n".join(lines)


def sweep(scenario: Callable[..., Mapping[str, float]],
          grid: Mapping[str, Sequence[Any]],
          metric_names: Optional[Sequence[str]] = None,
          *,
          workers: Optional[int] = 1,
          strict: bool = True,
          base_seed: Optional[int] = None,
          seed_param: str = "seed",
          journal_path: Optional[str] = None,
          resume: bool = False,
          cell_timeout_s: Optional[float] = None,
          retries: int = 0,
          chaos: Optional[Any] = None) -> SweepResult:
    """Run ``scenario`` over the Cartesian product of ``grid``.

    ``scenario(**params)`` must return a mapping of metric name ->
    value; metric names are taken from the first row unless given.
    Parameter order in the result follows the grid's key order.

    ``workers=1`` (the default) runs serially in-process; ``workers=N``
    shards the grid across a process pool, and ``workers=None`` or
    ``0`` sizes the pool to the machine.  Parallel rows are
    bit-identical to serial rows — see :mod:`repro.parallel` for the
    determinism contract and the remaining keyword arguments.

    With :mod:`repro.obs` tracing enabled, every cell is wrapped in a
    ``sweep.cell`` span — pool workers ship their spans back with each
    outcome, so the whole sweep renders as one merged timeline
    (``repro obs trace``).  Tracing never changes the rows.

    The robustness keywords (``journal_path``/``resume``/
    ``cell_timeout_s``/``retries``/``chaos``) are options of the one
    execution loop, :mod:`repro.chaos.runner`: an fsync'd JSONL
    journal of cell outcomes, resume-from-journal with identical
    per-cell seeds, a per-cell watchdog, bounded retry with a
    quarantine list on ``result.quarantined``, and deterministic fault
    injection.  A resumed run merges bit-identical to an uninterrupted
    one.  A worker death quarantines the cell it killed even with none
    of them set.  ``strict`` covers scenario exceptions only: a
    quarantined cell carries none to raise, so even a strict run can
    return without some rows — check ``result.quarantined``.
    """
    from repro.parallel.executor import run_sweep
    return run_sweep(scenario, grid, metric_names,
                     workers=workers,
                     strict=strict, base_seed=base_seed,
                     seed_param=seed_param,
                     journal_path=journal_path, resume=resume,
                     cell_timeout_s=cell_timeout_s, retries=retries,
                     chaos=chaos)
