"""The sweep execution loop: batched, serial or pool, crash-safe.

Every sweep ``run_sweep`` starts — plain or robust, one worker or
many — executes here, in :func:`execute_robust`.  Journal, resume,
retries, the watchdog and a chaos plan are options of this one loop,
not a second path, so a robust sweep cannot drift from a plain one.
The determinism contract: cells are keyed on canonical grid index,
seeds are ``derive_seed(base_seed, cell_index)``, and results merge in
grid order, so a journaled-and-resumed or fault-ridden-and-retried
sweep produces rows bit-identical to an uninterrupted serial run.

How it executes:

* **Batches sized from measured cell time.**  A batch holds as many
  cells as fit in one watchdog poll period (``_MAX_POLL_S``), judged
  by the mean time of the last finished batch's successful cells; it
  holds one cell until the first timing arrives.  The prediction only
  sizes the batch: a batch whose cells have run past the budget stops
  and hands its unrun tail back to the head of the queue, so a cell
  slower than the budget never shares a batch with a cell after it,
  and long-cell sweeps keep per-cell durability and blast radius even
  when cheap cells come first (``SweepStats.n_chunks`` counts the
  batches submitted).  At most ``2 x workers`` batches are in flight,
  so each ``wait()`` costs O(workers), not O(cells).
* **Journal-as-checkpoint.**  Each finished attempt is fsync'd to the
  JSONL journal *before* the loop moves on; a resumed run replays
  ``ok`` records and re-executes only missing/failed/quarantined
  cells.
* **Start/finish evidence.**  Workers record every cell attempt's
  state in one shared array (``attempt * 4 + phase``): started but not
  finished is the one state that means "mid-execution".
* **Watchdog.**  With ``cell_timeout_s`` set, a cell's clock starts
  when its state shows it running; the longest-overdue cell is
  quarantined ``timed_out``, the pool's workers are killed and the
  pool respawned; batches that already finished keep their results,
  every other cell requeues without being charged an attempt.
* **Worker-death recovery.**  A ``BrokenProcessPool`` (SIGKILL, OOM)
  charges an attempt to every cell that was mid-execution when the
  pool died; charged cells retry while budget remains, then
  quarantine ``killed``.  Queued cells and finished batch-mates whose
  results went down with the pool requeue free (cells are
  deterministic, so recomputing a lost result is bit-identical).
* **Accounting.**  Retries, quarantines, worker deaths, and every
  injected/recovered chaos fault land in the :mod:`repro.obs`
  registry and (when tracing) as ``chaos.*`` spans.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.sharedctypes import RawArray
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.analysis.sweep import (
    CellFailure,
    CellQuarantine,
    SweepResult,
    SweepStats,
)
from repro.chaos.journal import (
    JournalError,
    SweepJournal,
    grid_hash,
    make_header,
    params_hash,
)

if TYPE_CHECKING:  # plan imports repro.parallel, which imports this
    from repro.chaos.plan import ChaosPlan

__all__ = ["execute_robust"]

#: watchdog poll period ceiling, and the work budget of one batch
_MAX_POLL_S = 0.05
#: poll period as a fraction of the cell timeout (poll often enough to
#: catch a hang promptly, never so often that polling itself costs)
_POLL_TIMEOUT_FRACTION = 0.25

#: (cell_index, elapsed_s, metrics | None, error | None, traceback_text,
#:  span_dicts) — spans recorded around the cell (pool workers only;
#:  empty serially, where spans land on the live tracer directly)
_Outcome = Tuple[int, float, Optional[Dict[str, Any]],
                 Optional[BaseException], str, List[dict]]
#: one cell attempt: (cell_index, attempt)
_Attempt = Tuple[int, int]

#: how cells participate in tracing: "off" (the zero-overhead default),
#: "inline" (serial: spans go straight to the enabled process tracer),
#: or "capture" (pool worker: spans are drained after every cell and
#: shipped back inside the outcome tuple)
_TRACE_OFF, _TRACE_INLINE, _TRACE_CAPTURE = "off", "inline", "capture"

#: cell phases in the shared state array, stored as attempt * 4 + phase
_STARTED, _FINISHED = 1, 2


def _portable_error(error: BaseException,
                    tb_text: str = "") -> BaseException:
    """The exception itself if it survives pickling, else a stand-in.

    Worker exceptions cross a process boundary; an unpicklable one
    (e.g. carrying an open handle) must not take the whole sweep down
    with a ``PicklingError``, so it degrades to a ``RuntimeError``
    carrying the original type name and message — plus, when
    ``tb_text`` is given, the worker-side traceback as a ``__notes__``
    entry (notes live in the instance dict, so they pickle with the
    stand-in and ``CellFailure`` diagnostics keep the real stack
    instead of a bare repr).
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        stand_in = RuntimeError(f"{type(error).__name__}: {error}")
        if tb_text:
            stand_in.add_note(
                "original worker traceback:\n" + tb_text.rstrip())
        return stand_in


def _run_cells(batch: Sequence[_Attempt],
               scenario: Callable[..., Mapping[str, float]],
               params: Sequence[Dict[str, Any]],
               tracing: str,
               chaos: Optional["ChaosPlan"],
               states: Optional[Any] = None) -> List[_Outcome]:
    """Evaluate one batch of cell attempts in order.

    The batch stops early once its cells have run longer than
    ``_MAX_POLL_S``: the budget is enforced by measurement, so a batch
    sized from cheap cells that reaches expensive ones returns after
    the first of them, and the outcomes cover a prefix of ``batch``.
    The plan's cell-level faults fire here, on the worker side of the
    process boundary, before the scenario runs — a ``raise`` fault is
    indistinguishable from a scenario exception, a ``kill_worker``
    fault from a real node loss.  ``states`` (pool workers only) gets
    each attempt's start and finish, written before the fault fires
    and after the outcome is built.
    """
    tracer = obs.get_tracer()
    out: List[_Outcome] = []
    batch_t0 = time.perf_counter()
    for index, attempt in batch:
        t0 = time.perf_counter()
        if out and t0 - batch_t0 > _MAX_POLL_S:
            break  # budget spent: the caller requeues the rest
        if states is not None:
            states[index] = attempt * 4 + _STARTED
        metrics: Optional[Dict[str, Any]] = None
        error: Optional[BaseException] = None
        tb_text = ""
        try:
            if chaos is not None:
                chaos.apply_in_worker(index, attempt)
            if tracing == _TRACE_OFF:
                metrics = dict(scenario(**params[index]))
            else:
                with obs.span("sweep.cell", attrs={"cell_index": index}):
                    metrics = dict(scenario(**params[index]))
        except Exception as exc:  # cell fault, not harness fault
            tb_text = traceback.format_exc()
            error = _portable_error(exc, tb_text)
        elapsed_s = time.perf_counter() - t0
        spans = ([s.to_dict() for s in tracer.drain()]
                 if tracing == _TRACE_CAPTURE else [])
        out.append((index, elapsed_s, metrics, error, tb_text, spans))
        if states is not None:
            states[index] = attempt * 4 + _FINISHED
    return out


#: a pool worker's share of the run, installed once per worker process
#: by :func:`_init_worker` (the shared state array can travel only with
#: process creation, never with a task)
_WORKER: Dict[str, Any] = {}


def _init_worker(states: Any,
                 scenario: Callable[..., Mapping[str, float]],
                 params: Sequence[Dict[str, Any]],
                 tracing: str,
                 chaos: Optional["ChaosPlan"]) -> None:
    """Pool initializer; with tracing it enables the worker's tracer
    and drops the spans fork copied from the parent's buffer."""
    _WORKER.update(states=states, scenario=scenario, params=params,
                   tracing=tracing, chaos=chaos)
    if tracing == _TRACE_CAPTURE:
        tracer = obs.get_tracer()
        tracer.enable()
        tracer.worker = f"worker-{os.getpid()}"
        tracer.drain()


def _run_batch(batch: Sequence[_Attempt]) -> List[_Outcome]:
    """Pool task: one batch (module-level, pickled by reference)."""
    return _run_cells(batch, **_WORKER)


class _RunState:
    """Bookkeeping of one sweep run, shared by the pool and serial
    loops: the pending queue, outcomes, quarantine, and accounting."""

    def __init__(self, scenario: Callable[..., Mapping[str, float]],
                 cells: Sequence[Dict[str, Any]],
                 params: Sequence[Dict[str, Any]],
                 tracing: str,
                 retries: int,
                 chaos: Optional["ChaosPlan"],
                 journal: Optional[SweepJournal]) -> None:
        self.scenario = scenario
        self.cells = cells
        self.params = params
        self.tracing = tracing
        self.retries = retries
        self.chaos = chaos
        self.journal = journal
        self.pending: "deque[_Attempt]" = deque()
        self.outcomes: Dict[int, _Outcome] = {}
        self.quarantine: Dict[int, CellQuarantine] = {}
        #: chaos fault kinds already fired per cell (for recovery stats)
        self.fired_kinds: Dict[int, List[str]] = {}
        #: (cell, attempt) pairs whose injections are already counted
        self.injections_noted: Set[_Attempt] = set()
        self.executed: Set[int] = set()
        self.n_retried = 0
        self.n_failed = 0
        self.n_batches = 0
        #: mean time of the successful cells of the last batch that had
        #: any (None: no timing yet)
        self.cell_time_s: Optional[float] = None
        self.reg = obs.metrics()

    # -- batching ------------------------------------------------------------

    def take_batch(self) -> List[_Attempt]:
        """Pop the next batch: as many cells as fit in ``_MAX_POLL_S``
        at the last measured cell time, one before any timing."""
        size = 1
        if self.cell_time_s is not None:
            size = (len(self.pending) if self.cell_time_s <= 0
                    else max(1, int(_MAX_POLL_S / self.cell_time_s)))
        batch = [self.pending.popleft()
                 for _ in range(min(size, len(self.pending)))]
        for index, attempt in batch:
            self.note_injections(index, attempt)
            self.executed.add(index)
        self.n_batches += 1
        return batch

    def requeue(self, attempts: Sequence[_Attempt]) -> None:
        """Put attempts back at the head of the queue, in order."""
        self.pending.extendleft(reversed(attempts))

    # -- accounting ----------------------------------------------------------

    def note_injections(self, index: int, attempt: int) -> None:
        """Count the chaos faults that will fire on this attempt.

        Keyed on (cell, attempt): an attempt resubmitted after a free
        requeue (watchdog innocent, broken-pool bystander, failed
        submit) fires the same deterministic faults but must not
        re-count them or duplicate their ``chaos.inject`` spans.
        """
        if self.chaos is None or (index, attempt) in self.injections_noted:
            return
        self.injections_noted.add((index, attempt))
        for f in self.chaos.cell_faults(index, attempt):
            self.fired_kinds.setdefault(index, []).append(f.kind)
            self.reg.counter("chaos.faults_injected_total",
                             labels={"kind": f.kind}).inc()
            with obs.span("chaos.inject",
                          attrs={"kind": f.kind, "cell_index": index,
                                 "attempt": attempt}):
                pass

    def note_recovery(self, index: int, attempt: int) -> None:
        """A previously-troubled cell completed: count the recovery."""
        for kind in sorted(set(self.fired_kinds.get(index, ()))):
            self.reg.counter("chaos.faults_recovered_total",
                             labels={"kind": kind}).inc()
        if attempt > 1:
            self.reg.counter("sweep.cells_recovered_total").inc()

    def charge_retry(self, attempt: int) -> bool:
        """Charge a retry if budget remains; False when exhausted."""
        if attempt >= self.retries + 1:
            return False
        self.n_retried += 1
        self.reg.counter("sweep.cells_retried_total").inc()
        return True

    # -- outcome handling ----------------------------------------------------

    def settle(self, batch: Sequence[_Attempt],
               outcomes: Sequence[_Outcome]) -> None:
        """Record a finished batch; failed cells with budget left
        requeue at the head of the queue for their next attempt,
        followed by the cells a budget-cut batch never ran (free: same
        attempt)."""
        retry: List[_Attempt] = []
        ok_times_s: List[float] = []
        for (index, attempt), outcome in zip(batch, outcomes):
            _i, elapsed_s, metrics, error, tb_text, spans = outcome
            if error is None:
                if self.journal is not None:
                    self.journal.record_cell(
                        index, self.params[index], "ok", metrics=metrics,
                        elapsed_s=elapsed_s, attempt=attempt, spans=spans)
                self.outcomes[index] = outcome
                self.note_recovery(index, attempt)
                ok_times_s.append(elapsed_s)
                continue
            if self.journal is not None:
                self.journal.record_cell(
                    index, self.params[index], "failed",
                    elapsed_s=elapsed_s, attempt=attempt,
                    error=f"{type(error).__name__}: {error}",
                    traceback_text=tb_text)
            if self.charge_retry(attempt):
                retry.append((index, attempt + 1))
            else:  # budget spent: a CellFailure at merge
                self.outcomes[index] = outcome
                self.n_failed += 1
        self.requeue(retry + list(batch[len(outcomes):]))
        # a failed attempt (often an early raise) says nothing about
        # what a cell costs
        if ok_times_s:
            self.cell_time_s = sum(ok_times_s) / len(ok_times_s)

    def quarantine_cell(self, index: int, status: str, attempts: int,
                        detail: str) -> None:
        q = CellQuarantine(index=index,
                           params=dict(self.cells[index]),
                           status=status, attempts=attempts,
                           detail=detail)
        self.quarantine[index] = q
        self.reg.counter("sweep.cells_quarantined_total",
                         labels={"status": status}).inc()
        if self.journal is not None:
            self.journal.record_quarantine(
                index, self.params[index], status, attempts, detail)

    def classify_death(self, batch: Sequence[_Attempt],
                       states: Any) -> None:
        """The cells of a batch lost with a broken pool.  Charge only
        the cell caught mid-execution (started, never finished);
        queued and finished batch-mates requeue free, uncharged."""
        free: List[_Attempt] = []
        for index, attempt in batch:
            if states[index] != attempt * 4 + _STARTED:
                free.append((index, attempt))
                continue
            with obs.span("chaos.worker_death",
                          attrs={"cell_index": index}):
                pass
            if self.charge_retry(attempt):
                free.append((index, attempt + 1))
            else:
                self.quarantine_cell(
                    index, "killed", attempt,
                    "worker process died (BrokenProcessPool)")
        self.requeue(free)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of a pool (the watchdog's hammer)."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        proc.kill()


class _Watchdog:
    """Per-cell clocks for the batches in flight.

    Each batch runs its cells in order, so its running cell is the
    first one whose state is not finished; a cursor per batch makes a
    poll cost O(batches in flight), not O(cells).  A cell's clock
    starts at the first poll that sees its state running.
    """

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        #: future -> (position of its first unfinished cell, clock start)
        self.cursor: Dict[Future, Tuple[int, Optional[float]]] = {}

    def overdue(self, in_flight: Mapping[Future, List[_Attempt]],
                states: Any) -> Optional[Tuple[Future, int]]:
        """The longest-overdue running cell, as (future, position)."""
        now_s = time.perf_counter()
        worst: Optional[Tuple[float, Future, int]] = None
        for fut, batch in in_flight.items():
            k, since_s = self.cursor.get(fut, (0, None))
            k0 = k
            while (k < len(batch) and states[batch[k][0]]
                   == batch[k][1] * 4 + _FINISHED):
                k += 1
            if k != k0:
                since_s = None
            if (since_s is None and k < len(batch)
                    and states[batch[k][0]] == batch[k][1] * 4 + _STARTED):
                since_s = now_s
            self.cursor[fut] = (k, since_s)
            if since_s is not None and now_s - since_s > self.timeout_s:
                if worst is None or now_s - since_s > worst[0]:
                    worst = (now_s - since_s, fut, k)
        return None if worst is None else worst[1:]


def _run_pool(run: _RunState, workers: int,
              cell_timeout_s: Optional[float]) -> None:
    """Drive batches through a process pool until every cell is
    resolved, respawning the pool after a worker death or a watchdog
    kill."""
    poll_s = (_MAX_POLL_S if cell_timeout_s is None
              else min(_MAX_POLL_S,
                       cell_timeout_s * _POLL_TIMEOUT_FRACTION))
    states = RawArray("i", len(run.cells))
    while run.pending:
        n_procs = min(workers, len(run.pending))
        pool = ProcessPoolExecutor(
            max_workers=n_procs, initializer=_init_worker,
            initargs=(states, run.scenario, run.params, run.tracing,
                      run.chaos))
        in_flight: Dict[Future, List[_Attempt]] = {}
        watchdog = (None if cell_timeout_s is None
                    else _Watchdog(cell_timeout_s))
        broken = killed = False
        try:
            while not (broken or killed) and (run.pending or in_flight):
                while run.pending and len(in_flight) < 2 * n_procs:
                    batch = run.take_batch()
                    try:
                        in_flight[pool.submit(_run_batch, batch)] = batch
                    except (BrokenProcessPool, RuntimeError):
                        run.requeue(batch)
                        broken = True
                        break
                if broken:
                    break
                done, _ = wait(in_flight, timeout=poll_s,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    if fut.exception() is not None:
                        broken = True  # settled with the rest below
                    else:
                        run.settle(in_flight.pop(fut), fut.result())
                if broken or watchdog is None:
                    continue
                found = watchdog.overdue(in_flight, states)
                if found is None:
                    continue
                victim_fut, k = found
                batch = in_flight.pop(victim_fut)
                index, attempt = batch[k]
                run.quarantine_cell(
                    index, "timed_out", attempt,
                    f"exceeded cell_timeout_s={cell_timeout_s:g}")
                run.reg.counter("sweep.worker_deaths_total").inc()
                with obs.span("chaos.watchdog_kill",
                              attrs={"cell_index": index}):
                    pass
                # its batch-mates are innocent: the harness, not the
                # cells, is killing their worker
                run.requeue(batch[:k] + batch[k + 1:])
                _kill_pool_workers(pool)
                killed = True
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        # every future is resolved now: keep the results that arrived;
        # lost batches are charged per cell on a worker death, free
        # after a watchdog kill
        for fut, batch in in_flight.items():
            try:
                outcomes = fut.result()
            except BrokenProcessPool:
                if killed:
                    run.requeue(batch)
                else:
                    run.classify_death(batch, states)
            except CancelledError:
                run.requeue(batch)
            else:
                run.settle(batch, outcomes)
        if broken:
            run.reg.counter("sweep.worker_deaths_total").inc()
        # a free requeue resubmits the same attempt: clear its state so
        # a stale start cannot convict it at the next worker death
        for index, _attempt in run.pending:
            states[index] = 0


def _run_serial(run: _RunState, strict: bool) -> None:
    """In-process loop: journal + retries, no watchdog (a single
    process can neither kill its own hung cell nor survive killing
    itself; ``run_sweep`` rejects both before routing here).  In
    strict mode it stops after the batch whose failure will be raised:
    retries requeue at the head, so every lower-index cell is resolved
    by then."""
    while run.pending:
        batch = run.take_batch()
        run.settle(batch, _run_cells(batch, run.scenario, run.params,
                                     run.tracing, run.chaos))
        if strict and run.n_failed:
            break


def _merge(names: List[str],
           cells: Sequence[Dict[str, Any]],
           outcomes: Sequence[_Outcome],
           metric_names: Optional[Sequence[str]]) -> SweepResult:
    """Fold per-cell outcomes (in grid order) into a SweepResult."""
    resolved: Optional[List[str]] = (list(metric_names)
                                     if metric_names else None)
    result = SweepResult(param_names=names, metric_names=[])
    for index, _elapsed, metrics, error, tb_text, _spans in outcomes:
        if error is not None:
            result.failures.append(CellFailure(
                index=index, params=dict(cells[index]),
                error=error, traceback_text=tb_text))
            continue
        assert metrics is not None
        if resolved is None:  # first *successful* cell fixes the schema
            resolved = sorted(metrics)
        missing = set(resolved) - set(metrics)
        if missing:
            raise ValueError(
                f"scenario omitted metrics {sorted(missing)}")
        row = dict(cells[index])
        row.update({m: metrics[m] for m in resolved})
        result.rows.append(row)
    result.metric_names = resolved or []
    return result


def execute_robust(scenario: Callable[..., Mapping[str, float]],
                   names: List[str],
                   cells: Sequence[Dict[str, Any]],
                   params: Sequence[Dict[str, Any]],
                   metric_names: Optional[Sequence[str]] = None,
                   *,
                   mode: str,
                   fallback_reason: Optional[str] = None,
                   workers: int,
                   strict: bool,
                   journal_path: Optional[str],
                   resume: bool,
                   cell_timeout_s: Optional[float],
                   retries: int,
                   chaos: Optional["ChaosPlan"],
                   base_seed: Optional[int],
                   seed_param: str) -> SweepResult:
    """Execute a sweep's cells and merge them into a SweepResult.

    Called by :func:`repro.parallel.executor.run_sweep` after grid
    expansion, seed injection (``params[i]`` are cell ``i``'s call
    arguments) and mode resolution.  ``mode == "process-pool"`` runs
    the pool loop, anything else the in-process loop.  The strict
    raise stays with the caller; a strict serial run stops early once
    its lowest-index failure is known.
    """
    t0 = time.perf_counter()
    tracer = obs.get_tracer()
    if not tracer.enabled:
        tracing = _TRACE_OFF
    elif mode == "process-pool":
        tracing = _TRACE_CAPTURE
    else:
        tracing = _TRACE_INLINE
    journal: Optional[SweepJournal] = None
    replay: Dict[int, Dict[str, Any]] = {}
    if journal_path is not None:
        header = make_header(len(cells), grid_hash(names, cells),
                             scenario, base_seed, seed_param)
        journal, replay = SweepJournal.for_run(
            journal_path, header, resume=resume)

    run = _RunState(scenario, cells, params, tracing, retries, chaos,
                    journal)
    for index, rec in replay.items():
        if rec.get("params_hash") != params_hash(params[index]):
            raise JournalError(
                f"journal cell #{index} was computed with different "
                "parameters; refusing to replay it")
        # replayed spans are not re-adopted: they belong to the run
        # that recorded them, not to this timeline
        run.outcomes[index] = (index, float(rec.get("elapsed_s", 0.0)),
                               rec.get("metrics", {}), None, "", [])
    if replay:
        run.reg.counter("sweep.journal_replayed_total").inc(len(replay))

    run.pending.extend((i, 1) for i in range(len(cells))
                       if i not in run.outcomes)
    try:
        if mode == "process-pool":
            _run_pool(run, workers, cell_timeout_s)
        else:
            _run_serial(run, strict)
    finally:
        if journal is not None:
            journal.close()
    wall_s = time.perf_counter() - t0

    outcomes = [run.outcomes[i] for i in sorted(run.outcomes)]
    if tracing == _TRACE_CAPTURE:
        # one merged timeline: adopt worker spans in cell order
        for outcome in outcomes:
            tracer.adopt(outcome[5])
    result = _merge(names, cells, outcomes, metric_names)
    result.quarantined = [run.quarantine[i] for i in sorted(run.quarantine)]
    result.stats = SweepStats(
        n_cells=len(cells), n_chunks=run.n_batches, workers=workers,
        mode=mode, wall_s=wall_s,
        cell_times_s=[o[1] for o in outcomes if o[0] not in replay],
        fallback_reason=fallback_reason,
        n_replayed=len(replay), n_executed=len(run.executed),
        n_retried=run.n_retried,
        journal_path=(str(journal_path) if journal_path is not None
                      else None))
    return result
