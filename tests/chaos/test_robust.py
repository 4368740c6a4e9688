"""End-to-end tests of the sweep execution loop (repro.chaos.runner).

The contract under test is DESIGN §5f: any robustness feature —
journal, resume, watchdog, retry, chaos plan — and the batching of
cells may change *how* a sweep executes, never *what* it computes.
Every test here compares against a plain serial run and demands
bit-identical rows.
"""

import time

import pytest

from repro import obs
from repro.analysis.sweep import SweepCellError, sweep
from repro.chaos import ChaosInjectedError, ChaosPlan, FaultSpec
from repro.chaos.journal import JournalError, SweepJournal
from repro.parallel import run_sweep

GRID = {"lane": [0, 1, 2, 3, 4, 5], "rep": [0, 1]}


def stable_cell(lane, rep):
    """Pure arithmetic — the ground truth every robust run must match."""
    return {"m": lane * 10.0 + rep, "sq": float(lane * lane)}


def napping_cell(lane, rep):
    """Slower than the 50 ms batch budget: always runs alone."""
    time.sleep(0.1)
    return stable_cell(lane, rep)


def late_napping_cell(lane, rep):
    """~0 ms on the first lanes, 0.1 s on the last six: cheap cells
    come first in grid order and size a big batch."""
    if lane >= 34:
        time.sleep(0.1)
    return stable_cell(lane, rep)


def hang_cell(lane, rep, hang_s=0.0):
    """Sleeps forever-ish on lane 2 — watchdog prey."""
    if lane == 2 and hang_s > 0.0:
        time.sleep(hang_s)
    return {"m": lane * 10.0 + rep}


@pytest.fixture
def baseline():
    return sweep(stable_cell, GRID, workers=1)


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


class TestJournalAndResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_journaled_run_matches_plain(self, tmp_path, baseline,
                                         workers):
        r = sweep(stable_cell, GRID, workers=workers,
                  journal_path=tmp_path / "j.jsonl")
        assert r.rows == baseline.rows
        assert r.stats.n_executed == 12
        assert r.stats.journal_path == str(tmp_path / "j.jsonl")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_resume_replays_everything(self, tmp_path, baseline,
                                            workers):
        jp = tmp_path / "j.jsonl"
        sweep(stable_cell, GRID, workers=workers, journal_path=jp)
        r = sweep(stable_cell, GRID, workers=workers, journal_path=jp,
                  resume=True)
        assert r.rows == baseline.rows
        assert r.stats.n_replayed == 12
        assert r.stats.n_executed == 0
        # nothing ran, so no cell time is this run's (and no speedup)
        assert r.stats.cell_times_s == []

    def test_partial_resume_executes_only_the_gap(self, tmp_path,
                                                  baseline):
        """Drop journaled cells, resume, and demand the merged rows
        stay bit-identical — the tentpole's core guarantee."""
        jp = tmp_path / "j.jsonl"
        sweep(stable_cell, GRID, workers=1, journal_path=jp)
        # simulate a crash after 5 cells: truncate the journal
        lines = jp.read_text().splitlines(keepends=True)
        jp.write_text("".join(lines[:6]))  # header + 5 cell records
        r = sweep(stable_cell, GRID, workers=2, journal_path=jp,
                  resume=True)
        assert r.rows == baseline.rows
        assert r.stats.n_replayed == 5
        assert r.stats.n_executed == 7

    def test_resume_tolerates_torn_tail(self, tmp_path, baseline):
        jp = tmp_path / "j.jsonl"
        sweep(stable_cell, GRID, workers=1, journal_path=jp)
        with open(jp, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "ind')  # crash mid-append
        r = sweep(stable_cell, GRID, workers=1, journal_path=jp,
                  resume=True)
        assert r.rows == baseline.rows

    def test_resume_rejects_a_different_grid(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        sweep(stable_cell, GRID, workers=1, journal_path=jp)
        with pytest.raises(JournalError, match="different run"):
            sweep(stable_cell, {"lane": [0, 1], "rep": [0]},
                  workers=1, journal_path=jp, resume=True)

    def test_failed_cells_are_journaled_but_not_replayed(self,
                                                         tmp_path):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(3, times=99),))
        jp = tmp_path / "j.jsonl"
        r1 = sweep(stable_cell, GRID, workers=1, strict=False,
                   journal_path=jp, chaos=plan)
        assert [f.index for f in r1.failures] == [3]
        # the fault is gone on resume: the failed cell re-executes
        r2 = sweep(stable_cell, GRID, workers=1, journal_path=jp,
                   resume=True)
        assert not r2.failures
        assert r2.stats.n_replayed == 11
        assert r2.stats.n_executed == 1

    def test_replay_is_seed_faithful(self, tmp_path):
        """Cells that consume derived seeds resume bit-identically:
        derive_seed is keyed on grid position, so the re-executed gap
        gets exactly the seeds the interrupted run would have used."""
        jp = tmp_path / "j.jsonl"
        base = sweep(seeded_cell, GRID, workers=1, base_seed=11)
        sweep(seeded_cell, GRID, workers=1, base_seed=11,
              journal_path=jp)
        lines = jp.read_text().splitlines(keepends=True)
        jp.write_text("".join(lines[:4]))
        r = sweep(seeded_cell, GRID, workers=1, base_seed=11,
                  journal_path=jp, resume=True)
        assert r.rows == base.rows


def seeded_cell(lane, rep, seed=0):
    return {"m": float((seed % 1000) * 2 + lane * 3 + rep)}


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_fault_recovered_by_retry(self, baseline,
                                                workers):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),))  # times=1
        r = sweep(stable_cell, GRID, workers=workers, retries=1,
                  chaos=plan)
        assert r.rows == baseline.rows
        assert r.stats.n_retried == 1
        assert not r.failures and not r.quarantined

    def test_persistent_fault_exhausts_budget_non_strict(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4, times=99),))
        r = sweep(stable_cell, GRID, workers=1, retries=2,
                  strict=False, chaos=plan)
        assert [f.index for f in r.failures] == [4]
        assert isinstance(r.failures[0].error, ChaosInjectedError)
        assert r.stats.n_retried == 2

    def test_persistent_fault_still_raises_in_strict(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4, times=99),))
        with pytest.raises(SweepCellError):
            sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)

    def test_retry_alone_engages_robust_path(self, baseline):
        r = sweep(stable_cell, GRID, workers=2, retries=3)
        assert r.rows == baseline.rows
        assert r.stats.n_retried == 0  # nothing failed, nothing spent


class TestWorkerDeath:
    def test_kill_fault_recovered_by_retry(self, baseline):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(3),))
        r = sweep(stable_cell, GRID, workers=2, retries=2, chaos=plan)
        assert r.rows == baseline.rows
        assert not r.quarantined
        assert r.stats.n_retried >= 1  # victim, plus any bystanders

    def test_kill_without_budget_quarantines_victim(self, baseline):
        # strict mode is the default: quarantine must NOT abort
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(3,
                                                          times=99),))
        r = sweep(stable_cell, GRID, workers=2, retries=0, chaos=plan)
        statuses = {q.index: q.status for q in r.quarantined}
        assert statuses.get(3) == "killed"
        # surviving rows are a (bit-identical) subset of the baseline
        assert all(row in baseline.rows for row in r.rows)
        assert len(r.rows) + len(r.quarantined) == 12

    def test_killed_then_resumed_matches_baseline(self, tmp_path,
                                                  baseline):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(5,
                                                          times=99),))
        jp = tmp_path / "j.jsonl"
        r1 = sweep(stable_cell, GRID, workers=2, retries=0,
                   journal_path=jp, chaos=plan)
        assert any(q.status == "killed" for q in r1.quarantined)
        assert len(r1.rows) < 12
        r2 = sweep(stable_cell, GRID, workers=2, journal_path=jp,
                   resume=True)  # no chaos: the "node" came back
        assert r2.rows == baseline.rows
        assert r2.stats.n_replayed == len(r1.rows)


class TestBatching:
    def test_tiny_cells_share_batches(self, tmp_path):
        """2000 ~us cells, journaled, with a retry budget: batches
        form from the measured cell time, far fewer than cells."""
        grid = {"lane": list(range(50)), "rep": list(range(40))}
        serial = run_sweep(stable_cell, grid, workers=1)
        r = run_sweep(stable_cell, grid, workers=2, retries=1,
                      journal_path=tmp_path / "j.jsonl")
        assert r.rows == serial.rows
        assert r.stats.n_chunks < r.stats.n_cells // 10
        _, records = SweepJournal.read(tmp_path / "j.jsonl")
        assert sorted(rec["index"] for rec in records) == list(
            range(2000))

    def test_slow_cells_run_one_batch_per_attempt(self, baseline):
        """Cells over the budget keep per-cell granularity; a retried
        cell's second attempt is a batch of its own too."""
        plan = ChaosPlan(faults=(FaultSpec.raise_at(7),))
        r = sweep(napping_cell, GRID, workers=2, retries=1, chaos=plan)
        assert r.rows == baseline.rows
        assert r.stats.n_retried == 1
        assert r.stats.n_chunks == r.stats.n_cells + 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slow_cells_after_cheap_ones_are_journaled_alone(
            self, tmp_path, workers):
        """The cheap cells' timing sizes one batch for the rest of the
        grid, but the budget is enforced by measurement: the batch
        stops after its first slow cell and the tail requeues, so
        each slow cell reaches the journal in a batch of its own."""
        grid = {"lane": list(range(40)), "rep": [0]}
        n_slow = 6
        serial = run_sweep(stable_cell, grid, workers=1)
        r = run_sweep(late_napping_cell, grid, workers=workers,
                      journal_path=tmp_path / "j.jsonl")
        assert r.rows == serial.rows
        assert r.stats.n_chunks >= n_slow
        assert r.stats.n_executed == 40
        _, records = SweepJournal.read(tmp_path / "j.jsonl")
        assert sorted(rec["index"] for rec in records) == list(range(40))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_kill_inside_a_batch_charges_only_the_victim(self, workers):
        """A SIGKILL mid-batch: the state array convicts the killer,
        at most one mid-execution cell per worker is charged, and the
        batch-mates that finished before it requeue free (4 workers on
        a 2-core box also stress the shared array)."""
        grid = {"lane": list(range(6)), "rep": list(range(10))}
        serial = run_sweep(stable_cell, grid, workers=1)
        k = 40
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(k,
                                                          times=99),))
        r = sweep(stable_cell, grid, workers=workers, retries=0,
                  chaos=plan)
        statuses = {q.index: q.status for q in r.quarantined}
        assert statuses[k] == "killed"
        assert len(r.quarantined) <= workers
        # the first 2 x workers batches are single cells (no timing
        # yet), then the rest of the grid goes as one batch holding k
        assert r.stats.n_chunks < 30
        assert not any(k - 10 <= i < k for i in statuses)
        assert all(row in serial.rows for row in r.rows)
        assert len(r.rows) + len(r.quarantined) == 60


class TestWatchdog:
    def test_hung_cell_quarantined_others_complete(self):
        """Acceptance: a cell sleeping past the timeout is retired
        ``timed_out`` while every other cell still lands."""
        r = sweep(hang_cell, dict(GRID, hang_s=[30.0]), workers=2,
                  cell_timeout_s=0.5)
        timed_out = [q for q in r.quarantined
                     if q.status == "timed_out"]
        assert sorted(q.params["rep"] for q in timed_out) == [0, 1]
        assert all(q.params["lane"] == 2 for q in timed_out)
        assert r.rows == [
            {"lane": lane, "rep": rep, "hang_s": 30.0,
             "m": lane * 10.0 + rep}
            for lane in [0, 1, 3, 4, 5] for rep in [0, 1]]

    def test_generous_timeout_quarantines_nothing(self):
        r = sweep(hang_cell, dict(GRID, hang_s=[0.0]), workers=2,
                  cell_timeout_s=5.0)
        assert not r.quarantined
        assert len(r.rows) == 12


class TestValidation:
    def test_resume_needs_journal(self):
        with pytest.raises(ValueError, match="journal"):
            sweep(stable_cell, GRID, workers=1, resume=True)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            sweep(stable_cell, GRID, workers=1, retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="cell_timeout_s"):
            sweep(stable_cell, GRID, workers=2, cell_timeout_s=0.0)

    def test_watchdog_needs_a_pool(self):
        with pytest.raises(ValueError, match="process pool"):
            sweep(stable_cell, GRID, workers=1, cell_timeout_s=1.0)

    def test_kill_faults_need_a_pool(self):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(0),))
        with pytest.raises(ValueError, match="process pool"):
            sweep(stable_cell, GRID, workers=1, chaos=plan)

    def test_serial_fallback_with_watchdog_is_an_error(self):
        """An unpicklable scenario cannot silently drop the watchdog."""
        local_cell = lambda lane, rep: {"m": 0.0}  # noqa: E731
        with pytest.raises(ValueError, match="process pool"):
            run_sweep(local_cell, GRID, workers=2, cell_timeout_s=1.0)


class TestObsAccounting:
    def test_injected_and_recovered_faults_counted(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),))
        sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)
        reg = obs.metrics()
        injected = reg.counter("chaos.faults_injected_total",
                               labels={"kind": "raise"})
        recovered = reg.counter("chaos.faults_recovered_total",
                                labels={"kind": "raise"})
        assert injected.value == 1
        assert recovered.value == 1
        assert reg.counter("sweep.cells_retried_total").value == 1

    def test_quarantine_counted_by_status(self):
        sweep(hang_cell, dict(GRID, hang_s=[30.0]), workers=2,
              cell_timeout_s=0.5)
        reg = obs.metrics()
        assert reg.counter("sweep.cells_quarantined_total",
                           labels={"status": "timed_out"}).value == 2
        assert reg.counter("sweep.worker_deaths_total").value >= 2

    def test_replay_counted(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        sweep(stable_cell, GRID, workers=1, journal_path=jp)
        sweep(stable_cell, GRID, workers=1, journal_path=jp,
              resume=True)
        assert obs.metrics().counter(
            "sweep.journal_replayed_total").value == 12

    def test_injections_visible_in_traces(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),))
        with obs.scope() as tracer:
            sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)
            spans = tracer.drain()
        names = [s.name for s in spans]
        assert "chaos.inject" in names
        inject = next(s for s in spans if s.name == "chaos.inject")
        assert inject.attrs["kind"] == "raise"
        assert inject.attrs["cell_index"] == 2

    def test_pool_chaos_run_keeps_merged_timeline(self, baseline):
        """Tracing + chaos + retries still produce one coherent
        timeline (worker spans shipped inside outcomes) and pinned
        rows."""
        plan = ChaosPlan(faults=(FaultSpec.raise_at(1),))
        with obs.scope() as tracer:
            r = sweep(stable_cell, GRID, workers=2, retries=1,
                      chaos=plan)
            spans = tracer.drain()
        assert r.rows == baseline.rows
        cell_spans = [s for s in spans if s.name == "sweep.cell"]
        # one span per successful cell (the injected raise fires
        # before the faulted attempt's span opens), one merged lane
        # per worker process
        assert len(cell_spans) == 12
        assert "chaos.inject" in {s.name for s in spans}
