"""Sweep front end: grid expansion, seeding, and execution mode.

This is the engine behind ``repro.analysis.sweep.sweep(..., workers=N)``
and the ``repro sweep`` CLI.  It expands a parameter grid in canonical
order (:mod:`repro.parallel.grid`), injects per-cell seeds, decides
between in-process and process-pool execution, and hands every run —
plain or robust — to :func:`repro.chaos.runner.execute_robust`, the one
execution loop, which evaluates ``scenario(**params)`` cells in batches
and merges them back in canonical grid order.

Determinism contract (DESIGN.md §5d):

1. **Canonical order** — rows are merged by cell index in
   ``itertools.product`` order, never by completion order.
2. **Index-keyed seeds** — with ``base_seed`` set, each cell receives
   ``derive_seed(base_seed, cell_index)``; seeds are a pure function of
   grid position, so the worker count cannot leak into results.
3. **No harness randomness in results** — batch sizes follow measured
   cell time, so batch composition may differ from run to run; rows
   cannot, because every cell is keyed on its grid index.

Consequently ``run_sweep(..., workers=k)`` produces rows bit-identical
to ``workers=1`` for every ``k`` (pinned by ``tests/parallel``).

The in-process loop engages when ``workers`` resolves to 1, when the
grid has a single cell (a pool cannot help), or when the scenario or
its parameters cannot be pickled (closures, lambdas, bound locals);
``SweepStats.mode``/``fallback_reason`` record which.  Failing cells are
captured as :class:`~repro.analysis.sweep.CellFailure` — in non-strict
mode they land on ``result.failures`` while every other cell still
runs (the pool is not poisoned); in strict mode the lowest-index
failure is re-raised as :exc:`~repro.analysis.sweep.SweepCellError`
naming the offending parameters.
"""

from __future__ import annotations

import inspect
import os
import pickle
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
)

from repro import obs
from repro.analysis.sweep import SweepCellError, SweepResult
from repro.chaos import runner
from repro.parallel.grid import expand_grid
from repro.parallel.seeds import derive_seed

__all__ = ["run_sweep"]


def _pool_obstacle(scenario: Callable[..., Any],
                   cells: Sequence[Dict[str, Any]]) -> Optional[str]:
    """Why the process pool cannot be used, or ``None`` if it can."""
    try:
        pickle.dumps(scenario)
    except Exception:
        return ("scenario is not picklable (closure, lambda, or "
                "locally-defined callable) — ran serially in-process")
    try:
        pickle.dumps(list(cells))
    except Exception:
        return "grid values are not picklable — ran serially in-process"
    return None


def _check_seed_param(scenario: Callable[..., Any],
                      seed_param: str) -> None:
    """Fail early if the scenario cannot accept the injected seed."""
    try:
        sig = inspect.signature(scenario)
    except (TypeError, ValueError):  # builtins, C callables: trust caller
        return
    params = sig.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in params.values()):
        return
    p = params.get(seed_param)
    if p is None or p.kind is inspect.Parameter.POSITIONAL_ONLY:
        raise ValueError(
            f"base_seed given but scenario {scenario!r} does not accept "
            f"a {seed_param!r} keyword argument")


def run_sweep(scenario: Callable[..., Mapping[str, float]],
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
    """Evaluate ``scenario`` over ``grid``, optionally across processes.

    Parameters mirror :func:`repro.analysis.sweep.sweep`.  Every run,
    plain or robust, serial or pooled, executes in
    ``runner.execute_robust`` (looked up at call time); the robustness
    keywords (``journal_path``/``resume``/``cell_timeout_s``/
    ``retries``/``chaos``) are options of that one loop, so robust
    rows cannot drift from plain rows.  A worker death with no retry
    budget quarantines the cell it killed as ``killed`` instead of
    aborting the sweep.  ``strict`` raises the lowest-index scenario
    exception only; quarantined cells are missing from ``rows`` even
    in strict mode and are listed on ``result.quarantined``.
    """
    if workers is None or workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    if resume and journal_path is None:
        raise ValueError("resume=True needs journal_path: the journal "
                         "is what a resumed run replays")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise ValueError(
            f"cell_timeout_s must be positive, got {cell_timeout_s}")
    names, cells = expand_grid(grid)
    if base_seed is not None:
        _check_seed_param(scenario, seed_param)
    params = [dict(cell) for cell in cells]
    if base_seed is not None:
        for index, p in enumerate(params):
            p[seed_param] = derive_seed(base_seed, index)

    mode = "process-pool" if workers > 1 else "serial"
    fallback_reason: Optional[str] = None
    if workers > 1:
        if len(cells) == 1:
            mode, fallback_reason = "serial-fallback", (
                "single-cell grid — a pool cannot help")
        else:
            obstacle = _pool_obstacle(scenario, params)
            if obstacle is not None:
                mode, fallback_reason = "serial-fallback", obstacle

    if mode != "process-pool":
        # journal/resume/retry/raise-faults all work in-process, but a
        # single process can neither kill its own hung cell nor
        # survive killing itself
        why = fallback_reason or f"workers={workers} runs in-process"
        if cell_timeout_s is not None:
            raise ValueError(
                f"cell_timeout_s needs a process pool ({why}); the "
                "watchdog cannot kill a hung cell in its own process")
        if chaos is not None and getattr(chaos, "has_kill_faults",
                                         False):
            raise ValueError(
                f"kill_worker chaos faults need a process pool ({why}); "
                "SIGKILLing the only process would kill the sweep")

    with obs.span("sweep.run", attrs={"n_cells": len(cells),
                                      "workers": workers, "mode": mode}):
        result = runner.execute_robust(
            scenario, names, cells, params, metric_names,
            mode=mode, fallback_reason=fallback_reason, workers=workers,
            strict=strict, journal_path=journal_path, resume=resume,
            cell_timeout_s=cell_timeout_s, retries=retries, chaos=chaos,
            base_seed=base_seed, seed_param=seed_param)
    if strict and result.failures:
        first = min(result.failures, key=lambda fl: fl.index)
        raise SweepCellError(first) from first.error
    return result
