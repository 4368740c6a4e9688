"""Parallel sweep execution with serial-parity guarantees.

Every quantitative artifact of the reproduction — the Fig. 1/Fig. 2
regenerations, the DESIGN.md §5 policy ablations, the Carbon500-scale
modeling sweeps — is a seeded scenario evaluated over a parameter grid.
This package makes those grids scale with cores *without ever changing
a single result*:

* :func:`run_sweep` — the sweep executor, serial or process-pool
  (``analysis.sweep.sweep(..., workers=N)`` routes here);
* :func:`derive_seed` — per-cell seeds keyed on canonical grid
  position, so worker count never leaks into results;
* :func:`expand_grid` — canonical cell order;
* :func:`register_sweep` / :func:`run_registered` — named sweeps for
  the ``repro sweep`` CLI (stock entries in
  :mod:`repro.parallel.scenarios`).

The determinism contract and the serial-fallback conditions are
documented in :mod:`repro.parallel.executor` and DESIGN.md §5d; the
parity suite in ``tests/parallel`` pins rows bit-identical across
worker counts.
"""

from repro.analysis.sweep import (
    CellFailure,
    SweepCellError,
    SweepResult,
    SweepStats,
)
from repro.parallel.executor import run_sweep
from repro.parallel.grid import expand_grid
from repro.parallel.registry import (
    SweepSpec,
    available_sweeps,
    get_sweep,
    register_sweep,
    run_registered,
)
from repro.parallel.seeds import derive_seed

__all__ = [
    "CellFailure",
    "SweepCellError",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "available_sweeps",
    "derive_seed",
    "expand_grid",
    "get_sweep",
    "register_sweep",
    "run_registered",
    "run_sweep",
]
