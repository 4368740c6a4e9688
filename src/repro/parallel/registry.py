"""Named sweep registry: scenario + default grid, runnable by name.

The ``repro sweep`` CLI (and anything else that wants to launch a
standard experiment grid without importing its modules) looks sweeps up
here.  A :class:`SweepSpec` bundles a *picklable* scenario callable
with its default grid and metric schema; ``run_registered`` hands it to
the parallel executor.

Registered scenarios must be module-level functions — the process pool
pickles callables by reference — which is why the stock entries live in
:mod:`repro.parallel.scenarios` rather than inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.sweep import SweepResult

__all__ = [
    "SweepSpec",
    "register_sweep",
    "get_sweep",
    "available_sweeps",
    "run_registered",
]


@dataclass(frozen=True)
class SweepSpec:
    """One registered sweep: scenario, default grid, and schema."""

    name: str
    scenario: Callable[..., Mapping[str, float]]
    grid: Mapping[str, Sequence[Any]]
    description: str = ""
    metric_names: Optional[Sequence[str]] = None
    base_seed: Optional[int] = None
    seed_param: str = "seed"

    def cell_count(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n


_REGISTRY: Dict[str, SweepSpec] = {}


def register_sweep(spec: SweepSpec, replace: bool = False) -> SweepSpec:
    """Register a sweep spec under its name.

    Re-registration requires ``replace=True`` so two modules cannot
    silently fight over a name.
    """
    if not spec.name:
        raise ValueError("sweep spec needs a non-empty name")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"sweep {spec.name!r} is already registered "
                         "(pass replace=True to override)")
    _REGISTRY[spec.name] = spec
    return spec


def get_sweep(name: str) -> SweepSpec:
    """Look a registered sweep up by name."""
    _ensure_stock_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown sweep {name!r}; registered: {known}") from None


def available_sweeps() -> List[SweepSpec]:
    """All registered sweeps, sorted by name."""
    _ensure_stock_loaded()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def run_registered(name: str,
                   *,
                   workers: Optional[int] = 1,
                   strict: bool = True,
                   grid_overrides: Optional[
                       Mapping[str, Sequence[Any]]] = None,
                   journal_path: Optional[str] = None,
                   resume: bool = False,
                   cell_timeout_s: Optional[float] = None,
                   retries: int = 0,
                   chaos: Optional[Any] = None) -> SweepResult:
    """Run a registered sweep through the parallel executor.

    ``grid_overrides`` replaces individual parameters' value lists
    (unknown parameter names are rejected — a typo must not silently
    run the default grid).  The robustness keywords pass straight
    through to :func:`repro.parallel.executor.run_sweep` (journal,
    resume, watchdog, retries, chaos plan — see :mod:`repro.chaos`).
    """
    from repro.parallel.executor import run_sweep

    spec = get_sweep(name)
    grid = dict(spec.grid)
    for pname, values in (grid_overrides or {}).items():
        if pname not in grid:
            raise ValueError(
                f"sweep {name!r} has no parameter {pname!r}; "
                f"grid parameters: {sorted(grid)}")
        grid[pname] = list(values)
    return run_sweep(spec.scenario, grid, spec.metric_names,
                     workers=workers,
                     strict=strict, base_seed=spec.base_seed,
                     seed_param=spec.seed_param,
                     journal_path=journal_path, resume=resume,
                     cell_timeout_s=cell_timeout_s, retries=retries,
                     chaos=chaos)


def _ensure_stock_loaded() -> None:
    """Import the stock scenarios exactly once (registration on import)."""
    import repro.parallel.scenarios  # noqa: F401  (side effect)
