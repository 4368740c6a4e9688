"""Benchmark driver: time the workloads, check every output, report.

Run from the repository root::

    python3 perfbench/run.py                       # all four, default seed
    python3 perfbench/run.py --workload easy-long --seed 3 --seconds 20
    python3 perfbench/run.py --workload sweep-tiny --trace 1

With ``--trace 0`` the run is timed with no instrumentation and reports
the end-to-end metrics; their times are in reference seconds, with the
host's speed during each timed call divided out (``hostref.py``).  With ``--trace 1`` untraced and traced
iterations alternate; the traced ones wrap each layer's public entry
points (``tracing.py``) and report the per-layer metrics plus
``trace.overhead_ratio``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``error_rate`` is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SCRATCH = HERE / ".scratch"
MIN_ITERATIONS = 3
MIN_TRACED = 2
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.scheduler, repro.powerstack, repro.simulator, "
    "repro.grid.forecast, repro.parallel.executor, repro.chaos.runner; "
    "t = time.perf_counter() - t; "
    "from perfbench.hostref import host_scale; print(t * host_scale())")


def import_seconds() -> float:
    """Median import time of the program in fresh interpreters.

    In reference seconds: each child scales its own import time by the
    host speed it sampled right after importing.
    """
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"),
                                           str(HERE.parent))))
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then covers the whole process


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted/failed operations and the errors behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.fingerprint = None

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.errors
        if self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            # same inputs must give the same events, passes and starts
            self.failed += outcome.attempted
            self.errors.append(f"iteration diverged: {outcome.fingerprint} "
                               f"!= {self.fingerprint}")

    def crash(self, wl, exc: BaseException) -> None:
        n = 2 * wl.n_cells if wl.kind == "sweep" else 1
        self.attempted += n
        self.failed += n
        self.errors.append(f"iteration raised {type(exc).__name__}: {exc}")


def timed_iteration(wl, inputs, tally: Tally, ref, rec=None, targets=()):
    """Run one iteration, with ``targets`` wrapped to record into ``rec``.

    Returns ``(seconds, host_seconds, outcome)``, or None when the
    iteration raised.  Untraced, ``seconds`` is in reference seconds;
    traced, the host is not sampled (the samples would land in the
    spans) and ``seconds`` is host seconds.
    """
    from perfbench.tracing import Tracing
    try:
        if rec is None:
            legs, host, scale = ref.time(wl.iterate, inputs)
            dt = host * scale
        else:
            with Tracing(rec, targets):
                t0 = time.perf_counter()
                with rec.span("iteration"):
                    legs = wl.iterate(inputs)
                dt = host = time.perf_counter() - t0
        outcome = wl.check(inputs, legs)
    except Exception as exc:  # a failed operation, not a harness fault
        tally.crash(wl, exc)
        return None
    tally.add(outcome)
    return dt, host, outcome


def setup(wl, seed: int, import_s: float, ref):
    """Inputs for ``seed`` and the set-up time, in reference seconds."""
    samples, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs, host, scale = ref.time(wl.make_inputs, seed)
        samples.append(host * scale)
    return inputs, import_s + statistics.median(samples)


def measure(wl, seed: int, seconds: float, trace: bool,
            import_s: float, ref) -> dict:
    """Set up ``wl``, then iterate it for ``seconds`` and summarise.

    With ``trace`` each round runs one untraced and one traced
    iteration, alternating which goes first.  The untraced one wraps
    only ``RJMS.run`` and ``Job.complete`` to stamp completions for
    ``sim.cost_growth``, so the layer wrappers do not dilute it.
    """
    from perfbench import metrics as M
    from perfbench.layers import layer_metrics
    from perfbench.tracing import (LayerView, SpanRecorder, cost_growth,
                                   layer_targets, stamp_targets)
    from perfbench.workloads import DEFAULT_SEED

    reset_peak_rss()
    pins = json.loads((HERE / "pinned.json").read_text())
    wl.pin = pins.get(wl.name) if seed == DEFAULT_SEED else None
    inputs, setup_s = setup(wl, seed, import_s, ref)

    tally = Tally()
    plain, hosts, rates, traced, growth, layer_rows, recorders = (
        [] for _ in range(7))
    rounds = crashes = 0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        enough = (len(traced) >= MIN_TRACED if trace
                  else len(plain) >= MIN_ITERATIONS)
        if elapsed >= seconds and (enough or crashes >= MIN_ITERATIONS):
            break
        kinds = ("traced", "stamped") if rounds % 2 else ("stamped",
                                                           "traced")
        for kind in (kinds if trace else ("plain",)):
            rec, targets = None, ()
            if kind != "plain":
                rec = SpanRecorder()
                targets = (layer_targets() if kind == "traced"
                           else stamp_targets())
            got = timed_iteration(wl, inputs, tally, ref, rec, targets)
            if got is None:
                crashes += 1
                continue
            if kind == "traced":
                traced.append(got[0])
                layer_rows.append(layer_metrics(rec, got[2], wl))
                recorders.append(rec)
            else:
                plain.append(got[0])
                hosts.append(got[1])
                rates.append(got[2].items / got[0])
                if kind == "stamped" and wl.kind == "simulation":
                    growth.append(cost_growth(LayerView(rec)))
            got = None  # free this iteration's results before the next
            gc.collect()  # and their reference cycles, outside the timing
        rounds += 1

    if trace:
        spans_dir = SCRATCH / "spans" / wl.name
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        for i, rec in enumerate(recorders):
            rec.save(spans_dir / f"iteration{i}.npz", i)
        values = {}
        for m in M.PER_LAYER:
            col = [row[m.name] for row in layer_rows if m.name in row]
            if m.name in M.EXACT_COUNTS and len(set(col)) > 1:
                tally.failed += 1
                tally.errors.append(f"{m.name} varied across traced "
                                    f"iterations: {col}")
            values[m.name] = float(statistics.median(col)) if col else 0.0
        if growth:
            values["sim.cost_growth"] = statistics.median(growth)
        if plain and traced:
            values["trace.overhead_ratio"] = (statistics.median(traced)
                                              / statistics.median(plain)
                                              - 1.0)
        table = M.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain) if plain else 0.0,
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        table = M.END_TO_END
    return {
        "workload": wl.name, "seed": seed, "trace": trace,
        "samples": len(plain), "traced_samples": len(traced),
        "host_wall_s": statistics.median(hosts) if hosts else 0.0,
        "host_speed": (statistics.median(h / p for h, p in zip(hosts, plain))
                       if hosts and not trace else 1.0),
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {m.name: {"value": values.get(m.name, 0.0),
                             "unit": m.unit} for m in table},
    }


def describe(res: dict) -> str:
    name = res["workload"]
    lines = [f"{name} seed={res['seed']} trace={int(res['trace'])} "
             f"iterations={res['samples']} traced={res['traced_samples']} "
             f"error_rate={res['failed']}/{res['attempted']}"
             f" host_wall_s={res['host_wall_s']:.4g}"
             + ("" if res["trace"] else
                f" host_speed={res['host_speed']:.4g}")]
    for key, m in res["metrics"].items():
        label = key
        if key == "items_per_s":
            label = "cells_per_s" if name == "sweep-tiny" else "jobs_per_s"
        extra = f" (n={res['samples']})" if key == "wall_s" else ""
        lines.append(f"  {label:<36s} {m['value']:>14.6g} {m['unit']}{extra}")
    lines += [f"  error: {e}" for e in res["errors"][:10]]
    return "\n".join(lines)


def main(argv=None) -> int:
    from perfbench import metrics as M
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + M.ALL)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the pinned default seed)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured seconds per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=SCRATCH))
    tempfile.tempdir = str(tmp)  # sweep marker files stay in the checkout
    try:
        from perfbench.workloads import DEFAULT_SEED, build
        seed = DEFAULT_SEED if args.seed is None else args.seed
        from perfbench.hostref import HostReference
        ref = HostReference()
        import_s = import_seconds()
        workloads = build(SCRATCH)
        names = M.ALL if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = measure(workloads[name], seed, args.seconds,
                          bool(args.trace), import_s, ref)
            print(describe(res), flush=True)
            results.append(res)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    sys.exit(main())
