"""Self-test of the benchmark harness.  Run from the repository root::

    python3 perfbench/selftest.py

Checks that nested spans' self times add up to the root span, that
every wrapper is gone after a traced iteration (also when it raises),
that the correctness checks reject a wrong result, that a seed changes
the generated inputs but not the set of metric names, and that
``BENCHMARK.json`` names exactly the metrics and workloads of
``metrics.py``.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def tiny_power_managed():
    from perfbench.workloads import PowerManaged
    from repro import units
    return PowerManaged(
        "power-managed",
        dict(n_jobs=24, mean_interarrival_s=2200.0, max_nodes_log2=3,
             runtime_median_s=3 * units.SECONDS_PER_HOUR, runtime_sigma=0.8,
             suspendable_fraction=0.5),
        n_nodes=16, zone="DE", provider_seed=9, idle_power_off=False)


def test_self_times_sum_to_root() -> None:
    from perfbench.tracing import SpanRecorder, Tracing

    class Toy:
        def leaf(self):
            time.sleep(0.002)

        def mid(self):
            time.sleep(0.001)
            self.leaf()
            self.leaf()

        def top(self):
            self.mid()
            self.leaf()
            time.sleep(0.001)

    rec = SpanRecorder()
    targets = [(Toy, "top", "top"), (Toy, "mid", "mid"),
               (Toy, "leaf", "leaf")]
    with Tracing(rec, targets):
        with rec.span("root"):
            Toy().top()
            Toy().leaf()
    a, self_s = rec.arrays(), rec.self_times()
    root = int((a["parent"] == -1).nonzero()[0][0])
    root_dur = a["end"][root] - a["start"][root]
    expect(len(self_s) == 7, f"expected 7 spans, got {len(self_s)}")
    expect(abs(self_s.sum() - root_dur) <= 1e-9 * max(root_dur, 1.0),
           f"self times sum {self_s.sum()} != root {root_dur}")
    expect(bool((self_s >= 0).all()), "negative self time")
    mid = rec.names.index("mid")
    parents = {rec.names[a["name_id"][i]] for i in range(len(self_s))
               if a["parent"][i] >= 0
               and a["name_id"][a["parent"][i]] == mid}
    expect(parents == {"leaf"}, f"mid's children: {parents}")


def test_wrappers_removed() -> None:
    from perfbench.tracing import (SpanRecorder, Tracing, layer_targets,
                                   stamp_targets)
    targets = layer_targets()
    before = {(id(o), a): vars(o)[a] for o, a, _ in targets}
    wl = tiny_power_managed()
    jobs = wl.make_inputs(1)
    rec = SpanRecorder()
    with Tracing(rec, targets):
        legs = wl.iterate(jobs)
    expect(len(rec.start) > 0, "traced iteration recorded no spans")
    expect(not wl.check(jobs, legs).errors, "tiny run failed its checks")
    for owner, attr, _ in targets + stamp_targets():
        expect(vars(owner)[attr] is before[(id(owner), attr)],
               f"{owner!r}.{attr} still wrapped")
    n = len(rec.start)
    wl.iterate(jobs)
    expect(len(rec.start) == n, "spans recorded after restore")
    try:
        with Tracing(SpanRecorder(), targets):
            raise KeyError("boom")
    except KeyError:
        pass
    for owner, attr, _ in targets:
        expect(vars(owner)[attr] is before[(id(owner), attr)],
               f"{owner!r}.{attr} still wrapped after an exception")


def test_host_reference_samples_and_restores() -> None:
    import signal
    from perfbench.hostref import BRACKET, HostReference

    def busy(seconds: float) -> int:
        n, t_end = 0, time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            n += 1
        return n

    def fails() -> None:
        busy(0.1)
        raise KeyError("boom")

    before = signal.getsignal(signal.SIGALRM)
    ref = HostReference()
    n, host, scale = ref.time(busy, 0.3)
    expect(n > 0 and scale > 0, "no result or no scale")
    expect(0.2 < host < 0.3, f"host seconds {host} should exclude sampling")
    expect(len(ref.samples) > 2 * BRACKET + 2,
           f"only {len(ref.samples)} samples around a 0.3 s call")
    for call in (lambda: ref.time(busy, 0.1), lambda: ref.time(fails)):
        try:
            call()
        except KeyError:
            pass
        expect(signal.getsignal(signal.SIGALRM) is before,
               "SIGALRM handler not restored")
        expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
               "interval timer still armed")


def test_checks_reject_wrong_results() -> None:
    from perfbench.workloads import (leg_digest, oracle_errors,
                                     pin_errors)
    wl = tiny_power_managed()
    jobs = wl.make_inputs(1)
    legs = wl.iterate(jobs)
    leg = legs[0]
    expect(not oracle_errors(leg, len(jobs)), "oracle rejects a good run")
    good = leg.result.total_carbon_kg
    leg.result.total_carbon_kg = good * (1 + 1e-7)
    expect(any("carbon" in e for e in oracle_errors(leg, len(jobs))),
           "oracle accepted carbon off by 1e-7")
    leg.result.total_carbon_kg = good
    expect(any("jobs completed" in e
               for e in oracle_errors(leg, len(jobs) + 1)),
           "oracle accepted a missing job")
    pin = leg_digest(legs)
    expect(not pin_errors(leg_digest(legs), pin), "pin rejects itself")
    leg.result.jobs[0].start_time += 1e-6
    expect(pin_errors(leg_digest(legs), pin), "pin accepted a moved start")


def test_seed_changes_inputs() -> None:
    from perfbench.workloads import build
    for name, wl in build(HERE / ".scratch").items():
        a = wl.input_digest(wl.make_inputs(1))
        b = wl.input_digest(wl.make_inputs(2))
        expect(a != b, f"{name}: seeds 1 and 2 gave the same inputs")
        expect(a == wl.input_digest(wl.make_inputs(1)),
               f"{name}: seed 1 is not reproducible")


def test_metric_names_independent_of_seed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    for trace in (0, 1):
        for seed in (1, 2):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 "power-managed", "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
                check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], f"result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0,
                   f"seed {seed} trace {trace} failed: {out.stdout}")
            expect(list(res["metrics"]) == want[trace],
                   f"seed {seed} trace {trace} names differ")


def test_benchmark_json_matches_tables() -> None:
    from perfbench import metrics as M
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(M.ALL),
           "workload names differ")
    expect(spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in M.END_TO_END], "end_to_end differs")
    expect(spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER], "per_layer differs")
    expect(set(M.EXACT_COUNTS) <= {m.name for m in M.PER_LAYER},
           "an exact count is not a per-layer metric")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE.parent))
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_")]
    for test in tests:
        t0 = time.perf_counter()
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__} ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
