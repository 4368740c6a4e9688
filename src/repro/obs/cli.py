"""``repro obs`` subcommands: trace, stats, top.

Operator entry points into the observability layer:

* ``repro obs trace SWEEP --out chrome.json`` — run a registered sweep
  with tracing enabled and export the merged (parent + pool workers)
  timeline as Chrome trace-event JSON for ``chrome://tracing`` /
  https://ui.perfetto.dev, optionally also as raw JSONL spans;
* ``repro obs stats`` — run an instrumented scheduling simulation and
  print the global metrics registry in Prometheus text exposition
  format (plus per-span latency histograms folded from the trace);
* ``repro obs top`` — rank the slowest individual spans, either from a
  saved JSONL trace or from a freshly traced demo run.

All three enable tracing only for their own run and restore the prior
state, so importing this module never turns profiling on globally.
"""

from __future__ import annotations

from typing import List

from repro import obs

__all__ = ["run_trace", "run_stats", "run_top"]

#: ``repro obs top`` prints millisecond durations.
_MS_PER_S = 1000.0


def _run_registered_traced(name: str, workers: int) -> List[obs.Span]:
    """Run one registered sweep under tracing; return its spans."""
    from repro.analysis.sweep import SweepCellError
    from repro.parallel import run_registered

    obs.reset()
    with obs.scope() as tracer:
        try:
            run_registered(name, workers=workers)
        except (KeyError, ValueError) as e:
            raise SystemExit(f"obs: {e.args[0] if e.args else e}")
        except SweepCellError as e:
            raise SystemExit(f"obs: {e}")
        return tracer.drain()


def run_trace(args) -> int:
    """``repro obs trace``: traced sweep -> Chrome/JSONL trace files."""
    spans = _run_registered_traced(args.scenario, args.workers)
    n = obs.write_chrome(spans, args.out)
    print(f"wrote {n} spans ({len(set(s.pid for s in spans))} processes) "
          f"to {args.out} [chrome://tracing]")
    if args.jsonl:
        obs.write_jsonl(spans, args.jsonl)
        print(f"wrote raw spans to {args.jsonl} [jsonl]")
    print()
    print(obs.render_stats_table(obs.span_stats(spans)))
    return 0


def run_stats(args) -> int:
    """``repro obs stats``: instrumented run -> Prometheus exposition."""
    import math

    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS, CarbonBackfillPolicy
    from repro.simulator import (
        Cluster,
        ComponentPowerModel,
        NodePowerModel,
        WorkloadConfig,
        WorkloadGenerator,
    )

    obs.reset()
    with obs.scope() as tracer:
        pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50, 240),) * 2)
        cluster = Cluster(args.nodes, pm, idle_power_off=True)
        max_log2 = min(5, int(math.log2(args.nodes)))
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=args.jobs, max_nodes_log2=max_log2),
            seed=args.seed).generate()
        RJMS(cluster, jobs, CarbonBackfillPolicy(),
             provider=SyntheticProvider(args.zone, seed=args.seed)).run()
        spans = tracer.drain()

    reg = obs.metrics()
    for s in spans:  # per-span-name latency histograms from the trace
        reg.histogram("obs.span_dur_s",
                      labels={"span": s.name}).observe(s.dur_s)
    print(reg.render_prometheus(prefix="repro"), end="")
    return 0


def run_top(args) -> int:
    """``repro obs top``: slowest individual spans."""
    if args.trace:
        spans: List[obs.Span] = obs.read_jsonl(args.trace)
        source = args.trace
    else:
        spans = _run_registered_traced(args.scenario, args.workers)
        source = f"traced run of sweep {args.scenario!r}"
    ranked = obs.slowest_spans(spans, n=args.n, name=args.name)
    scope = f" named {args.name!r}" if args.name else ""
    print(f"slowest {len(ranked)} of {len(spans)} spans{scope} "
          f"({source}):")
    for s in ranked:
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(s.attrs.items()))
        flag = " ERROR" if s.error else ""
        lane = s.worker or "main"
        print(f"{s.dur_s * _MS_PER_S:>10.3f} ms  {s.name:<24} "
              f"pid={s.pid} {lane}{flag}"
              + (f"  [{extras}]" if extras else ""))
    return 0


def add_obs_subparsers(obs_parser) -> None:
    """Attach trace/stats/top to the ``repro obs`` subparser."""
    sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    tr = sub.add_parser(
        "trace", help="run a registered sweep traced, export the timeline")
    tr.add_argument("scenario", nargs="?", default="spin",
                    help="registered sweep name (default: spin; "
                         "see `repro sweep --list`)")
    tr.add_argument("--workers", type=int, default=2,
                    help="process-pool size (default: 2 — exercises "
                         "cross-process span merging)")
    tr.add_argument("--out", default="trace.json",
                    help="Chrome trace-event JSON output path")
    tr.add_argument("--jsonl", default=None, metavar="FILE",
                    help="also write raw spans as JSONL (what "
                         "`repro obs top --trace` reads)")

    st = sub.add_parser(
        "stats", help="instrumented simulation -> Prometheus exposition")
    st.add_argument("--nodes", type=int, default=16)
    st.add_argument("--jobs", type=int, default=50)
    st.add_argument("--zone", default="DE")
    st.add_argument("--seed", type=int, default=0)

    top = sub.add_parser("top", help="rank the slowest individual spans")
    top.add_argument("--trace", default=None, metavar="FILE",
                     help="JSONL trace to read (default: trace a fresh "
                          "demo sweep)")
    top.add_argument("--scenario", default="spin",
                     help="sweep to trace when no --trace file is given")
    top.add_argument("--workers", type=int, default=2)
    top.add_argument("-n", type=int, default=10,
                     help="how many spans to show (default: 10)")
    top.add_argument("--name", default=None,
                     help="restrict ranking to one span name")


def run(args) -> int:
    """Dispatch one parsed ``repro obs`` invocation."""
    if args.obs_command == "trace":
        return run_trace(args)
    if args.obs_command == "stats":
        return run_stats(args)
    return run_top(args)
