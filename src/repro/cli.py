"""Command-line interface: run scenarios and regenerate paper artifacts.

Examples::

    python -m repro scenario --app xgc --policy cross-layer --steps 30
    python -m repro figure fig08 --fast
    python -m repro figure headline
    python -m repro cluster --nodes 32 --arbitration adaptbf
    python -m repro tables
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

__all__ = ["main", "build_parser", "FIGURES"]


def _fig01(fast: bool, workers=1):
    from repro.experiments.fig01 import run_fig01

    return run_fig01(max_steps=15 if fast else 40)


def _fig02(fast: bool, workers=1):
    from repro.experiments.fig02 import run_fig02

    return run_fig02(ratios=(4, 16, 64) if fast else (4, 16, 64, 256, 512))


def _fig05(fast: bool, workers=1):
    from repro.experiments.fig05 import run_fig05

    return run_fig05()


def _fig07(fast: bool, workers=1):
    from repro.experiments.fig07 import run_fig07

    return run_fig07(max_steps=60)


def _fig08(fast: bool, workers=1):
    from repro.experiments.fig08 import run_fig08

    return run_fig08(replications=1 if fast else 3, max_steps=30 if fast else 60, workers=workers)


def _fig09(fast: bool, workers=1):
    from repro.experiments.fig09 import run_fig09

    return run_fig09(replications=1 if fast else 2, max_steps=30 if fast else 50)


def _fig10(fast: bool, workers=1):
    from repro.experiments.fig10 import run_fig10

    return run_fig10(replications=1 if fast else 2, max_steps=30 if fast else 50, workers=workers)


def _fig11(fast: bool, workers=1):
    from repro.experiments.fig11 import run_fig11

    return run_fig11(include_over_resolved=not fast)


def _fig12(fast: bool, workers=1):
    from repro.experiments.fig12 import run_fig12

    return run_fig12(
        replications=1 if fast else 3,
        max_steps=25 if fast else 50,
        noise_counts=(1, 3, 6) if fast else (1, 2, 3, 4, 5, 6),
        workers=workers,
    )


def _fig13(fast: bool, workers=1):
    from repro.experiments.fig13 import run_fig13

    return run_fig13(replications=1 if fast else 3, max_steps=25 if fast else 60, workers=workers)


def _fig14(fast: bool, workers=1):
    from repro.experiments.fig14 import run_fig14

    return run_fig14(replications=1 if fast else 3, max_steps=25 if fast else 60, workers=workers)


def _fig15(fast: bool, workers=1):
    from repro.experiments.fig15 import run_fig15

    return run_fig15()


def _fig16(fast: bool, workers=1):
    from repro.experiments.fig16 import run_fig16

    return run_fig16(node_counts=(1, 2) if fast else (1, 2, 4))


def _headline(fast: bool, workers=1):
    from repro.experiments.headline import run_headline

    return run_headline(replications=1 if fast else 3, max_steps=30 if fast else 60)


def _threetier(fast: bool, workers=1):
    from repro.experiments.threetier import run_threetier

    return run_threetier(replications=1 if fast else 2, max_steps=25 if fast else 50)


def _campaign(fast: bool, workers=1):
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.workloads.churn import ChurnSpec

    return run_campaign(
        CampaignConfig(
            steps=24 if fast else 60,
            timeseries_window=4 if fast else 8,
            churn=ChurnSpec(arrival_rate=1 / 120.0, mean_lifetime=600.0),
            degrade_to=0.4,
            estimation_interval=10,
            seed=4,
        )
    )


def _resilience(fast: bool, workers=1):
    from repro.experiments.resilience import run_resilience

    return run_resilience(max_steps=20 if fast else 40)


def _stability(fast: bool, workers=1):
    from repro.experiments.stability import run_stability

    return run_stability(max_steps=16 if fast else 40, workers=workers)


def _qosplane(fast: bool, workers=1):
    from repro.experiments.qosplane import run_qosplane

    return run_qosplane(max_steps=8 if fast else 20)


def _cluster(fast: bool, workers=1):
    from repro.experiments.cluster import run_cluster_compare

    return run_cluster_compare(
        n_nodes=8 if fast else 32,
        shards=2 if fast else 4,
        tenants_per_node=2 if fast else 4,
        rounds=12 if fast else 40,
        workers=workers,
    )


#: Regenerable paper artifacts: name -> callable(fast, workers=1).
#: ``workers`` caps the processes a figure's grid sweep may use (a
#: SweepExecutor, which pools only when the grid pays for it) where the
#: underlying figure supports it; the rest ignore it.
FIGURES: dict[str, Callable[..., object]] = {
    "fig01": _fig01,
    "fig02": _fig02,
    "fig05": _fig05,
    "fig07": _fig07,
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "headline": _headline,
    "threetier": _threetier,
    "campaign": _campaign,
    "resilience": _resilience,
    "stability": _stability,
    "qosplane": _qosplane,
    "cluster": _cluster,
}


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="enable observability and write the sim-time event stream as JSONL",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="enable observability and write a metrics snapshot (JSON, or CSV for *.csv)",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_out", None) or getattr(args, "metrics_out", None))


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable collection for this command if any obs output was requested."""
    if not _obs_requested(args):
        return False
    from repro.obs import OBS

    OBS.reset()
    OBS.enable()
    return True


def _obs_finish(args: argparse.Namespace) -> None:
    """Write the requested outputs and return to the disabled default."""
    from repro.obs import OBS
    from repro.obs.export import write_events_jsonl, write_metrics_snapshot

    try:
        if args.trace_out:
            n = write_events_jsonl(OBS.tracer, args.trace_out)
            dropped = OBS.tracer.dropped
            suffix = f" ({dropped} dropped by the ring buffer)" if dropped else ""
            print(f"{n} trace events written to {args.trace_out}{suffix}", file=sys.stderr)
        if args.metrics_out:
            fmt = write_metrics_snapshot(OBS.registry, args.metrics_out)
            print(f"metrics snapshot ({fmt}) written to {args.metrics_out}", file=sys.stderr)
    finally:
        OBS.disable()
        OBS.reset()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tango (SC'24) reproduction: scenarios and paper artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.apps import APPS
    from repro.core.controller import POLICIES
    from repro.core.estimator import ESTIMATORS
    from repro.faults.campaign import FAULT_CAMPAIGNS

    sc = sub.add_parser("scenario", help="run one single-node scenario")
    sc.add_argument("--app", default="xgc", choices=sorted(APPS))
    sc.add_argument("--policy", default="cross-layer", choices=sorted(POLICIES))
    sc.add_argument("--steps", type=int, default=30)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--priority", type=float, default=10.0)
    sc.add_argument("--bound", type=float, default=0.01, help="prescribed NRMSE bound")
    sc.add_argument("--noises", type=int, default=6, help="number of Table IV noises")
    sc.add_argument("--estimator", default="dft", choices=sorted(ESTIMATORS))
    sc.add_argument(
        "--faults",
        default=None,
        choices=sorted(FAULT_CAMPAIGNS),
        help="arm a fault campaign (seeded from --seed)",
    )
    sc.add_argument("--csv", metavar="PATH", help="write the per-step trace as CSV")
    sc.add_argument("--json", action="store_true", help="print a JSON summary")
    sc.add_argument(
        "--sparkline",
        action="store_true",
        help="print I/O-time and bandwidth sparklines for the run",
    )
    _add_obs_args(sc)

    fig = sub.add_parser("figure", help="regenerate one paper figure/table")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--fast", action="store_true", help="reduced-scale run")
    fig.add_argument("--out", metavar="PATH", help="also write the rows to a file")
    fig.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="most processes a grid sweep may use ('auto' = all CPUs); a pool "
        "starts only when the timed first cell shows it pays; figures "
        "without a sweep ignore it",
    )
    _add_obs_args(fig)

    st = sub.add_parser(
        "stability",
        help="score the controller family against stability reference inputs",
    )
    from repro.control import CONTROLLERS

    st.add_argument("--app", default="xgc", choices=sorted(APPS))
    st.add_argument("--policy", default="cross-layer", choices=sorted(POLICIES))
    st.add_argument(
        "--controllers",
        default="tango,pid,mpc",
        metavar="NAMES",
        help=f"comma-separated controller names ({', '.join(sorted(CONTROLLERS))})",
    )
    st.add_argument(
        "--inputs",
        default="step,ramp,osc",
        metavar="NAMES",
        help="comma-separated reference inputs (step, ramp, osc)",
    )
    st.add_argument("--steps", type=int, default=40)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="process-pool size for the (controller x input) grid "
        "('auto' = all CPUs)",
    )
    st.add_argument("--json", action="store_true", help="print a JSON summary")
    _add_obs_args(st)

    exp = sub.add_parser("export", help="run an artifact and write JSON plot data")
    exp.add_argument("name", choices=sorted(FIGURES))
    exp.add_argument("path", help="output JSON file")
    exp.add_argument("--fast", action="store_true", help="reduced-scale run")
    exp.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="most processes a grid sweep may use ('auto' = all CPUs); a pool "
        "starts only when the timed first cell shows it pays; figures "
        "without a sweep ignore it",
    )

    cl = sub.add_parser(
        "cluster",
        help="run a node-sharded cluster scenario (one arbitration policy)",
    )
    from repro.cluster.arbitration import ARBITRATION

    cl.add_argument("--nodes", type=int, default=32)
    cl.add_argument("--shards", type=int, default=4)
    cl.add_argument("--tenants", type=int, default=4, help="tenants per node")
    cl.add_argument("--rounds", type=int, default=40)
    cl.add_argument("--arbitration", default="centralized", choices=sorted(ARBITRATION))
    cl.add_argument("--seed", type=int, default=0)
    cl.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="shard worker processes, capped by shards and REPRO_WORKERS "
        "('auto' = all CPUs); the default 1 runs every shard in-process, "
        "since at this command's default shape worker start-up costs more "
        "than the shards' work",
    )
    cl.add_argument("--json", action="store_true", help="print a JSON summary")

    sub.add_parser("tables", help="print the paper's survey tables")
    sub.add_parser("list", help="list regenerable artifacts")
    return parser


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import run_scenario
    from repro.experiments.trace import scenario_summary, write_csv
    from repro.workloads.noise import TABLE_IV_NOISE

    cfg = ScenarioConfig(
        app=args.app,
        policy=args.policy,
        max_steps=args.steps,
        seed=args.seed,
        priority=args.priority,
        prescribed_bound=args.bound,
        noise=TABLE_IV_NOISE[: args.noises],
        estimator=args.estimator,
        faults=args.faults,
    )
    obs_on = _obs_begin(args)
    try:
        result = run_scenario(cfg)
    finally:
        if obs_on:
            _obs_finish(args)
    summary = scenario_summary(result)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"{args.app} / {args.policy}: {len(result.records)} steps")
        print(f"  mean I/O time : {result.mean_io_time:.2f} s (std {result.std_io_time:.2f})")
        print(f"  mean rung     : {result.mean_target_rung:.2f} / {result.ladder.num_buckets}")
        print(f"  outcome error : {result.mean_outcome_error:.4f}")
        print(f"  weight moves  : {len(result.weight_history)}")
        if args.faults:
            print(f"  read errors   : {result.total_read_errors}")
            print(f"  skipped objs  : {result.total_skipped_objects} "
                  f"({len(result.degraded_steps)} degraded steps)")
            print(f"  mode moves    : {len(result.mode_transitions)}")
    if args.sparkline:
        from repro.experiments.report import sparkline

        print(f"  io times      : {sparkline(result.io_times)}")
        print(f"  measured BW   : {sparkline(result.measured_bandwidths)}")
        print(f"  target rungs  : {sparkline([r.target_rung for r in result.records])}")
    if args.csv:
        write_csv(result.records, args.csv)
        print(f"trace written to {args.csv}", file=sys.stderr)
    return 0


def _parse_workers(raw: str):
    return raw if raw == "auto" else int(raw)


def _cmd_figure(args: argparse.Namespace) -> int:
    obs_on = _obs_begin(args)
    try:
        result = FIGURES[args.name](args.fast, workers=_parse_workers(args.workers))
    finally:
        if obs_on:
            _obs_finish(args)
    text = result.format_rows()
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"rows written to {args.out}", file=sys.stderr)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.control import CONTROLLERS
    from repro.experiments.stability import STABILITY_INPUTS, run_stability

    controllers = tuple(c for c in args.controllers.split(",") if c)
    inputs = tuple(i for i in args.inputs.split(",") if i)
    for name in controllers:
        if name not in CONTROLLERS:
            print(f"unknown controller {name!r}; expected one of "
                  f"{', '.join(sorted(CONTROLLERS))}", file=sys.stderr)
            return 2
    for name in inputs:
        if name not in STABILITY_INPUTS:
            print(f"unknown input {name!r}; expected one of "
                  f"{', '.join(STABILITY_INPUTS)}", file=sys.stderr)
            return 2
    obs_on = _obs_begin(args)
    try:
        result = run_stability(
            app=args.app,
            policy=args.policy,
            controllers=controllers,
            inputs=inputs,
            max_steps=args.steps,
            seed=args.seed,
            workers=_parse_workers(args.workers),
        )
    finally:
        if obs_on:
            _obs_finish(args)
    if args.json:
        rows = [
            {k: ("nan" if isinstance(v, float) and v != v else v)
             for k, v in asdict(r).items()}
            for r in result.rows
        ]
        print(json.dumps({"rows": rows}, indent=2))
    else:
        print(result.format_rows())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_figure

    export_figure(args.name, args.path, fast=args.fast, workers=_parse_workers(args.workers))
    print(f"JSON plot data written to {args.path}", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, make_shard_pool, run_cluster

    config = ClusterConfig(
        n_nodes=args.nodes,
        shards=args.shards,
        tenants_per_node=args.tenants,
        rounds=args.rounds,
        arbitration=args.arbitration,
        seed=args.seed,
        workers=_parse_workers(args.workers),
    )
    pool = make_shard_pool(config)
    try:
        result = run_cluster(config, pool=pool)
    finally:
        pool.close()
    summary = {
        "arbitration": args.arbitration,
        "nodes": args.nodes,
        "shards": args.shards,
        "workers": result.workers,
        "rounds": args.rounds,
        "events_executed": result.events_executed,
        "events_per_sec": result.events_per_sec,
        "jain_fairness": result.jain_fairness,
        "p99_latency_s": result.p99_latency_s,
        "slo_violation_rate": result.slo_violation_rate,
        "messages_by_kind": dict(sorted(result.messages_by_kind.items())),
        "conservation_error": result.conservation_error,
        "fingerprint": result.fingerprint(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"cluster {args.arbitration}: {args.nodes} nodes x {args.tenants} tenants, "
          f"{args.shards} shards on {result.workers} worker(s), {args.rounds} rounds")
    print(f"  events        : {result.events_executed:,} "
          f"({result.events_per_sec:,.0f} events/s)")
    print(f"  Jain fairness : {result.jain_fairness:.4f}")
    print(f"  p99 latency   : {result.p99_latency_s:.2f} s")
    print(f"  SLO violations: {result.slo_violation_rate * 100:.1f}% of "
          f"{sum(r.completions for r in result.reports)} requests")
    msgs = ", ".join(f"{k}={v}" for k, v in sorted(result.messages_by_kind.items()))
    print(f"  bus traffic   : {result.messages_total} msgs ({msgs or '-'})")
    if result.conservation_error is not None:
        print(f"  rate conservation error: {result.conservation_error:.2e}")
    print(f"  fingerprint   : {summary['fingerprint'][:16]}")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1_text, table2_text, table4_text

    print(table1_text())
    print()
    print(table2_text())
    print()
    print(table4_text())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(FIGURES):
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "scenario": _cmd_scenario,
        "figure": _cmd_figure,
        "stability": _cmd_stability,
        "export": _cmd_export,
        "cluster": _cmd_cluster,
        "tables": _cmd_tables,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
