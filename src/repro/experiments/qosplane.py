"""Multi-tenant noisy-neighbor scenario with declarative SLOs.

Two adaptive analytics tenants — a latency-sensitive ``prod`` and a
best-effort ``batch`` — share a node with the Table IV checkpointing
noise, and the run is scored against per-tenant SLO targets.  The same
workload executes twice:

* **baseline** — FIFO dispatch with *observation-only* policies (just
  SLO targets, no enforcement): the legacy mechanism, plus scoring.
  This is what a noisy neighbor does to an unprotected tenant.
* **qos** — a declarative policy set with ``max_inflight=3``: the
  loudest checkpointer is token-bucket rate-shaped, tenants carry
  priority classes, and priority admission control holds each device
  to three requests in flight.

The result carries per-tenant step timings, the SLO board's
per-request violation counts, and per-stage data-plane decision
counters (collected through :mod:`repro.obs`), exported end-to-end via
``repro figure qosplane`` / ``repro export qosplane``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataplane import QosPolicy, SloTarget
from repro.engine.session import ScenarioSession
from repro.experiments.config import PRIORITY_HIGH, PRIORITY_LOW, ScenarioConfig
from repro.experiments.report import format_table
from repro.obs import OBS, enabled_scope
from repro.util.units import MiB, mb_per_s

__all__ = ["QosPlaneRow", "QosPlaneResult", "run_qosplane", "format_rows"]

#: SLO targets shared by both runs (scored, never enforced).
PROD_SLO = SloTarget("p99_latency", 5.0)
BATCH_SLO = SloTarget("bandwidth_floor", mb_per_s(2))

#: Observation-only policies: score, enforce nothing.
BASELINE_POLICIES: tuple = (
    ("prod", QosPolicy(slo=PROD_SLO)),
    ("batch", QosPolicy(slo=BATCH_SLO)),
)

#: The declarative QoS contract: priority classes on the tenants,
#: admission control on the shared device (the run's ``max_inflight``),
#: and burst-credit token-bucket shaping on the loudest
#: checkpointer (noise-6 writes 1 GiB every 120 s; shaping admits a
#: 512 MiB burst then paces at 15 MB/s, so its checkpoints stop
#: monopolising admission slots exactly when the analytics read).
#: Note what is *not* here: no write caps.  A device-level cap keeps a
#: slow checkpoint active for longer, which raises the HDD's
#: concurrency thrash for everyone — shaping + admission control reduce
#: the *stream count*, which is what the Fig. 1 interference model
#: actually punishes.
QOS_POLICIES: tuple = (
    ("prod", QosPolicy(priority="high", slo=PROD_SLO)),
    ("batch", QosPolicy(priority="low", slo=BATCH_SLO)),
    ("noise-4", QosPolicy(priority="low")),
    ("noise-5", QosPolicy(priority="low")),
    (
        "noise-6",
        QosPolicy(rate_bps=mb_per_s(15), burst_bytes=512 * MiB, priority="low"),
    ),
)


@dataclass(frozen=True)
class QosPlaneRow:
    """One (scenario, tenant) outcome."""

    scenario: str
    tenant: str
    mean_io_time: float
    p99_io_time: float
    completions: int
    violations: int
    p99_latency_s: float
    slo_kind: str


@dataclass
class QosPlaneResult:
    rows: list[QosPlaneRow] = field(default_factory=list)
    #: Per-scenario SLO board reports (tenant -> summary dict).
    slo: dict[str, dict] = field(default_factory=dict)
    #: Per-scenario data-plane decision counters
    #: (``metric name -> {label string: value}``).
    stage_counters: dict[str, dict] = field(default_factory=dict)

    def tenant_row(self, scenario: str, tenant: str) -> QosPlaneRow:
        for row in self.rows:
            if row.scenario == scenario and row.tenant == tenant:
                return row
        raise KeyError(f"no row for ({scenario!r}, {tenant!r})")

    def violation_total(self, scenario: str) -> int:
        return sum(r["violations"] for r in self.slo[scenario].values())

    def format_rows(self) -> str:
        return format_rows(self)


def _counter_state() -> dict[str, dict]:
    """Current absolute values of every ``dataplane.*`` counter series."""
    reg = OBS.registry
    state: dict[str, dict] = {}
    for name in reg.names():
        if name.startswith("dataplane."):
            metric = reg.get(name)
            if metric.kind == "counter":
                state[name] = dict(metric.series())
    return state


def _counter_delta(before: dict, after: dict) -> dict[str, dict[str, float]]:
    """Per-series growth between two states, with readable label keys."""
    delta: dict[str, dict[str, float]] = {}
    for name, series in after.items():
        prior = before.get(name, {})
        for key, value in series.items():
            grown = value - prior.get(key, 0.0)
            if grown:
                label = ",".join(f"{k}={v}" for k, v in key) or "total"
                delta.setdefault(name, {})[label] = grown
    return delta


def _run_one(
    scenario: str,
    policies: tuple,
    max_inflight: int | None,
    *,
    max_steps: int,
    seed: int,
    result: QosPlaneResult,
) -> None:
    config = ScenarioConfig(
        max_steps=max_steps,
        seed=seed,
        qos_policies=policies,
        max_inflight=max_inflight,
    )
    # Per-stage decision counters are part of this figure's output, so
    # the run collects them regardless of the ambient OBS state (the
    # scope restores it; deltas keep an outer --metrics-out run honest).
    with enabled_scope():
        before = _counter_state()
        session = ScenarioSession(config)
        session.launch_noise()
        for name, priority in (("prod", PRIORITY_HIGH), ("batch", PRIORITY_LOW)):
            _, _, ladder = session.build_ladder()
            dataset = session.stage(f"{name}-data", ladder)
            controller = session.build_controller(ladder, priority=priority)
            session.add_analytics(name, dataset, controller)
        session.run(chunk=None)
        result.stage_counters[scenario] = _counter_delta(before, _counter_state())

    board = session.dataplane.slo
    result.slo[scenario] = board.report()
    for name in ("prod", "batch"):
        records = session.drivers[name].records
        io_times = [r.io_time for r in records]
        tracker = board.trackers.get(name)
        result.rows.append(
            QosPlaneRow(
                scenario=scenario,
                tenant=name,
                mean_io_time=float(np.mean(io_times)) if io_times else 0.0,
                p99_io_time=float(np.percentile(io_times, 99)) if io_times else 0.0,
                completions=tracker.completions if tracker else 0,
                violations=tracker.violations if tracker else 0,
                p99_latency_s=tracker.p99_latency() if tracker else 0.0,
                slo_kind=tracker.target.kind if tracker and tracker.target else "-",
            )
        )


def run_qosplane(*, max_steps: int = 20, seed: int = 0) -> QosPlaneResult:
    """Baseline vs declarative-QoS runs of the noisy-neighbor scenario."""
    result = QosPlaneResult()
    _run_one(
        "baseline",
        BASELINE_POLICIES,
        None,
        max_steps=max_steps,
        seed=seed,
        result=result,
    )
    _run_one(
        "qos",
        QOS_POLICIES,
        3,
        max_steps=max_steps,
        seed=seed,
        result=result,
    )
    return result


def format_rows(result: QosPlaneResult) -> str:
    """Plain-text report: per-tenant table + stage decision summary."""
    table = format_table(
        ["scenario", "tenant", "mean io (s)", "p99 io (s)", "reqs", "SLO", "violations"],
        [
            (
                r.scenario,
                r.tenant,
                f"{r.mean_io_time:.2f}",
                f"{r.p99_io_time:.2f}",
                r.completions,
                r.slo_kind,
                r.violations,
            )
            for r in result.rows
        ],
        title="QoS data plane: noisy neighbor with per-tenant SLOs",
    )
    lines = [table, "", "per-stage decisions:"]
    for scenario in sorted(result.stage_counters):
        lines.append(f"  [{scenario}]")
        counters = result.stage_counters[scenario]
        for name in sorted(counters):
            total = sum(counters[name].values())
            lines.append(f"    {name:38s} {total:10.0f}")
    return "\n".join(lines)
