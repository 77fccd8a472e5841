"""Ablation experiments over DawningCloud's design choices.

The paper fixes several knobs by fiat, each hiding an obvious question
(docs/ablation.md lists them); every function here runs one of those
sweeps and returns table rows (list of dicts) in the same style as the
Tables 2-4 harness, so the benchmark/CLI layers render them uniformly.

Since the sensitivity engine landed, none of these sweeps hand-rolls its
runs: each one *declares* an :class:`~repro.experiments.sensitivity
.AblationPlan` — a baseline :class:`~repro.api.spec.ExperimentSpec` plus
component axes / parameter grids — and projects the executed plan's
payloads into the historical row shape (same keys, same rounding, same
order).  That buys every sweep digest-stable run IDs, content-addressed
caching, single-baseline execution (a grid point or axis entry equal to
the baseline configuration reuses the baseline run instead of
re-simulating it) and supervised execution for free.

* :func:`lease_unit_ablation` — §4.4 sets "a quite long time unit: one
  hour" for leases.  Sweeping the unit from minutes to a day shows the
  trade the paper asserts: finer units cut billed node-hours but multiply
  the adjustment (setup) overhead.
* :func:`scan_interval_ablation` — §3.2.2.2 justifies the MTC server's 3 s
  scan ("MTC tasks often run over in seconds") versus HTC's 60 s.  The
  sweep quantifies what each cadence costs either workload kind.
* :func:`scheduler_ablation` — §4.4 picks first-fit; the sweep runs every
  registered scheduler under the *same* dynamic resizing and shows the
  saving comes from resizing, not the dispatch rule.
* :func:`policy_ablation` — the future-work question (§6): the paper's
  B/R rule against the :mod:`repro.core.adaptive` alternatives.
* :func:`utilization_sweep` — the §4.2 aside that archive loads span
  24.4%-86.5%: where do the economies of scale appear and fade?
* :func:`setup_cost_ablation` — §4.5.4's 15.743 s per adjusted node:
  management overhead per hour as that cost scales.
* :func:`drp_pooling_ablation` — how much of Table 2's DRP penalty a
  cost-aware end user can claw back by pooling leases, and what only the
  shared runtime environment (DawningCloud) can deliver.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

from repro.api.spec import ExperimentSpec
from repro.cluster.setup import DEFAULT_ADJUST_COST_S, SetupPolicy
from repro.core.dawningcloud import DawningCloud
from repro.core.policies import (
    HTC_SCAN_INTERVAL_S,
    MTC_SCAN_INTERVAL_S,
    ResourceManagementPolicy,
)
from repro.experiments.sensitivity import (
    AblationPlan,
    Alternative,
    ComponentAxis,
    PathGrid,
    PlanExecution,
    execute_plan,
)
from repro.scheduling import SCHEDULER_REGISTRY
from repro.systems.base import WorkloadBundle
from repro.systems.dsp_runner import DEFAULT_CAPACITY
from repro.workloads.archive import utilization_family
from repro.workloads.traces import HTCTraceSpec

HOUR = 3600.0

#: One canonical name for every sweep's baseline spec, so the baseline's
#: digest — and therefore its cached run — is shared across all seven
#: sweeps whenever their (workload, policy, capacity) agree.
ABLATION_BASE_NAME = "ablation-base"

#: The historical default grids (also the registered analyses' grids).
DEFAULT_LEASE_UNITS_S = (60.0, 600.0, 1800.0, HOUR, 4 * HOUR, 24 * HOUR)
DEFAULT_SCAN_INTERVALS_S = (3.0, 15.0, 60.0, 300.0, 900.0)
DEFAULT_SETUP_COSTS_S = (0.0, 5.0, DEFAULT_ADJUST_COST_S, 60.0, 300.0)

#: The lease unit and the release-check cadence move together (the
#: §3.2.2 hourly release timer exists *because* the unit is an hour), so
#: the lease-unit grid zips both paths.
LEASE_UNIT_PATHS = (
    "params.lease_unit_s",
    "policy.params.release_check_interval_s",
)

#: The DRP manual-management ladder (label, runner, explicit params).
DRP_POOLING_RUNGS = (
    ("DRP (per-job leases)", "drp", {}),
    ("DRP + per-user pool", "drp-pooled", {}),
    ("DRP + shared pool", "drp-pooled", {"shared": True}),
)


def run_htc_cloud(
    bundle: WorkloadBundle,
    policy,
    capacity: int,
    lease_unit_s: float = HOUR,
    setup_policy: SetupPolicy = SetupPolicy(),
    scheduler_factory=None,
):
    """One HTC bundle through DawningCloud with full knob control.

    Returns ``(provider_metrics, cloud)`` so callers can also read the
    provision-service aggregates (setup overhead, adjustment counts).
    """
    if bundle.kind != "htc":
        raise ValueError("expected an HTC bundle")
    cloud = DawningCloud(
        capacity=capacity, lease_unit_s=lease_unit_s, setup_policy=setup_policy
    )
    cloud.add_htc_provider(bundle.name, policy, scheduler_factory=scheduler_factory)
    cloud.submit_trace(bundle.name, bundle.materialize_trace())
    horizon = float(bundle.horizon)
    cloud.run(until=horizon)
    cloud.shutdown()
    return cloud.provider_metrics(bundle.name, horizon), cloud


# --------------------------------------------------------------------- #
# bundle / policy -> spec vocabulary
# --------------------------------------------------------------------- #
def workload_ref_for_bundle(bundle: WorkloadBundle) -> dict:
    """An ``inline-trace`` workload ref reproducing this HTC bundle.

    The bridge that lets the bundle-based sweep signatures ride the spec
    engine: the bundle's jobs become literal rows in the spec, so any
    hand-built test workload gets digest-stable run IDs and caching
    without being a registered generator first.
    """
    if bundle.kind != "htc" or bundle.trace is None:
        raise ValueError(
            f"bundle {bundle.name!r}: only HTC trace bundles are "
            f"spec-expressible (kind {bundle.kind!r})"
        )
    trace = bundle.trace
    if bundle.horizon is not None and float(bundle.horizon) != trace.duration:
        raise ValueError(
            f"bundle {bundle.name!r}: a horizon override "
            f"({bundle.horizon} != trace duration {trace.duration}) is not "
            f"spec-expressible"
        )
    jobs = []
    for job in trace.jobs:
        if job.workflow_id is not None or job.dependencies:
            raise ValueError(
                f"bundle {bundle.name!r}: job {job.job_id} carries workflow "
                f"structure; inline traces are independent-job only"
            )
        jobs.append(
            [
                int(job.job_id),
                float(job.submit_time),
                int(job.size),
                float(job.runtime),
                int(job.user_id),
                str(job.task_type),
            ]
        )
    params: dict[str, Any] = {
        "name": bundle.name,
        "machine_nodes": int(trace.machine_nodes),
        "duration": float(trace.duration),
        "jobs": jobs,
    }
    if bundle.fixed_nodes is not None and bundle.fixed_nodes != trace.machine_nodes:
        params["fixed_nodes"] = int(bundle.fixed_nodes)
    return {"generator": "inline-trace", "params": params}


def _policy_ref(policy: ResourceManagementPolicy) -> dict:
    """A minimal ``paper-htc``/``paper-mtc`` ref for a B/R policy.

    Minimal — parameters equal to the component's defaults are omitted —
    so two sweeps handed behaviorally identical policies produce the same
    spec digest and share the baseline run.
    """
    if not isinstance(policy, ResourceManagementPolicy):
        raise ValueError(
            f"only ResourceManagementPolicy baselines are spec-expressible "
            f"here, got {type(policy).__name__}; use policy_plan() for the "
            f"adaptive alternatives"
        )
    mtc = policy.scan_interval_s == MTC_SCAN_INTERVAL_S
    name = "paper-mtc" if mtc else "paper-htc"
    ratio_default = 8.0 if mtc else 1.5
    scan_default = MTC_SCAN_INTERVAL_S if mtc else HTC_SCAN_INTERVAL_S
    params: dict[str, Any] = {"initial_nodes": policy.initial_nodes}
    if policy.threshold_ratio != ratio_default:
        params["threshold_ratio"] = policy.threshold_ratio
    if policy.scan_interval_s != scan_default:
        params["scan_interval_s"] = policy.scan_interval_s
    if policy.release_check_interval_s != HOUR:
        params["release_check_interval_s"] = policy.release_check_interval_s
    return {"name": name, "params": params}


def _dawningcloud_system(
    policy: ResourceManagementPolicy, capacity: int, **params: Any
) -> dict:
    system: dict[str, Any] = {"runner": "dawningcloud", "params": dict(params)}
    if capacity != DEFAULT_CAPACITY:
        system["params"]["capacity"] = capacity
    if not system["params"]:
        del system["params"]
    system["policy"] = _policy_ref(policy)
    return system


def _base_spec(workload, policy, capacity: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=ABLATION_BASE_NAME,
        workloads=(workload,),
        systems=(_dawningcloud_system(policy, capacity),),
    )


# --------------------------------------------------------------------- #
# payload projections (the historical row shapes)
# --------------------------------------------------------------------- #
def _metrics(execution: PlanExecution, run_id: str) -> dict:
    payload = execution.payloads[run_id]
    if payload is None:
        raise RuntimeError(
            f"plan {execution.plan.name!r}: run {run_id[:12]} failed"
        )
    return payload["results"][0]["metrics"]


def grid_metrics(execution: PlanExecution, label: str, path: str) -> dict:
    """Per-point metrics of one grid, keyed by the point's ``path`` value.

    Handles all three shapes a grid point can execute as: the baseline
    marker (aliases the baseline run), a one-off variant, and a point
    inside a collapsed retargetable sweep (one swept spec whose payload
    carries every point's result).
    """
    out: dict = {}
    for variant in execution.variants:
        if variant.axis != label:
            continue
        if variant.sweep:
            payload = execution.payloads[variant.run_id]
            if payload is None:
                raise RuntimeError(
                    f"plan {execution.plan.name!r}: swept run "
                    f"{variant.run_id[:12]} failed"
                )
            for result in payload["results"]:
                out[result["point"][path]] = result["metrics"]
        else:
            out[variant.point[path]] = _metrics(execution, variant.run_id)
    return out


# --------------------------------------------------------------------- #
# 1. lease-unit granularity
# --------------------------------------------------------------------- #
def lease_unit_plan(
    workload,
    policy: ResourceManagementPolicy,
    lease_units_s: Sequence[float],
    capacity: int,
) -> AblationPlan:
    """The lease-unit sweep as a declared plan (zipped unit/release grid)."""
    marker = (
        (HOUR, HOUR) if policy.release_check_interval_s == HOUR else None
    )
    grid = PathGrid(
        label="lease-unit",
        paths=LEASE_UNIT_PATHS,
        values=tuple((unit, unit) for unit in lease_units_s),
        baseline=marker,
    )
    return AblationPlan(
        name="lease-unit",
        baseline=_base_spec(workload, policy, capacity),
        grids=(grid,),
    )


def _lease_unit_rows(
    execution: PlanExecution, lease_units_s: Sequence[float]
) -> list[dict]:
    by_unit = grid_metrics(execution, "lease-unit", LEASE_UNIT_PATHS[0])
    rows = []
    for unit in lease_units_s:
        m = by_unit[unit]
        rows.append(
            {
                "lease_unit_s": unit,
                "resource_consumption_units": round(m["resource_consumption"], 1),
                "node_hours_equiv": round(
                    m["resource_consumption"] * unit / HOUR, 1
                ),
                "completed_jobs": m["completed_jobs"],
                "adjusted_nodes": m["adjusted_nodes"],
                "overhead_s_per_hour": round(m["setup_overhead_s_per_hour"], 1),
            }
        )
    return rows


def lease_unit_ablation(
    bundle: WorkloadBundle,
    policy: Optional[ResourceManagementPolicy] = None,
    lease_units_s: Sequence[float] = DEFAULT_LEASE_UNITS_S,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """Billed cost and management overhead versus the lease time unit.

    The release-check cadence follows the lease unit (the §3.2.2 hourly
    timer exists *because* the unit is an hour: releasing mid-unit wastes
    money), so each row is internally consistent.
    """
    policy = policy or ResourceManagementPolicy.for_htc()
    plan = lease_unit_plan(
        workload_ref_for_bundle(bundle), policy, lease_units_s, capacity
    )
    return _lease_unit_rows(execute_plan(plan), lease_units_s)


# --------------------------------------------------------------------- #
# 2. scan interval
# --------------------------------------------------------------------- #
SCAN_INTERVAL_PATH = "policy.params.scan_interval_s"


def scan_interval_plan(
    workload,
    policy: ResourceManagementPolicy,
    scan_intervals_s: Sequence[float],
    capacity: int,
) -> AblationPlan:
    """The scan-interval sweep as a declared plan."""
    grid = PathGrid(
        label="scan-interval",
        paths=(SCAN_INTERVAL_PATH,),
        values=tuple((interval,) for interval in scan_intervals_s),
        baseline=(policy.scan_interval_s,),
    )
    return AblationPlan(
        name="scan-interval",
        baseline=_base_spec(workload, policy, capacity),
        grids=(grid,),
    )


def _scan_interval_rows(
    execution: PlanExecution, scan_intervals_s: Sequence[float]
) -> list[dict]:
    by_interval = grid_metrics(execution, "scan-interval", SCAN_INTERVAL_PATH)
    rows = []
    for interval in scan_intervals_s:
        m = by_interval[interval]
        rows.append(
            {
                "scan_interval_s": interval,
                "resource_consumption": round(m["resource_consumption"], 1),
                "completed_jobs": m["completed_jobs"],
                "mean_wait_s": m["wait_stats"]["mean_wait_s"],
                "adjusted_nodes": m["adjusted_nodes"],
            }
        )
    return rows


def scan_interval_ablation(
    bundle: WorkloadBundle,
    policy: Optional[ResourceManagementPolicy] = None,
    scan_intervals_s: Sequence[float] = DEFAULT_SCAN_INTERVALS_S,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """Server scan cadence versus cost, throughput and wait time."""
    policy = policy or ResourceManagementPolicy.for_htc()
    plan = scan_interval_plan(
        workload_ref_for_bundle(bundle), policy, scan_intervals_s, capacity
    )
    return _scan_interval_rows(execute_plan(plan), scan_intervals_s)


# --------------------------------------------------------------------- #
# 3. scheduler
# --------------------------------------------------------------------- #
def scheduler_plan(
    workload,
    policy: ResourceManagementPolicy,
    scheduler_names: Sequence[str],
    capacity: int,
) -> AblationPlan:
    """Every named scheduler as a one-off swap; first-fit is the default
    scheduler, so its swap reuses the baseline run."""
    axis = ComponentAxis(
        kind="scheduler",
        alternatives=tuple(
            Alternative(name, params={}) for name in scheduler_names
        ),
        baseline="first-fit",
    )
    return AblationPlan(
        name="scheduler",
        baseline=_base_spec(workload, policy, capacity),
        axes=(axis,),
    )


def _scheduler_rows(execution: PlanExecution) -> list[dict]:
    rows = []
    for variant in execution.variants:
        if variant.axis != "scheduler":
            continue
        m = _metrics(execution, variant.run_id)
        rows.append(
            {
                "scheduler": variant.value,
                "resource_consumption": round(m["resource_consumption"], 1),
                "completed_jobs": m["completed_jobs"],
                "mean_wait_s": m["wait_stats"]["mean_wait_s"],
                "p95_wait_s": m["wait_stats"]["p95_wait_s"],
            }
        )
    return rows


def scheduler_ablation(
    bundle: WorkloadBundle,
    policy: Optional[ResourceManagementPolicy] = None,
    scheduler_names: Optional[Sequence[str]] = None,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """Every registered scheduler under identical dynamic resizing."""
    policy = policy or ResourceManagementPolicy.for_htc()
    names = list(scheduler_names or sorted(SCHEDULER_REGISTRY))
    plan = scheduler_plan(
        workload_ref_for_bundle(bundle), policy, names, capacity
    )
    return _scheduler_rows(execute_plan(plan))


# --------------------------------------------------------------------- #
# 4. resource-management policy
# --------------------------------------------------------------------- #
def policy_plan(
    workload, initial_nodes: int, capacity: int, kind: str = "htc"
) -> AblationPlan:
    """The §6 policy comparison as a declared plan.

    The alternatives mirror :func:`repro.core.adaptive.policy_catalog`
    exactly (same construction parameters, same order, same labels); the
    paper's own B/R rule *is* the plan baseline, so its row reuses the
    baseline run.
    """
    scan = HTC_SCAN_INTERVAL_S if kind == "htc" else MTC_SCAN_INTERVAL_S
    ratio = 1.5 if kind == "htc" else 8.0
    paper_name = "paper-htc" if kind == "htc" else "paper-mtc"
    b = initial_nodes
    paper = ResourceManagementPolicy(
        initial_nodes=b, threshold_ratio=ratio, scan_interval_s=scan
    )
    axis = ComponentAxis(
        kind="policy",
        alternatives=(
            Alternative(paper_name, {"initial_nodes": b}, "paper(B,R)"),
            Alternative(
                "demand-tracking",
                {"initial_nodes": b, "scan_interval_s": scan},
                "demand-tracking",
            ),
            Alternative(
                "ewma-predictive",
                {
                    "initial_nodes": b,
                    "alpha": 0.3,
                    "headroom": 1.2,
                    "scan_interval_s": scan,
                },
                "ewma-predictive",
            ),
            Alternative(
                "chunked-hysteresis",
                {
                    "initial_nodes": b,
                    "threshold_ratio": ratio,
                    "chunk_nodes": 16,
                    "scan_interval_s": scan,
                },
                "chunked-hysteresis",
            ),
            Alternative(
                "static",
                {"initial_nodes": b, "scan_interval_s": scan},
                "static",
            ),
        ),
        baseline=paper_name,
    )
    return AblationPlan(
        name="policy",
        baseline=_base_spec(workload, paper, capacity),
        axes=(axis,),
    )


def _policy_rows(execution: PlanExecution) -> list[dict]:
    rows = []
    for variant in execution.variants:
        if variant.axis != "policy":
            continue
        m = _metrics(execution, variant.run_id)
        rows.append(
            {
                "policy": variant.value,
                "resource_consumption": round(m["resource_consumption"], 1),
                "completed_jobs": m["completed_jobs"],
                "adjusted_nodes": m["adjusted_nodes"],
                "peak_nodes": m["peak_nodes"],
            }
        )
    return rows


def policy_ablation(
    bundle: WorkloadBundle,
    initial_nodes: int = 40,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """The paper's B/R rule against the adaptive alternatives (§6)."""
    plan = policy_plan(
        workload_ref_for_bundle(bundle), initial_nodes, capacity,
        kind=bundle.kind,
    )
    return _policy_rows(execute_plan(plan))


# --------------------------------------------------------------------- #
# 5. offered load
# --------------------------------------------------------------------- #
def _htc_trace_params(spec: HTCTraceSpec) -> dict:
    """Minimal ``htc-trace`` component params reproducing ``spec``."""
    params = {}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if field.default is dataclasses.MISSING or value != field.default:
            params[field.name] = value
    return params


def utilization_plan(
    specs: Sequence[HTCTraceSpec],
    policy: ResourceManagementPolicy,
    capacity: int,
) -> AblationPlan:
    """The offered-load family as ONE experiment spec (no axes).

    Each trace spec becomes an ``htc-trace`` workload; the DCS / DRP /
    DawningCloud comparison is the spec's system list, so the whole sweep
    is a single digest-addressed run.
    """
    spec = ExperimentSpec(
        name="utilization-sweep",
        workloads=tuple(
            {"generator": "htc-trace", "params": _htc_trace_params(s)}
            for s in specs
        ),
        systems=("dcs", "drp", _dawningcloud_system(policy, capacity)),
    )
    return AblationPlan(name="utilization-sweep", baseline=spec)


def _utilization_rows(
    execution: PlanExecution, specs: Sequence[HTCTraceSpec]
) -> list[dict]:
    payload = execution.payloads[execution.variants[0].run_id]
    results = payload["results"]
    rows = []
    for index, spec in enumerate(specs):
        dcs, drp, dawning = (
            r["metrics"] for r in results[3 * index : 3 * index + 3]
        )
        base = dcs["resource_consumption"]
        rows.append(
            {
                "utilization": spec.target_utilization,
                "dcs_node_hours": round(base),
                "drp_node_hours": round(drp["resource_consumption"]),
                "dawningcloud_node_hours": round(
                    dawning["resource_consumption"]
                ),
                "dawningcloud_saving_vs_dcs": round(
                    1.0 - dawning["resource_consumption"] / base, 3
                ),
                "drp_saving_vs_dcs": round(
                    1.0 - drp["resource_consumption"] / base, 3
                ),
                "completed_jobs": dawning["completed_jobs"],
            }
        )
    return rows


def utilization_sweep(
    base_spec: Optional[HTCTraceSpec] = None,
    utilizations: Optional[Sequence[float]] = None,
    policy: Optional[ResourceManagementPolicy] = None,
    capacity: int = DEFAULT_CAPACITY,
    seed: int = 0,
) -> list[dict]:
    """DawningCloud's and DRP's savings against DCS across offered load.

    Holds everything except target utilization fixed (see
    :func:`repro.workloads.archive.utilization_family`), so the rows trace
    the economies-of-scale effect as a function of load alone: at low load
    the fixed machine idles and DawningCloud's saving is large; as load
    approaches saturation the fixed machine earns its keep and the saving
    shrinks.
    """
    policy = policy or ResourceManagementPolicy.for_htc(40, 1.5)
    if utilizations is not None and base_spec is not None:
        specs = utilization_family(base_spec, utilizations)
    elif base_spec is not None:
        specs = utilization_family(base_spec)
    elif utilizations is not None:
        specs = utilization_family(utilizations=utilizations)
    else:
        specs = utilization_family()
    plan = utilization_plan(specs, policy, capacity)
    return _utilization_rows(execute_plan(plan, seed=seed), specs)


# --------------------------------------------------------------------- #
# 6. setup cost
# --------------------------------------------------------------------- #
SETUP_COST_PATH = "params.setup_cost_s"


def setup_cost_plan(
    workload,
    policy: ResourceManagementPolicy,
    per_node_costs_s: Sequence[float],
    capacity: int,
) -> AblationPlan:
    """The per-node adjustment-cost sweep as a declared plan."""
    grid = PathGrid(
        label="setup-cost",
        paths=(SETUP_COST_PATH,),
        values=tuple((cost,) for cost in per_node_costs_s),
        baseline=(DEFAULT_ADJUST_COST_S,),
    )
    return AblationPlan(
        name="setup-cost",
        baseline=_base_spec(workload, policy, capacity),
        grids=(grid,),
    )


def _setup_cost_rows(
    execution: PlanExecution, per_node_costs_s: Sequence[float]
) -> list[dict]:
    by_cost = grid_metrics(execution, "setup-cost", SETUP_COST_PATH)
    rows = []
    for cost in per_node_costs_s:
        m = by_cost[cost]
        rows.append(
            {
                "per_node_cost_s": cost,
                "adjusted_nodes": m["adjusted_nodes"],
                "total_overhead_s": round(m["setup_overhead_s"], 1),
                "overhead_s_per_hour": round(m["setup_overhead_s_per_hour"], 1),
            }
        )
    return rows


def setup_cost_ablation(
    bundle: WorkloadBundle,
    policy: Optional[ResourceManagementPolicy] = None,
    per_node_costs_s: Sequence[float] = DEFAULT_SETUP_COSTS_S,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """Management overhead per hour as the per-node adjust cost scales.

    Adjustment *counts* do not depend on the cost (the policy never sees
    it), so the rows share one schedule and the overhead column is linear
    — which is exactly the sanity check §4.5.4's "≈341 s per hour is
    acceptable" claim needs: at what cost would it stop being acceptable?
    """
    policy = policy or ResourceManagementPolicy.for_htc()
    plan = setup_cost_plan(
        workload_ref_for_bundle(bundle), policy, per_node_costs_s, capacity
    )
    return _setup_cost_rows(execute_plan(plan), per_node_costs_s)


# --------------------------------------------------------------------- #
# 7. DRP pooling ladder
# --------------------------------------------------------------------- #
def drp_pooling_plan(
    workload, policy: ResourceManagementPolicy, capacity: int
) -> AblationPlan:
    """The manual-management ladder as runner swaps off one baseline."""
    axis = ComponentAxis(
        kind="system",
        alternatives=tuple(
            Alternative(runner, params=params, label=label)
            for label, runner, params in DRP_POOLING_RUNGS
        ),
    )
    return AblationPlan(
        name="drp-pooling",
        baseline=_base_spec(workload, policy, capacity),
        axes=(axis,),
    )


def _drp_pooling_rows(execution: PlanExecution) -> list[dict]:
    rungs = [
        (variant.value, _metrics(execution, variant.run_id))
        for variant in execution.variants
        if variant.axis == "system"
    ]
    rungs.append(
        ("DawningCloud", _metrics(execution, execution.variants[0].run_id))
    )
    base = rungs[0][1]["resource_consumption"]
    return [
        {
            "strategy": name,
            "resource_consumption": round(m["resource_consumption"], 1),
            "saving_vs_naive_drp": round(
                1.0 - m["resource_consumption"] / base, 3
            ),
            "completed_jobs": m["completed_jobs"],
            "peak_nodes": m["peak_nodes"],
        }
        for name, m in rungs
    ]


def drp_pooling_ablation(
    bundle: WorkloadBundle,
    policy: Optional[ResourceManagementPolicy] = None,
    capacity: int = DEFAULT_CAPACITY,
) -> list[dict]:
    """The manual-management ladder from raw DRP to DawningCloud.

    Four rungs on one HTC trace:

    1. **DRP (paper)** — one fresh hourly lease per job;
    2. **DRP per-user pool** — each end user reuses their own paid nodes;
    3. **DRP shared pool** — the whole community reuses nodes (the
       strongest manual strategy, still queueless);
    4. **DawningCloud** — queue + dynamic negotiation over one pool.

    On short-job traces rung 2 barely moves: a single user's duty cycle is
    too sparse to amortize a paid hour, which is the economies-of-scale
    thesis in miniature — the saving requires *sharing*, and sharing
    requires the runtime environment DRP lacks.
    """
    policy = policy or ResourceManagementPolicy.for_htc()
    plan = drp_pooling_plan(workload_ref_for_bundle(bundle), policy, capacity)
    return _drp_pooling_rows(execute_plan(plan))


# --------------------------------------------------------------------- #
# analysis components: each ablation invocable by name from a spec
# --------------------------------------------------------------------- #
def _paper_policy(workload: str) -> ResourceManagementPolicy:
    """The named paper workload's chosen policy (§4.5.1)."""
    from repro.experiments.config import PAPER_POLICIES

    return PAPER_POLICIES[workload]


def _register_ablation_analyses() -> None:
    """Self-register the ablations over the paper's named workloads.

    The named workload *is* the workload ref (every archive trace is a
    registered generator), so these analyses skip the inline-trace bridge
    and produce compact, cross-plan-shareable specs.
    """
    from repro.api.registry import register_component

    def lease_unit(seed=0, workload="nasa-ipsc", capacity=DEFAULT_CAPACITY):
        """Lease time-unit granularity ablation."""
        plan = lease_unit_plan(
            workload, _paper_policy(workload), DEFAULT_LEASE_UNITS_S, capacity
        )
        return _lease_unit_rows(
            execute_plan(plan, seed=seed), DEFAULT_LEASE_UNITS_S
        )

    def scan_interval(seed=0, workload="nasa-ipsc", capacity=DEFAULT_CAPACITY):
        """Server scan-interval ablation."""
        plan = scan_interval_plan(
            workload, _paper_policy(workload), DEFAULT_SCAN_INTERVALS_S,
            capacity,
        )
        return _scan_interval_rows(
            execute_plan(plan, seed=seed), DEFAULT_SCAN_INTERVALS_S
        )

    def scheduler(seed=0, workload="nasa-ipsc", capacity=DEFAULT_CAPACITY):
        """Scheduling-policy ablation under identical resizing."""
        names = sorted(SCHEDULER_REGISTRY)
        plan = scheduler_plan(
            workload, _paper_policy(workload), names, capacity
        )
        return _scheduler_rows(execute_plan(plan, seed=seed))

    def policy(seed=0, workload="nasa-ipsc", initial_nodes=40,
               capacity=DEFAULT_CAPACITY):
        """Resource-management policy ablation."""
        plan = policy_plan(workload, initial_nodes, capacity)
        return _policy_rows(execute_plan(plan, seed=seed))

    def utilization(seed=0, policy_workload="nasa-ipsc",
                    capacity=DEFAULT_CAPACITY):
        """Economies of scale versus offered load (archive range)."""
        specs = utilization_family()
        plan = utilization_plan(specs, _paper_policy(policy_workload), capacity)
        return _utilization_rows(execute_plan(plan, seed=seed), specs)

    def setup_cost(seed=0, workload="nasa-ipsc", capacity=DEFAULT_CAPACITY):
        """Management overhead versus the per-node adjustment cost."""
        plan = setup_cost_plan(
            workload, _paper_policy(workload), DEFAULT_SETUP_COSTS_S, capacity
        )
        return _setup_cost_rows(
            execute_plan(plan, seed=seed), DEFAULT_SETUP_COSTS_S
        )

    def drp_pooling(seed=0, workload="nasa-ipsc", capacity=DEFAULT_CAPACITY):
        """The DRP manual-management ladder."""
        plan = drp_pooling_plan(workload, _paper_policy(workload), capacity)
        return _drp_pooling_rows(execute_plan(plan, seed=seed))

    for name, fn in (
        ("lease-unit-ablation", lease_unit),
        ("scan-interval-ablation", scan_interval),
        ("scheduler-ablation", scheduler),
        ("policy-ablation", policy),
        ("utilization-sweep", utilization),
        ("setup-cost-ablation", setup_cost),
        ("drp-pooling-ablation", drp_pooling),
    ):
        register_component("analysis", name, fn, skip_params=("seed",))


_register_ablation_analyses()
