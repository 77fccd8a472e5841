"""B×R parameter sweeps (Figures 9-11, §4.5.1).

The paper tunes DawningCloud's two policy parameters per workload by
sweeping the initial resources B and the threshold ratio R and plotting
resource consumption together with throughput (completed jobs for HTC,
tasks per second for MTC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from typing import Union

from repro.core.policies import ResourceManagementPolicy
from repro.experiments.config import SWEEP_B, SWEEP_R_HTC, SWEEP_R_MTC
from repro.systems.base import WorkloadBundle
from repro.systems.dsp_runner import (
    DEFAULT_CAPACITY,
    DawningCloudHtcLiveRun,
    DawningCloudMtcLiveRun,
    run_dawningcloud_htc,
    run_dawningcloud_mtc,
)

#: ``share_prefix="auto"`` branches only when the R-independent warm-up
#: (everything before the first workload submission) covers at least this
#: fraction of the horizon.  Forking copies a fully loaded world —
#: measurably more expensive than a cold build plus replay of a short
#: prefix — so sharing pays only when the shared prefix is long.
SHARED_PREFIX_MIN_FRACTION = 0.25


def branch_instant(bundle: WorkloadBundle) -> float:
    """The latest instant provably independent of the threshold ratio R.

    The B/R decision rule returns before consulting R whenever queue
    demand is zero (see
    :meth:`~repro.core.policies.ResourceManagementPolicy
    .dynamic_request_size`), and no dynamic grant — hence no release
    timer — can exist before something was submitted.  Everything
    strictly before the first submission is therefore byte-identical
    across all R values sharing one B, which makes it the sweep's safe
    fork point.
    """
    if bundle.kind == "htc":
        return min(job.submit_time for job in bundle.trace)  # type: ignore[union-attr]
    return float(bundle.workflow.submit_time)  # type: ignore[union-attr]


def _resolve_share(share_prefix: Union[bool, str], bundle: WorkloadBundle) -> bool:
    if share_prefix == "auto":
        horizon = float(bundle.horizon)  # type: ignore[arg-type]
        return (
            horizon > 0
            and branch_instant(bundle) / horizon >= SHARED_PREFIX_MIN_FRACTION
        )
    return bool(share_prefix)


@dataclass(frozen=True)
class SweepPoint:
    """One (B, R) configuration's outcome."""

    initial_nodes: int
    threshold_ratio: float
    resource_consumption: float
    completed_jobs: int
    tasks_per_second: Optional[float] = None

    @property
    def label(self) -> str:
        r = self.threshold_ratio
        r_str = f"{r:g}"
        return f"B{self.initial_nodes}_R{r_str}"

    @classmethod
    def from_row(cls, row: dict) -> "SweepPoint":
        """Rebuild a point from a scenario-payload row (see scenarios.py)."""
        return cls(
            initial_nodes=row["B"],
            threshold_ratio=row["R"],
            resource_consumption=row["resource_consumption"],
            completed_jobs=row["completed_jobs"],
            tasks_per_second=row.get("tasks_per_second"),
        )


def points_from_payload(payload: dict) -> list[SweepPoint]:
    """Sweep-scenario payload → :class:`SweepPoint` list."""
    return [SweepPoint.from_row(row) for row in payload["points"]]


def _branched_metrics(bundle, make_policy, live_cls, b, ratios, capacity):
    """Run one B-group of the grid off a shared warm-up prefix.

    The base world is built once, advanced to :func:`branch_instant`, and
    forked per threshold ratio (the base itself serves the last ratio);
    every branch is then retargeted to its R and run to completion.  The
    differential harness pins this byte-identical to cold runs.
    """
    base = live_cls(bundle, make_policy(b, ratios[0]), capacity=capacity)
    base.advance_before(branch_instant(bundle))
    branches = [base.fork() for _ in ratios[:-1]] + [base]
    for r, branch in zip(ratios, branches):
        branch.retarget_policy(make_policy(b, r))
        yield r, branch.run()


def sweep_htc_parameters(
    bundle: WorkloadBundle,
    initial_nodes: Sequence[int] = SWEEP_B,
    threshold_ratios: Sequence[float] = SWEEP_R_HTC,
    capacity: int = DEFAULT_CAPACITY,
    share_prefix: Union[bool, str] = "auto",
) -> list[SweepPoint]:
    """Figure 9/10: DawningCloud over the (B, R) grid for an HTC trace.

    ``share_prefix`` branches each B-group off one shared warm-up prefix
    instead of re-simulating it per R (``"auto"`` shares only when the
    prefix is long enough to pay for the fork's copy; see
    :data:`SHARED_PREFIX_MIN_FRACTION`).  Either path yields
    byte-identical points.
    """
    points = []
    if _resolve_share(share_prefix, bundle):
        for b in initial_nodes:
            for r, metrics in _branched_metrics(
                bundle, ResourceManagementPolicy.for_htc,
                DawningCloudHtcLiveRun, b, list(threshold_ratios), capacity,
            ):
                points.append(
                    SweepPoint(
                        initial_nodes=b,
                        threshold_ratio=r,
                        resource_consumption=metrics.resource_consumption,
                        completed_jobs=metrics.completed_jobs,
                    )
                )
        return points
    for b in initial_nodes:
        for r in threshold_ratios:
            policy = ResourceManagementPolicy.for_htc(b, r)
            metrics = run_dawningcloud_htc(bundle, policy, capacity=capacity)
            points.append(
                SweepPoint(
                    initial_nodes=b,
                    threshold_ratio=r,
                    resource_consumption=metrics.resource_consumption,
                    completed_jobs=metrics.completed_jobs,
                )
            )
    return points


def sweep_mtc_parameters(
    bundle: WorkloadBundle,
    initial_nodes: Sequence[int] = SWEEP_B,
    threshold_ratios: Sequence[float] = SWEEP_R_MTC,
    capacity: int = DEFAULT_CAPACITY,
    share_prefix: Union[bool, str] = "auto",
) -> list[SweepPoint]:
    """Figure 11: DawningCloud over the (B, R) grid for the MTC workflow.

    ``share_prefix`` as in :func:`sweep_htc_parameters`.
    """
    points = []
    if _resolve_share(share_prefix, bundle):
        for b in initial_nodes:
            for r, metrics in _branched_metrics(
                bundle, ResourceManagementPolicy.for_mtc,
                DawningCloudMtcLiveRun, b, list(threshold_ratios), capacity,
            ):
                points.append(
                    SweepPoint(
                        initial_nodes=b,
                        threshold_ratio=r,
                        resource_consumption=metrics.resource_consumption,
                        completed_jobs=metrics.completed_jobs,
                        tasks_per_second=metrics.tasks_per_second,
                    )
                )
        return points
    for b in initial_nodes:
        for r in threshold_ratios:
            policy = ResourceManagementPolicy.for_mtc(b, r)
            metrics = run_dawningcloud_mtc(bundle, policy, capacity=capacity)
            points.append(
                SweepPoint(
                    initial_nodes=b,
                    threshold_ratio=r,
                    resource_consumption=metrics.resource_consumption,
                    completed_jobs=metrics.completed_jobs,
                    tasks_per_second=metrics.tasks_per_second,
                )
            )
    return points


def best_point(
    points: Iterable[SweepPoint], throughput_tolerance: float = 0.005
) -> SweepPoint:
    """The paper's selection rule: "to save the resource consumption and
    improve the throughputs" — among points whose throughput is within
    ``throughput_tolerance`` of the best, pick the cheapest."""
    points = list(points)
    if not points:
        raise ValueError("empty sweep")

    def throughput(p: SweepPoint) -> float:
        return p.tasks_per_second if p.tasks_per_second is not None else p.completed_jobs

    best_thr = max(throughput(p) for p in points)
    eligible = [
        p for p in points if throughput(p) >= best_thr * (1.0 - throughput_tolerance)
    ]
    return min(eligible, key=lambda p: p.resource_consumption)
