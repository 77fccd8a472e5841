"""Synthetic stand-ins for the paper's two HTC traces.

The paper replays two logs from the Parallel Workloads Archive:

* **NASA iPSC** — two weeks, 128 nodes, 46.6% utilization, smooth
  day-by-day arrivals, 2603 completed jobs (Table 2).
* **SDSC BLUE** — two weeks from 2000-04-25, 144 nodes (after the paper's
  normalization to one CPU per node), 76.2% utilization, "in the first half
  of the trace the job arrived infrequently; in the second half the job
  arrived frequently" (§4.2), ~2650 jobs (Table 3).

The archive is not reachable from this environment, so this module
*synthesizes* traces with the properties the paper's conclusions rest on
(this list is the substitution argument):

1. exact job counts and machine sizes;
2. utilization calibrated to the reported figure (a single multiplicative
   runtime scale enforces total work = target·nodes·duration);
3. the size distribution bounded by the machine (and containing at least
   one machine-filling job, which §4.4 uses to size the DCS/SSP systems);
4. NASA: many sub-hour jobs (so DRP's per-started-hour billing inflates its
   cost above DCS), smooth diurnal arrivals (so DawningCloud's queue keeps
   utilization steady);
5. BLUE: longer jobs (little rounding penalty, so DRP ≈ DawningCloud),
   sparse-then-bursty arrivals (so DRP's no-queue peak towers over the
   machine size and a few tail jobs stay queued at the horizon in the
   fixed-size systems).

Every generator is deterministic given its ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simkit.rng import RandomStreams
from repro.workloads.job import Trace, TraceArrays

HOUR = 3600.0
DAY = 24 * HOUR
TWO_WEEKS = 14 * DAY


@dataclass(frozen=True)
class HTCTraceSpec:
    """Parameters of a synthetic HTC trace.

    Attributes
    ----------
    size_pmf:
        ``((size, probability), ...)`` — job width distribution.
    runtime_mixture:
        ``((weight, median_seconds, sigma), ...)`` — a lognormal mixture;
        each job picks a component, then ``rt = median * exp(sigma * N(0,1))``.
    arrival_profile:
        ``"diurnal"`` (NASA-like smooth daily cycle) or
        ``"sparse-then-bursty"`` (BLUE-like: quiet first half, busy bursty
        second half).
    arrival_margin:
        Fraction of the duration at the tail with no new arrivals, so most
        jobs can finish inside the trace period.
    """

    name: str
    machine_nodes: int
    duration: float
    n_jobs: int
    target_utilization: float
    size_pmf: tuple[tuple[int, float], ...]
    runtime_mixture: tuple[tuple[float, float, float], ...]
    arrival_profile: str = "diurnal"
    arrival_margin: float = 0.04
    min_runtime: float = 30.0
    n_users: int = 64
    #: runtime multiplier applied to jobs submitted in the first half of the
    #: trace (before global calibration).  BLUE's "infrequent" first week
    #: still carries substantial load because its jobs run long; >1 values
    #: reproduce that profile.
    first_half_runtime_factor: float = 1.0
    #: runtime multiplier for wide jobs (size >= wide_job_threshold),
    #: applied before calibration.  The NASA iPSC log famously contains
    #: many short whole-machine runs; factors <1 reproduce the resulting
    #: hour-rounding penalty that per-started-hour billing (DRP) pays.
    wide_job_runtime_factor: float = 1.0
    wide_job_threshold: int = 32
    #: "stratified" draws arrival quantiles on a jittered grid (smooth,
    #: NASA-like: "the job arriving frequency ... are smooth among days",
    #: §4.5.2); "iid" draws them independently (clumpy, BLUE-like).
    arrival_sampling: str = "iid"

    def validate(self) -> None:
        if abs(sum(p for _, p in self.size_pmf) - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: size_pmf must sum to 1")
        if any(s <= 0 or s > self.machine_nodes for s, _ in self.size_pmf):
            raise ValueError(f"{self.name}: sizes must lie in [1, machine_nodes]")
        if abs(sum(w for w, _, _ in self.runtime_mixture) - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: runtime mixture weights must sum to 1")
        if not (0 < self.target_utilization < 1):
            raise ValueError(f"{self.name}: utilization must be in (0, 1)")


#: NASA iPSC/860 stand-in. Power-of-two widths (the iPSC was a hypercube),
#: short-job-heavy runtimes, smooth diurnal arrivals.
NASA_IPSC = HTCTraceSpec(
    name="nasa-ipsc",
    machine_nodes=128,
    duration=TWO_WEEKS,
    n_jobs=2603,
    target_utilization=0.466,
    size_pmf=(
        (1, 0.24),
        (2, 0.14),
        (4, 0.158),
        (8, 0.17),
        (16, 0.13),
        (32, 0.10),
        (64, 0.05),
        (128, 0.012),
    ),
    runtime_mixture=(
        (0.72, 240.0, 0.95),
        (0.20, 1500.0, 0.70),
        (0.08, 9000.0, 0.50),
    ),
    arrival_profile="diurnal",
    n_users=69,  # the archive log has 69 users
    wide_job_runtime_factor=0.5,
    wide_job_threshold=32,
    arrival_sampling="stratified",
)

#: SDSC BLUE stand-in. Narrower jobs with long runtimes (low hour-rounding
#: penalty), sparse first week, bursty second week.
#:
#: Calibration note: the archive reports 76.2% utilization for the *whole*
#: BLUE log (weeks of operation).  The paper's own Table 3 numbers pin the
#: two-week slice's offered load lower: DawningCloud consumes 35,201
#: node-hours and DRP (which bills at least the work it runs) 35,838, both
#: impossible if the slice carried 0.762 × 144 × 336 ≈ 36,869 node-hours of
#: work plus billing overheads.  Solving Table 3 backwards (DRP ≈ work ×
#: small rounding inflation ≈ 0.74 × DCS) puts the slice at ≈61% offered
#: load, which is what this spec targets; the BLUE machine remains 144
#: nodes and the job count matches the paper.
SDSC_BLUE = HTCTraceSpec(
    name="sdsc-blue",
    machine_nodes=144,
    duration=TWO_WEEKS,
    n_jobs=2657,
    target_utilization=0.615,
    size_pmf=(
        (1, 0.34),
        (2, 0.24),
        (4, 0.17),
        (8, 0.12),
        (16, 0.08),
        (32, 0.035),
        (64, 0.011),
        (128, 0.002),
        (144, 0.002),
    ),
    runtime_mixture=(
        (0.25, 5400.0, 0.65),
        (0.45, 9000.0, 0.50),
        (0.30, 16200.0, 0.40),
    ),
    arrival_profile="sparse-then-bursty",
    n_users=144,
    first_half_runtime_factor=2.4,
)


# --------------------------------------------------------------------- #
# arrival processes
# --------------------------------------------------------------------- #
def _diurnal_rate_grid(duration: float, grid: np.ndarray) -> np.ndarray:
    """Smooth daily cycle: quiet nights, busy working hours."""
    hours_of_day = (grid / HOUR) % 24.0
    # Peak around 14:00, trough around 02:00; never fully zero.
    cycle = 1.0 + 0.4 * np.sin(2.0 * np.pi * (hours_of_day - 8.0) / 24.0)
    return np.clip(cycle, 0.25, None)


def _sparse_then_bursty_rate_grid(
    duration: float, grid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """BLUE-like profile: low first half, high second half with bursts."""
    rate = np.where(grid < duration / 2.0, 0.55, 1.30).astype(float)
    rate *= _diurnal_rate_grid(duration, grid) * 0.25 + 0.85
    # A handful of sharp arrival bursts in the busy half.
    n_bursts = 8
    centers = rng.uniform(0.55 * duration, 0.96 * duration, size=n_bursts)
    widths = rng.uniform(0.3 * HOUR, 1.0 * HOUR, size=n_bursts)
    amps = rng.uniform(3.5, 6.5, size=n_bursts)
    for c, w, a in zip(centers, widths, amps):
        rate += a * np.exp(-0.5 * ((grid - c) / w) ** 2)
    return rate


def _sample_arrivals(
    spec: HTCTraceSpec, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_jobs`` arrival instants by inverse-CDF over a rate grid."""
    horizon = spec.duration * (1.0 - spec.arrival_margin)
    grid = np.linspace(0.0, horizon, 4096)
    if spec.arrival_profile == "diurnal":
        rate = _diurnal_rate_grid(spec.duration, grid)
    elif spec.arrival_profile == "sparse-then-bursty":
        rate = _sparse_then_bursty_rate_grid(spec.duration, grid, rng)
    else:
        raise ValueError(f"unknown arrival profile {spec.arrival_profile!r}")
    cdf = np.cumsum(rate)
    cdf = cdf / cdf[-1]
    if spec.arrival_sampling == "stratified":
        # low-discrepancy quantiles: one arrival per jittered stratum
        jitter = rng.uniform(0.05, 0.95, size=spec.n_jobs)
        quantiles = (np.arange(spec.n_jobs) + jitter) / spec.n_jobs
    elif spec.arrival_sampling == "iid":
        quantiles = np.sort(rng.uniform(0.0, 1.0, size=spec.n_jobs))
    else:
        raise ValueError(f"unknown arrival sampling {spec.arrival_sampling!r}")
    arrivals = np.interp(quantiles, cdf, grid)
    return arrivals


# --------------------------------------------------------------------- #
# generation
# --------------------------------------------------------------------- #
def _sample_sizes(spec: HTCTraceSpec, rng: np.random.Generator) -> np.ndarray:
    sizes_avail = np.array([s for s, _ in spec.size_pmf], dtype=np.int64)
    probs = np.array([p for _, p in spec.size_pmf], dtype=float)
    sizes = rng.choice(sizes_avail, size=spec.n_jobs, p=probs)
    # Section 4.4 sizes the DCS/SSP systems to the trace's maximum resource
    # requirement, so the trace must contain a machine-filling job.
    if sizes.max() < spec.machine_nodes:
        sizes[spec.n_jobs // 3] = spec.machine_nodes
    return sizes


def _sample_runtimes(spec: HTCTraceSpec, rng: np.random.Generator) -> np.ndarray:
    weights = np.array([w for w, _, _ in spec.runtime_mixture])
    medians = np.array([m for _, m, _ in spec.runtime_mixture])
    sigmas = np.array([s for _, _, s in spec.runtime_mixture])
    comp = rng.choice(len(weights), size=spec.n_jobs, p=weights)
    normals = rng.standard_normal(spec.n_jobs)
    runtimes = medians[comp] * np.exp(sigmas[comp] * normals)
    return np.maximum(runtimes, spec.min_runtime)


def _calibrate_runtimes(
    spec: HTCTraceSpec,
    arrivals: np.ndarray,
    sizes: np.ndarray,
    runtimes: np.ndarray,
) -> np.ndarray:
    """Scale runtimes so total work hits the utilization target, while every
    job still finishes inside the trace window (needed because the paper's
    DRP run completes *every* job by the horizon)."""
    target_work = spec.target_utilization * spec.machine_nodes * spec.duration
    ceiling = (spec.duration * 0.995 - arrivals) * 0.98
    rt = runtimes.copy()
    for _ in range(12):
        work = float(np.sum(sizes * rt))
        scale = target_work / work
        rt = np.clip(rt * scale, spec.min_runtime, ceiling)
        if abs(scale - 1.0) < 1e-6:
            break
    return rt


def generate_htc_trace(spec: HTCTraceSpec, seed: int = 0) -> Trace:
    """Generate a synthetic HTC trace for ``spec`` (deterministic in seed)."""
    spec.validate()
    streams = RandomStreams(seed)
    rng = streams.stream(f"htc-trace/{spec.name}")

    arrivals = _sample_arrivals(spec, rng)
    sizes = _sample_sizes(spec, rng)
    runtimes = _sample_runtimes(spec, rng)
    if spec.first_half_runtime_factor != 1.0:
        first_half = arrivals < spec.duration / 2.0
        runtimes = np.where(
            first_half, runtimes * spec.first_half_runtime_factor, runtimes
        )
    if spec.wide_job_runtime_factor != 1.0:
        wide = sizes >= spec.wide_job_threshold
        runtimes = np.where(wide, runtimes * spec.wide_job_runtime_factor, runtimes)
    runtimes = _calibrate_runtimes(spec, arrivals, sizes, runtimes)
    users = rng.integers(0, spec.n_users, size=spec.n_jobs)

    # Columnar fast path: the whole trace stays in numpy until a simulator
    # materializes Job objects (lazily, per replay copy).
    arrays = TraceArrays(
        job_id=np.arange(1, spec.n_jobs + 1, dtype=np.int64),
        submit=arrivals,
        size=sizes,
        runtime=runtimes,
        user=users,
        task_types=("batch",),
    )
    return Trace.from_arrays(
        spec.name,
        arrays,
        machine_nodes=spec.machine_nodes,
        duration=spec.duration,
        metadata={
            "seed": seed,
            "target_utilization": spec.target_utilization,
            "arrival_profile": spec.arrival_profile,
        },
    )


def generate_nasa_ipsc(seed: int = 0) -> Trace:
    """The NASA iPSC stand-in used throughout the evaluation."""
    return generate_htc_trace(NASA_IPSC, seed)


def generate_sdsc_blue(seed: int = 0) -> Trace:
    """The SDSC BLUE stand-in used throughout the evaluation."""
    return generate_htc_trace(SDSC_BLUE, seed)
