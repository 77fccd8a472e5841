"""repro: a reproduction of "In Cloud, Do MTC or HTC Service Providers
Benefit from the Economies of Scale?" (Wang, Zhan, Shi, Liang, Yuan —
MTAGS/SC 2009).

The library implements the paper's contribution — the dynamic service
provision (DSP) model and its enabling system **DawningCloud** — together
with every substrate the evaluation needs: a discrete-event simulation
kernel, synthetic NASA-iPSC/SDSC-BLUE/Montage workloads (plus a real SWF
parser), the DCS/SSP/DRP baseline systems, hour-granular lease accounting,
and the TCO cost models.

Quickstart::

    from repro import DawningCloud, ResourceManagementPolicy
    from repro.workloads import generate_nasa_ipsc

    cloud = DawningCloud(capacity=2000)
    cloud.add_htc_provider("nasa", ResourceManagementPolicy.for_htc(40, 1.2))
    cloud.submit_trace("nasa", generate_nasa_ipsc(seed=0))
    cloud.run(until=14 * 24 * 3600)
    cloud.shutdown()
    print(cloud.provider_metrics("nasa").to_row())

See docs/architecture.md for the layer map and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

Every experiment is a named scenario in
:mod:`repro.experiments.registry`, executed through the parallel,
cached :mod:`repro.experiments.orchestrator` (``repro-experiments
list-scenarios`` / ``run --parallel N --scenario PAT``); see
docs/orchestration.md for the registry, cache layout and
cache-invalidation rules.

The public composition layer is :mod:`repro.api` — a component registry
(``repro-experiments list-components``), declarative experiment specs
(:class:`repro.api.ExperimentSpec`, runnable from TOML via
``repro-experiments run-spec``), and the :class:`repro.api.Simulation`
facade; see docs/api.md.
"""

from repro.core.dawningcloud import DawningCloud
from repro.core.policies import ResourceManagementPolicy
from repro.systems.base import WorkloadBundle
from repro.workloads.job import Job, Trace
from repro.workloads.workflow import Workflow

__version__ = "1.0.0"

__all__ = [
    "DawningCloud",
    "Job",
    "ResourceManagementPolicy",
    "Trace",
    "Workflow",
    "WorkloadBundle",
    "__version__",
]
