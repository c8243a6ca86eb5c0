"""provsim: trace-driven simulation of coordinated cluster resource provisioning.

Consolidates a parallel-batch-job trace and a web-service demand trace on one
simulated cluster under four provisioning regimes (DCS, FB, FLB_NUB, EC2RS)
and reports completed jobs, execution/turnaround times, peak and total
resource consumption, and management overhead.
"""

from .errors import (
    AgreementError,
    EmptyTraceError,
    InfeasibleScenarioError,
    KernelError,
    PairingError,
    ProvsimError,
    ScenarioError,
    SweepError,
    TraceParseError,
    TransitionError,
)
from .metrics import MetricsReport, finalize
from .policies import (
    PolicyParams,
    ec2_job_lifecycle,
    first_fit_schedule,
    parse_params,
    ws_instance_controller,
)
from .scenario import Scenario, load_scenario, load_traces, run_scenario_obj, scenario_from_dict
from .simkernel import ClusterState, SimResult, run
from .trace import (
    DemandTrace,
    Job,
    JobTrace,
    normalize_cpus,
    parse_demand_trace,
    parse_swf,
    scale_to_peak,
    window,
)

__version__ = "0.1.0"
