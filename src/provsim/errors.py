"""Exception types shared across the simulator. Each class names the stderr
category and the exit status that ``provsim`` reports for it."""

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


class ProvsimError(Exception):
    """Base class for all provsim errors."""
    category, exit_code = "error", EXIT_ERROR


class TraceParseError(ProvsimError):
    """A trace file could not be parsed; message names the offending line."""
    category, exit_code = "trace error", EXIT_INVALID


class EmptyTraceError(ProvsimError):
    """A trace contained no usable entries after filtering/windowing."""
    category, exit_code = TraceParseError.category, TraceParseError.exit_code


class ScenarioError(ProvsimError):
    """A scenario file or parameter set is invalid for the chosen regime."""
    category, exit_code = "invalid input", EXIT_INVALID


class AgreementError(ProvsimError):
    """An RE agreement failed validation; message names the bad token/field."""
    category, exit_code = ScenarioError.category, ScenarioError.exit_code


class TransitionError(ProvsimError):
    """An illegal TRE lifecycle transition was requested."""


class PairingError(ProvsimError):
    """Two RE agreements cannot be coordinated."""


class InfeasibleScenarioError(ProvsimError):
    """The scenario cannot be simulated (e.g. WS demand above cluster size)."""
    category, exit_code = "infeasible scenario", EXIT_INFEASIBLE


class KernelError(ProvsimError):
    """Internal simulation-kernel invariant violated (e.g. time regression)."""


class SweepError(ProvsimError):
    """A parameter-sweep point failed; message names the point."""
    category, exit_code = "sweep error", EXIT_INVALID
