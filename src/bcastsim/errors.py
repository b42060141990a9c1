"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed graph or activation-family text input."""


class CapabilityError(RuntimeError):
    """Input exceeds a guarded size limit (node-subset policies, members of
    the primary-interference family)."""


class SchedulingError(RuntimeError):
    """A policy violated a queue-update precondition; the run must abort."""


class ConstructionError(ValueError):
    """A randomized forwarding table failed its feasibility validation."""
