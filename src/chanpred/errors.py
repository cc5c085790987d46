"""Exception types shared across the package."""


class ChanpredError(Exception):
    """Base class for all chanpred errors."""


class ConfigError(ChanpredError):
    """Invalid configuration value or inconsistent parameter combination."""


class ContractError(ChanpredError):
    """An operation was called with data violating its preconditions
    (unknown domain, wrong provenance, insufficient length, shape mismatch)."""


class TraceFormatError(ChanpredError):
    """A trace or checkpoint file is malformed; the message names the offending line."""


class TrainingDivergedError(ChanpredError):
    """Training produced a non-finite loss."""
