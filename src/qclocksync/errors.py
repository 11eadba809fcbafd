"""Exception hierarchy shared by all simulator modules."""


class QcsError(Exception):
    """Base class for all simulator errors."""


class ProtocolOrderError(QcsError):
    """An operation was attempted out of lifecycle order (e.g. re-collapsing a pair)."""


class BudgetError(QcsError):
    """A sampling schedule does not fit in the remaining un-consumed pairs."""


class EstimationError(QcsError):
    """A fit could not be performed on the given series."""


class RankDeficientError(EstimationError):
    """The least-squares design matrix is rank deficient (e.g. all times identical)."""


class InconclusiveError(QcsError):
    """The run produced no usable answer (distinct from a hard failure)."""


class ConfigError(QcsError):
    """A scenario configuration violates a load-time constraint."""


def blame(exc: Exception, param: str) -> Exception:
    """exc, naming in exc.param the argument at fault, so that a caller that
    validates a whole scenario can report the field it came from."""
    exc.param = param
    return exc
