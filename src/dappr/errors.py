"""Exception types shared across the package.

Everything that signals a bad argument subclasses ValueError so callers can
catch broadly; the CLI maps ValueError to exit code 1.
"""


class DapprError(Exception):
    """Base class for package-specific errors."""


class DegenerateAlphaError(DapprError, ValueError):
    """Raised when an operation needs positive total concentration (alpha0 > 0)
    but the parameters describe total ignorance (alpha0 == 0)."""


class MaximiserValidityError(DapprError, ValueError):
    """Raised when a row has no closed-form inner maximiser: some
    a*_k = alpha_k - y_k + EPS is <= 0, where the objective is unbounded."""


class MetricUndefinedError(DapprError, ValueError):
    """Raised when a ranking metric is requested on degenerate input
    (all labels identical, empty input)."""


class StratificationError(DapprError, ValueError):
    """Raised when a stratified split is infeasible, e.g. a class has fewer
    samples than there are split parts."""


class CsvParseError(DapprError, ValueError):
    """Raised on malformed CSV rows; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
