"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A schedule or solver configuration is missing/violating a required constant."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge, or met a NaN or infinite input."""


class BudgetExceeded(RuntimeError):
    """An inner solver exhausted its iteration cap before certifying.

    Carries the best iterate found so far and the last threshold value so the
    caller can inspect how close the run got.  An outer loop that re-raises it
    also sets ``trace`` (the RunTrace of the iterations completed before the
    failure) and ``outer_k`` (the outer iteration that failed).
    """

    def __init__(self, message, best_point=None, last_phi=None, iterations=None):
        super().__init__(message)
        self.best_point = best_point
        self.last_phi = last_phi
        self.iterations = iterations
        self.trace = None
        self.outer_k = None
