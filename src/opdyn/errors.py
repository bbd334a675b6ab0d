"""Exception types shared across the package."""


class OpdynError(Exception):
    """Base class for all errors raised by this package."""


class HorizonExceeded(OpdynError):
    """A transport power exceeded the configured horizon."""


class WindowExceeded(OpdynError):
    """An index left a declared window or the working window cap."""


class NonFiniteEntry(OpdynError, ValueError):
    """A matrix entry overflowed to inf or became nan."""


class ConvergenceError(OpdynError):
    """The LAPACK SVD behind a dense norm failed to converge."""


class FormatError(OpdynError):
    """A serialized matrix or bundle file is malformed."""


class ScenarioError(OpdynError):
    """A scenario file is malformed or inconsistent.

    Carries the full list of diagnostics so callers can show all
    problems at once instead of the first one found.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
