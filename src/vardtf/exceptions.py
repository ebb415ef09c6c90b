"""Exception hierarchy shared by all vardtf modules."""


class VardtfError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(VardtfError):
    """A computation on valid input failed; every other VardtfError is a usage error."""


class ShapeMismatch(VardtfError):
    """Array dimensions are inconsistent with the declared model."""


class NotPositiveSemiDefinite(VardtfError):
    """A covariance matrix is asymmetric or has negative eigenvalues."""


class Unstable(VardtfError):
    """The companion matrix has spectral radius at or above one.

    Attributes
    ----------
    spectral_radius : float
        The offending spectral radius.
    """

    def __init__(self, spectral_radius: float):
        self.spectral_radius = float(spectral_radius)
        super().__init__(
            f"model is not stable: companion spectral radius "
            f"{self.spectral_radius:.6g} >= 1"
        )


class OrderZero(VardtfError):
    """Operation requires at least one lag coefficient matrix."""


class SingularAtFrequency(NumericalError):
    """A frequency-domain matrix could not be inverted reliably.

    Attributes
    ----------
    frequency : float
        Grid point (radians per sample) where inversion broke down.
    """

    def __init__(self, frequency: float, detail: str = ""):
        self.frequency = float(frequency)
        msg = f"singular matrix at frequency {self.frequency:.6g} rad/sample"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateRow(NumericalError):
    """An entire transfer-function row vanishes; row-normalization undefined."""


class SpectrumOverflow(NumericalError):
    """A spectral quantity left the double range (inf or NaN) at some frequency."""


class DimensionTooSmall(VardtfError):
    """Marginalization requires strictly more channels than are retained."""


class SingularToeplitz(NumericalError):
    """The block-Toeplitz autocovariance system is singular."""


class NumericalBreakdown(NumericalError):
    """An innovation covariance lost positive semi-definiteness."""


class NoConvergence(NumericalError):
    """An iterative linear-algebra solve failed to converge."""


class NotConverged(NumericalError):
    """Order-selection loop hit its cap before meeting the tolerance.

    Attributes
    ----------
    best
        The representation achieved at the largest order tried.
    diagnostics : dict
        Tail norms and innovation-trace deltas per order tried.
    """

    def __init__(self, message: str, best=None, diagnostics=None):
        self.best = best
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class RankDeficientRegressors(NumericalError):
    """The lagged-regressor matrix does not have full column rank."""


class UnstableFit(NumericalError):
    """A least-squares VAR estimate is not stable, as on trending data."""
