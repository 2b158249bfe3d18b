"""Exception types shared across the package."""


class FieldLabError(Exception):
    """Base class for every package-specific failure."""


class NumericalFailure(FieldLabError):
    """A computation on valid input failed; the CLI exits 3."""


class ResourceGuard(FieldLabError):
    """A size guard refused the work before it started; the CLI exits 4."""


class LagrangianSyntaxError(FieldLabError):
    """Lagrangian text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonQuadraticKinetic(FieldLabError):
    """Kinetic term is not a positive quadratic in zt."""


class UnsupportedMixing(FieldLabError):
    """Monomial outside the supported zt / zx / z forms."""


class DegreeTooHigh(FieldLabError):
    """Potential degree above the configured maximum."""


class NonFiniteCoefficient(FieldLabError):
    """A Lagrangian coefficient overflowed to infinity or NaN."""


class DegenerateKinetic(NumericalFailure):
    """Effective kinetic coefficient vanished; the momentum solve is singular."""


class NonPositiveCovariance(FieldLabError):
    """Gaussian covariance is not positive-definite."""


class GridUnresolved(FieldLabError):
    """Gaussian width falls below one grid cell."""


class MasslessZeroMode(FieldLabError):
    """Massless lattice has an undamped zero mode; no normalizable ground state."""


class ConfigMismatch(FieldLabError):
    """States live on different lattice configurations."""


class DimensionTooLarge(ResourceGuard):
    """State dimension exceeds the dense-operator guard."""


class NonSeparableHamiltonian(FieldLabError):
    """Operator has cross terms; split-step integration is unavailable."""


class SolverDivergence(NumericalFailure):
    """Iterative linear solve exceeded its iteration cap."""


class NotSpacelike(NumericalFailure):
    """A surface slope, of a link or a site, reached or exceeded the characteristic speed."""


class ScheduleMismatch(FieldLabError):
    """Deformation schedules do not share start and end surfaces."""


class ShapeMismatch(FieldLabError):
    """Field history dimensions do not match the path-integral layout."""


class EnumerationTooLarge(ResourceGuard):
    """Brute-force history count exceeds the enumeration guard."""


class SingularBVP(NumericalFailure):
    """Two-time boundary value problem is singular or near-singular."""


class NewtonDivergence(NumericalFailure):
    """Damped Newton iteration failed to converge."""


class NonFiniteResult(NumericalFailure):
    """A computed quantity, or a result about to be written, holds NaN or infinity."""


class ConfigError(FieldLabError):
    """Run configuration is invalid; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
