"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all numerical-geometry errors."""


class SingularPoint(GeometryError):
    """A characteristic quantity was requested where the horizontal normal vanishes."""


class StoppedAtSingular(GeometryError):
    """An integral curve ran into the singular locus before finishing."""


class NonFiniteValue(GeometryError):
    """A kernel produced or was fed a NaN/inf sample."""


class CertificateNotFound(GeometryError):
    """No grid point of the certificate search satisfied the required inequalities."""


class TubeTooSmall(GeometryError):
    """The kink of a deformed-area integrand left the integration window."""


class TubeConditionViolated(GeometryError):
    """A test function is not constant along rulings near the singular curves."""


class ConfigError(GeometryError):
    """Malformed run configuration (unknown key, bad value)."""


class SupportOutsideDomain(ConfigError, ValueError):
    """An integral was asked over a support that is not inside the chart domain."""
