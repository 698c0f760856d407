"""Exception types raised across the package."""


def with_fields(exc: Exception, *fields: str) -> Exception:
    """`exc` carrying `fields`, the names of the fields its check read, rejected field first."""
    exc.fields = fields
    return exc


class OirsVlcError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(OirsVlcError):
    """Zero-length or antiparallel vectors where a direction is required."""


class ShapeError(OirsVlcError):
    """Array dimensions inconsistent with the operation's contract."""


class ZeroGainError(OirsVlcError):
    """Relative growth rate requested at a point of zero channel gain."""


class SingularGeometryError(OirsVlcError):
    """Taylor coefficients diverge (incidence cosine at or below zero)."""


class SingularSystemError(OirsVlcError):
    """Ridge system not invertible (rank-deficient pilots at sigma = 0)."""


class LayoutError(OirsVlcError):
    """Grid too small, or spacing incompatible with the aligned block."""


class IdentifiabilityError(OirsVlcError):
    """Fewer pilot slots than LEDs: the per-block estimate is underdetermined."""


class ZeroReferenceError(OirsVlcError):
    """NMSE requested against an all-zero reference tensor."""


class ConfigError(OirsVlcError):
    """Configuration file parse or validation failure.

    The message names the offending key path.
    """
