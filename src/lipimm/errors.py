"""Exception hierarchy for the lipimm package."""


class LipimmError(Exception):
    """Base class for all package errors."""


class DegenerateFrameError(LipimmError):
    """Frame columns are (numerically) linearly dependent."""


class DimensionMismatchError(LipimmError):
    """Operands live in different Grassmannians or ambient spaces."""


class CutLocusError(LipimmError):
    """Log map requested at or beyond the cut locus (a principal angle hits pi/2)."""


class InadmissibleSupportError(LipimmError):
    """Measure support does not fit in an admissible convexity ball."""


class NonConvergenceError(LipimmError):
    """An iteration exceeded its step budget without reaching tolerance."""


class RegimeError(LipimmError):
    """Parameters outside the regime in which the operation is defined."""


class NotAGraphError(LipimmError):
    """Local projection is not single-valued (fold) or the slope blows up."""


class InsufficientSamplingError(LipimmError):
    """Sample density too low to resolve the requested patch."""


class CoherenceViolationError(LipimmError):
    """Unit normals of overlapping patches disagree in sign sample-by-sample."""


class WellDefinednessError(LipimmError):
    """Chart-wise construction disagrees on a chart overlap."""


class NonTransversalError(LipimmError):
    """Projection direction is tangent to the patch somewhere."""


class ClosenessError(LipimmError):
    """Two immersions are not close enough for the requested construction."""


class InvariantViolationError(LipimmError):
    """A quantity violated a bound that valid inputs cannot violate."""


class InputError(LipimmError):
    """Malformed or missing input data (manifest, CSV, CLI arguments)."""
