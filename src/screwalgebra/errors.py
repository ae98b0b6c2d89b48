"""Exception types raised by the screw-algebra library.

Every domain error derives from ScrewAlgebraError so callers can catch the
whole family at once; parse errors from the CLI layer derive from it too.
"""


class ScrewAlgebraError(Exception):
    """Base class for all domain errors of this library."""


class ZeroVector(ScrewAlgebraError):
    """A direction was requested from a vector of (near-)zero length."""


class AngleAtPi(ScrewAlgebraError):
    """A half-angle-tangent parameter was requested for a half-turn angle."""


class TraceSingular(ScrewAlgebraError):
    """A rotation matrix with 1 + trace = 0 has no half-angle-tangent vector."""


class ResultantHalfTurn(ScrewAlgebraError):
    """compose_gibbs: the composed rotation is a half turn and has no rotation vector.

    compose_displacements keeps such a composite, in half-turn form.
    """


class GibbsOverflow(ScrewAlgebraError):
    """A displacement in half-turn form has no rotation vector q (Displacement.q)."""


class IntersectingAxes(ScrewAlgebraError):
    """The two axes meet; the skew-axis construction does not apply."""


class DegenerateResultant(ScrewAlgebraError):
    """The composed motion has no axis (identity resultant)."""


class ZeroTranslation(ScrewAlgebraError):
    """A zero translation cannot be replaced by a rotation couple."""


class DegenerateInput(ScrewAlgebraError):
    """Input points are collinear, non-rigid, or otherwise unusable."""


class ParallelPlanes(ScrewAlgebraError):
    """The two construction planes do not intersect in a unique line."""


class CollinearPoints(ScrewAlgebraError):
    """The base points are collinear; no frame can be built on them."""


class NonRigidData(ScrewAlgebraError):
    """Pairwise distances are not preserved by the correspondence data."""


class TooFewPoints(ScrewAlgebraError):
    """The operation needs more correspondences than were supplied."""


class CoplanarPoints(ScrewAlgebraError):
    """The points span no volume; the orientation test is undecidable.

    Carries the distance-preservation verdict that could still be reached:
    the `rigid` attribute is True/False when known, None otherwise.
    """

    def __init__(self, message: str, rigid: bool | None = None):
        super().__init__(message)
        self.rigid = rigid


class CoupleDegenerate(ScrewAlgebraError):
    """The rotation amounts cancel; the resultant is a translation."""


class ParseError(ScrewAlgebraError):
    """A motion file or correspondence file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
