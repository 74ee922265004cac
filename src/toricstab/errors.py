"""Exception hierarchy shared by every module in the package.

Each exception corresponds to a precondition a caller can violate.  The
functions that raise them say so in their docstrings; nothing here is used
for control flow on valid input.
"""

from __future__ import annotations


class ToricStabError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(ToricStabError):
    """A vector that must be nonzero was zero."""


class ZeroSpan(ToricStabError):
    """A spanning set that must contain a nonzero vector was all zero."""


class DimMismatch(ToricStabError):
    """Vectors of incompatible lengths were combined."""


class NotSmoothCone(ToricStabError):
    """Ray set does not form a unimodular (smooth, simplicial) cone basis.

    ``det`` is the absolute determinant of the rays (0 when they are
    dependent).
    """

    def __init__(self, det, rays):
        self.det = det
        super().__init__(f"|det| = {det} != 1 for rays {rays}")


class InvalidFan(ToricStabError):
    """Fan data violates a structural invariant.

    ``violations`` holds one ``(code, detail)`` pair per broken invariant,
    e.g. ``("NotSmooth", "cone (0, 2)")`` or ``("NotComplete", "wall (1,)")``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = ", ".join(f"{code}: {detail}" for code, detail in self.violations)
        super().__init__(f"invalid fan ({lines})")


class BadDimension(ToricStabError):
    """A constructor was asked for an unsupported dimension."""


class BadTwist(ToricStabError):
    """A bundle constructor received unusable twist parameters."""


class NonAmple(ToricStabError):
    """The divisor is not ample, so facet volumes / slopes are undefined
    (or not nef, where ``is_reflexive`` needs nef)."""


class InconsistentRank(ToricStabError):
    """Per-ray jump multiplicities do not sum to one common rank."""


class IncomparableLevels(ToricStabError, ValueError):
    """Two jump datasets whose levels must be pointwise comparable are not."""


class RankMismatch(ToricStabError):
    """Two jump datasets that must share a rank do not."""


class BadRank(ToricStabError):
    """A rank argument lies outside the meaningful range 1 <= r < dim."""


class InvalidJumpData(ToricStabError):
    """Jump pairs violate the defining constraints (lambda >= -1, e(-1) <= 1)."""


class NotMaximal(ToricStabError):
    """A chart was requested for a cone that is not a maximal cone of the fan."""


class InvalidLambda(ToricStabError):
    """A lambda-vector or lambda-matrix fails its validity conditions.

    ``failures`` lists one human-readable string per violated condition.
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("; ".join(self.failures) or "invalid lambda data")


class TooManyRays(ToricStabError, ValueError):
    """A fan has more rays than the flat enumeration is capped at."""


class BadCoefficient(ToricStabError, TypeError):
    """A divisor coefficient is neither an exact ``int`` nor a ``Fraction``."""


class ParseError(ToricStabError):
    """Input text (JSON fan/divisor files, rationals, CLI params) is malformed."""
