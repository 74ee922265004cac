"""Polarizations: invariant divisors, their polytopes, and facet volumes.

A divisor D = sum a_i D_i cuts out the polytope ``<x, ray_i> >= -a_i``.  On
a smooth complete fan each maximal cone s carries the point
``u_s = -sum_{l in s} a_l m_{s,l}`` (m the cone's duals) that solves its
equalities; for an ample D these are the vertices, the facets correspond
to the rays, and each facet volume is measured in the lattice of its own
hyperplane (unit simplex = 1/(dim-1)!).

A polarization needs one integer height per cone: with q the common
denominator of the a_i and xi the fan's generic vector,
``h_s = <xi, q*u_s> = -sum_{l in s} q*a_l <xi, m_{s,l}>``, n products with
the pairings the validated fan keeps.  Ampleness is decided wall by wall
(the toric Kleiman criterion; Cox, Little and Schenck, *Toric Varieties*,
2011, ch. 6): D is ample iff ``D.V(tau) > 0`` on every wall tau.  With tau
the face of cone s without its k-th ray and t the cone across it,
``u_t - u_s = (D.V(tau)) m_{s,k}``, so ``h_t - h_s`` is
``q (D.V(tau)) <xi, m_{s,k}>`` and one sign test per wall decides.

Facet volumes come from the vertex formula for simple lattice polytopes
(Lawrence, "Polytope volume computation", Math. Comp. 1991; Brion 1988):
each vertex of a facet contributes a term in its height and the slopes of
its edges under xi, which are the kept pairings, so no hull is ever
triangulated.  The terms are summed over one common integer denominator
whose per-cone factors the fan computes once (``Fan.cone_factors``), and
``VolumeTable`` keeps those integer numerators and the denominator; a
facet volume becomes a ``Fraction`` only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import BadCoefficient, BadVolumeTable, DimMismatch, NonAmple
from .fan import Fan, validate_fan


@dataclass(frozen=True)
class ToricDivisor:
    """``sum(coeffs[i] * D_i)`` on a validated fan.

    The one gate for a divisor: ``coeffs`` may be any iterable with one
    coefficient per ray of ``fan`` (BadCoefficient for a non-iterable,
    DimMismatch for another count), each an exact ``int`` or a ``Fraction``
    (BadCoefficient otherwise, bools included), and is kept as a tuple of
    ``Fraction``; ``fan`` is then validated in place, once per fan
    (InvalidFan when it is not smooth and complete).
    """

    fan: Fan
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            cs = tuple(self.coeffs)
        except TypeError:
            raise BadCoefficient(f"coefficients {self.coeffs!r} are not an iterable") from None
        for c in cs:
            if type(c) not in (int, Fraction):
                raise BadCoefficient(f"coefficient {c!r} is not an int or a Fraction")
        if len(cs) != len(self.fan.rays):
            raise DimMismatch(f"{len(cs)} coefficients for {len(self.fan.rays)} rays")
        object.__setattr__(self, "coeffs", tuple(map(Fraction, cs)))
        validate_fan(self.fan)


def divisor(f: Fan, coeffs) -> ToricDivisor:
    """Divisor sum(coeffs[i] * D_i) over the rays of ``f``; ``ToricDivisor``
    checks the coefficients."""
    return ToricDivisor(f, coeffs)


def anticanonical(f: Fan) -> ToricDivisor:
    """The anticanonical divisor: coefficient one on every ray."""
    return divisor(f, [1] * len(f.rays))


@dataclass(frozen=True)
class Polytope:
    """A divisor's polytope as one integer height per maximal cone.

    No constructor takes ``scale`` or ``heights``; both come from
    ``divisor``: ``scale`` is the common denominator q of its coefficients,
    and ``heights[s]`` is ``<xi, q*u_s>`` (module docstring); the cone
    points u_s themselves are never solved.  Moving along the k-th of the
    fan's ``duals[s]`` keeps every equality of cone s but that of its k-th
    ray: for an ample divisor these are the edges at u_s.
    """

    divisor: ToricDivisor
    scale: int = field(init=False)
    heights: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        f, coeffs = self.divisor.fan, self.divisor.coeffs
        q = lcm(*(c.denominator for c in coeffs))
        cs = tuple(c.numerator * (q // c.denominator) for c in coeffs)
        object.__setattr__(self, "scale", q)
        object.__setattr__(self, "heights", tuple(
            -sum(cs[r] * x for r, x in zip(cone, row)) for cone, row in zip(f.max_cones, f.pairings)
        ))


@dataclass(frozen=True)
class VolumeTable:
    """Per-ray normalized facet volumes of an ample polytope, in integers.

    ``weights[i] / den`` is ``(dim-1)!`` times the volume of the facet of
    ray i.  The table is its own gate: exact ``int``s, the weights an
    iterable of them, ``dim`` and ``den`` at least 1 (BadVolumeTable),
    weights at least 1 (NonAmple), divided by ``gcd(den, *weights)``, so
    equal tables mean equal volumes.  ``values`` is the one view of the
    volumes as fractions; the table is not a sequence.
    """

    dim: int
    weights: tuple[int, ...]
    den: int

    def __post_init__(self):
        try:
            dim, ws, den = self.dim, tuple(self.weights), self.den
        except TypeError:
            raise BadVolumeTable(f"weights {self.weights!r} are not an iterable") from None
        if not all(type(x) is int for x in (dim, den, *ws)) or dim < 1 or den < 1:
            raise BadVolumeTable(f"dim {dim!r}, den {den!r} must be ints >= 1, weights {ws!r} ints")
        if any(w < 1 for w in ws):
            raise NonAmple(f"facet weights {ws} must be positive")
        g = gcd(den, *ws)
        object.__setattr__(self, "weights", tuple(w // g for w in ws))
        object.__setattr__(self, "den", den // g)

    @property
    def values(self) -> tuple[Fraction, ...]:
        den = self.den * factorial(self.dim - 1)
        return tuple(Fraction(w, den) for w in self.weights)


def polytope_from_divisor(d: ToricDivisor) -> Polytope:
    """The polytope of ``d``: one height per maximal cone."""
    return Polytope(d)


def is_ample(p: Polytope) -> bool:
    """Whether ``D.V(tau) > 0`` on every wall tau: the sign of
    ``(h_t - h_s) * pairings[s][k]`` for each wall ``(s, k, t)`` of the fan
    (module docstring)."""
    f, h = p.divisor.fan, p.heights
    return all((h[t] - h[s]) * f.pairings[s][k] > 0 for s, k, t in f.walls)


def _facet_numerators(p: Polytope) -> list[int]:
    """``D^(n-1).D_i * L * q^(n-1)`` for every ray i: the vertex formula of
    ``facet_volumes``, a localization that holds for any divisor."""
    f = p.divisor.fan
    n = f.dim
    nums = [0] * len(f.rays)
    for cone, height, row, factor in zip(f.max_cones, p.heights, f.pairings, f.cone_factors[1]):
        height = height ** (n - 1) * factor
        for r, x in zip(cone, row):
            nums[r] -= height * x
    return nums


def facet_volumes(p: Polytope) -> VolumeTable:
    """Normalized volume of every facet of an ample polytope.

    With xi the generic vector of the fan's covering count (it pairs
    nonzero with every edge direction, the cone duals), vertex ``u`` of
    cone s and its edges ``m_k``, the facet of ray i has volume
    ``sum over cones s containing i of <xi, u>^(n-1)
    / ((n-1)! * prod_{k in s, k != i} -<xi, m_k>)``:
    the edges at ``u`` other than ``m_i`` span the facet and form a basis
    of its lattice, because the polytope is simple and the fan smooth.
    With ``g_k = -<xi, m_k> = -pairings[s][k]``, ``P_s = prod_k g_k``, L the
    lcm of the ``|P_s|`` and ``h_s = <xi, q*u>`` the cone's height, that
    term is the integer ``h_s^(n-1) * g_i * (L // P_s)`` over
    ``L * q^(n-1) * (n-1)!``; the table keeps the sums of those integers as
    its weights over ``L * q^(n-1)`` and divides both by their gcd.  L and the
    ``L // P_s`` depend on the fan alone, which keeps them
    (``Fan.cone_factors``), so a polarization only forms the heights' powers.

    Raises NonAmple when the divisor is not ample (the facet structure is
    then degenerate and the slope theory does not apply).
    """
    if not is_ample(p):
        raise NonAmple("the divisor is not ample on this fan")
    f = p.divisor.fan
    return VolumeTable(f.dim, _facet_numerators(p), f.cone_factors[0] * p.scale ** (f.dim - 1))


def is_reflexive(p: Polytope) -> bool:
    """Whether P_D is reflexive with the origin as its interior point: a
    lattice polytope with every facet at lattice distance 1.

    For a nef D on the smooth fan the cone points u_s are the vertices and
    each ray's inequality is tight at the points of the cones through it,
    so P_D is a lattice polytope exactly when ``scale == 1``.  Ray i gives a facet, at lattice distance
    ``a_i``, exactly when ``D^(n-1).D_i > 0``.  So the test is linear:
    ``scale == 1``, ``a_i == 1`` on every ray that gives a facet and
    ``a_i >= 1`` on every other ray.  No lattice point is visited.

    Raises NonAmple when D is not nef: ``D.V(tau) < 0`` on some wall tau.
    """
    f, h = p.divisor.fan, p.heights
    if any((h[t] - h[s]) * f.pairings[s][k] < 0 for s, k, t in f.walls):
        raise NonAmple("the divisor is not nef on this fan")
    if p.scale != 1:
        return False
    nums = _facet_numerators(p)
    return all(a == 1 if x > 0 else a >= 1 for a, x in zip(p.divisor.coeffs, nums))
