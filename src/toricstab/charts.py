"""Chart-level oracle for equivariant vector fields.

Every maximal smooth cone sigma gives an affine chart with coordinates
z_1..z_n dual to its rays.  A monomial derivation chi(u) * d_v expands
there as

    chi(u) d_v  =  sum_i  <m_i, v> * chi(u + m_i) * d/dz_i

with m_1..m_n the dual basis of sigma's rays, and it is regular on the
chart exactly when every exponent with nonzero coefficient lies in the
semigroup S_sigma.  This gives an existence check for rank-one sheaf
data that is independent of the subspace criterion used by the
stability module: the two are compared against each other in tests and
by the `oracle` command, never merged.

``rank_one_exists`` tests one line, the only one the data allow, on the
charts of a cover whose cones reach every ray; its docstring proves that
every chart answers as those of the cover do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DimMismatch, InvalidLambda, NotMaximal, ZeroVector
from .fan import Fan, cone_rays, validate_fan
from .lattice import Vector, dot, line_of
from .sheafdata import validate_lambda_matrix


@dataclass(frozen=True)
class Chart:
    cone: tuple[int, ...]
    rays: tuple[Vector, ...]
    dual: tuple[Vector, ...]


@dataclass(frozen=True)
class MonomialDerivation:
    """The rational vector field chi(u) * d_v, chart-independent data."""

    u: Vector
    v: tuple

    def __post_init__(self):
        if len(self.u) != len(self.v):
            raise DimMismatch(f"weight has {len(self.u)} entries, direction {len(self.v)}")
        if not any(self.v):
            raise ZeroVector("derivation direction must be nonzero")


def chart_of(f: Fan, sigma) -> Chart:
    """The chart of the maximal cone ``sigma`` (``int`` indices in any order;
    NotMaximal for anything else, a bare number included), its duals read
    off ``f``, which is validated in place, once per fan (InvalidFan when it
    is not smooth and complete)."""
    validate_fan(f)
    cone = sigma
    try:
        cone = tuple(sigma)
        key = tuple(sorted(cone)) if all(type(i) is int for i in cone) else None
        ci = f.max_cones.index(key)
    except (TypeError, ValueError):
        raise NotMaximal(f"{cone} is not a maximal cone of the fan") from None
    return Chart(cone=f.max_cones[ci], rays=cone_rays(f, key), dual=f.duals[ci])


def expand_in_chart(d: MonomialDerivation, c: Chart):
    """Nonzero terms (coefficient, exponent, coordinate index) of d on c."""
    terms = []
    for i, m in enumerate(c.dual):
        coeff = dot(m, d.v)
        if coeff:
            exponent = tuple(x + y for x, y in zip(d.u, m))
            terms.append((coeff, exponent, i))
    return tuple(terms)


def is_regular(d: MonomialDerivation, c: Chart) -> bool:
    return _regular(d.u, d.v, c.rays, c.dual)


def _regular(u, v, rays, dual) -> bool:
    """chi(u) d_v is regular on the chart of ``rays`` with duals ``dual``:
    every exponent u + m_i with <m_i, v> != 0 pairs >= 0 with every ray."""
    for m in dual:
        if dot(m, v):
            e = tuple(map(add, u, m))
            if any(dot(e, ray) < 0 for ray in rays):
                return False
    return True


def rank_one_exists(f: Fan, lam) -> Vector | None:
    """Direction line of a rank-one sheaf realizing the data, or None.

    The data allow one line only, so it is the one tested: v is
    ``line_of`` the first ray carrying -1, or of ray 0 when no entry is -1.
    v witnesses the data when chi(u) d_v, with u the pinned weight, is
    regular on the chart of every cone of a cover: in cone order, each
    cone that holds a ray no earlier kept cone holds, at most
    ``rays - n + 1`` of them.  ``f`` is validated in place, once per fan
    (InvalidFan when it is not smooth and complete).

    Why one line suffices.  On the chart of sigma, with duals m_k, the
    exponent u + m_k pairs with the ray rho_j of sigma to lam_j + delta_jk.
    If no ray of sigma carries -1, every exponent pairs >= 0, so every line
    is regular there.  If ray a of sigma carries -1, every k != a with
    <m_k, v> != 0 gives -1 at rho_a, so v is regular there exactly when
    v is parallel to rho_a; sigma holds no second such ray, since
    ``validate_lambda_matrix`` rejects two rays carrying -1 that span a
    cone.  The cover reaches every ray, so a witness exists exactly when
    all rays carrying -1 are parallel, and it is their line; with no -1,
    every line is a witness.  Every chart answers as the cover does.
    """
    validate_fan(f)
    try:
        lam = tuple(lam)  # read once: it may be a one-shot iterator
    except TypeError:
        pass  # a bare number or None, which the check below names
    ok, problems = validate_lambda_matrix(f, (lam,))
    if not ok:
        raise InvalidLambda(problems)
    v = line_of(f.rays[lam.index(-1) if -1 in lam else 0])
    reached: set[int] = set()
    for c, dual in zip(f.max_cones, f.duals):
        if reached.issuperset(c):
            continue
        reached.update(c)
        # The pinned weight u = sum_i lam_i m_i: <u, ray_i> = lam_i on c.
        u = (0,) * f.dim
        for i, m in zip(c, dual):
            if lam[i]:
                u = tuple(x + lam[i] * y for x, y in zip(u, m))
        if not _regular(u, v, cone_rays(f, c), dual):
            return None
    return v


def reexpand(terms, source: Chart, target: Chart):
    """Push a chart expansion into another chart and merge terms.

    Each term c * chi(e) * d/dz_i of the source chart is the monomial
    derivation chi(e - m_i) * d_{c * alpha_i}; expanding those in the
    target chart and collecting by (exponent, index) must reproduce the
    target expansion of the original field.
    """
    merged: dict[tuple, Fraction] = {}
    for coeff, exponent, i in terms:
        u = tuple(x - y for x, y in zip(exponent, source.dual[i]))
        v = tuple(coeff * x for x in source.rays[i])
        for c2, e2, j in expand_in_chart(MonomialDerivation(u, v), target):
            key = (e2, j)
            merged[key] = merged.get(key, 0) + c2
    return tuple(
        (coeff, exponent, j)
        for (exponent, j), coeff in sorted(merged.items())
        if coeff
    )
