"""Fans of smooth complete toric varieties.

A fan is stored combinatorially: the list of primitive ray generators and
the list of maximal cones, each given by ray indices.  ``validate_fan``
checks the full package of invariants exactly:

* rays primitive, distinct, each used by some maximal cone;
* every maximal cone a unimodular basis (smoothness);
* completeness: every wall (codimension-one face) lies in exactly two
  maximal cones which sit on opposite sides of it, the cones are
  connected through such walls, and exactly one maximal cone contains the
  generic vector ``v`` (the covering count).  Only when a check fails or
  the count is not one does the pairwise test run, that any two maximal
  cones intersect exactly in the cone spanned by their common rays; it
  names the offending pairs in the violations.

Why the covering count suffices (Ewald, *Combinatorial Convexity and
Algebraic Geometry*, 1996, ch. III).  Let the walls pair up with their
cones on opposite sides, the cones be connected through them, and ``v`` be
the first ``(1, t, ..., t^(n-1))``, t = 2, 3, ..., pairing nonzero with
every cone dual; each dual is the normal of a wall, so ``v`` lies on no
wall hyperplane and a cone contains it iff every dual pairs positively.

1. Glue the maximal cones along their shared walls and map the result
   radially to the sphere S^(n-1).  Near an interior point of a cone or of
   a wall the map is a local homeomorphism, because the two cones at a
   wall lie on opposite sides.  What is left are the images of faces with
   at most n-2 rays: they have codimension >= 2 in the sphere (for n = 2
   they are empty, the faces being the origin alone), so they do not
   separate it.  The map is proper (finitely many compact simplices), so
   off those images it is a covering of a connected space with a constant
   number of sheets d.  ``v`` avoids them, so the count equals d.
2. If d = 1, distinct maximal cones have disjoint interiors.
3. Every face tau inherits pairing and sidedness in its link: project along
   span tau, which unimodularity keeps a lattice basis, and the walls of
   star(tau) become walls of a fan of dimension n - dim tau.  So star(tau)
   covers a neighbourhood of relint tau.  Let p lie in sigma_a ∩ sigma_b,
   with tau the minimal face of sigma_a containing it.  Points of
   int sigma_b near p and off every wall hyperplane then lie in the
   interior of a cone of star(tau), which by step 2 is sigma_b.  So tau is
   a face of sigma_b as well, and p lies in the cone spanned by the common
   rays of sigma_a and sigma_b: the pairwise condition holds.

For n = 1 the sphere is two points and none of this is needed: the one
wall, the origin, lies in every cone, so the wall pairing alone leaves the
two cones on opposite sides, the rays (1) and (-1).

Conversely, a count d >= 2 means two cones overlap, and then the pairwise
test names them.  The count costs O(cones * n^2), read off the pairings
that accept ``v``, which the fan keeps; the pairwise test stays as the
fallback that reports violations, and as a test oracle.

Cone duals come by wall crossing (Oda, *Convex Bodies and Algebraic
Geometry*, 1988).  Let sigma' = sigma - rho_k + rho' share a wall with
sigma, whose duals are m_1..m_n.  As rho' = sum_l <m_l, rho'> rho_l,
|det sigma'| = |p| for p = <m_k, rho'>: sigma' is unimodular iff p = +-1,
and then its duals are p*m_k (for rho') and m_l - <m_l, rho'> p*m_k, which
pair to delta with its rays (a dual basis is unique).  p < 0 says that
rho_k and rho' lie on opposite sides of the wall, and for two unimodular
cones p has the same sign from either side.  So one walk does three jobs:
it records p as the side of each wall it first reaches, crosses only the
walls with p = -1, and needs one Hermite reduction (``dual_basis``) per
component of the cones connected through opposite-side walls, plus one per
non-smooth cone.  A smooth fan is connected exactly when one start
suffices.  Every other cone costs O(n^2) integer operations.

The pairings with v ride along on the same crossing.  With p = -1 the
duals of sigma' pair with v to -<v, m_k> (for rho') and
<v, m_l> + q_l <v, m_k>, where q_l = <m_l, rho'> is what the crossing
computes anyway.  So only the duals of each start cone are paired with
v = (1, 2, ..., 2^(n-1)) by dot products.  Only when a carried pairing is
0, t = 2 is not generic for the fan, and ``generic_vector`` searches from
t = 2 over all the duals.  Walls are keyed by one integer each, the
cone's ray bitmask with the omitted ray cleared, and are sorted only to
name them in violations.

Constructors for the standard families (projective spaces, Hirzebruch
surfaces, projectivized split bundles, products) and the ten smooth toric
Fano fourfolds with b_2 <= 2 live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod

from .errors import BadDimension, BadTwist, InvalidFan, NotSmoothCone
from .lattice import (
    Vector, dot, dual_basis, generic_vector, hermite_canonical, identity_rows, primitive_vector,
    proper_flats,
)


@dataclass(frozen=True)
class Fan:
    """Rays and maximal cones of a simplicial fan in Z^dim.

    The one gate for fan input: ``dim``, each ray entry and each cone index
    is an exact ``int`` (TypeError otherwise, bools included), and rays and
    cones are kept as tuples, each cone sorted.  No constructor sets the
    rest: ``validate_fan`` stores it on the fan in place, once, outside
    equality, and it marks the fan validated: ``duals[s]``, the dual basis
    of maximal cone s; ``pairings[s][k]``, its k-th dual paired with the
    covering count's moment-curve vector, never 0; ``walls``, each wall
    once as ``(s, k, t)``: the face of cone s without its k-th ray, with
    cone t across it.

    Whatever depends on the fan alone and is needed again at every
    polarization is derived on first use, from the validated fan, and kept
    in the instance dict, never as a dataclass field, so it dies with the
    fan and takes no part in equality, hashing or repr: ``flats``,
    ``cone_factors`` and the bases ``flat_basis`` returns.
    """

    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    duals: tuple[tuple[Vector, ...], ...] | None = field(
        default=None, init=False, compare=False, repr=False)
    pairings: tuple[Vector, ...] | None = field(
        default=None, init=False, compare=False, repr=False)
    walls: tuple[tuple[int, int, int], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        rays = tuple(map(tuple, self.rays))
        cones = tuple(map(tuple, self.max_cones))
        for what, rows in (("dim", ((self.dim,),)), ("ray entry", rays), ("cone index", cones)):
            for row in rows:
                for x in row:
                    if type(x) is not int:
                        raise TypeError(f"{what} {x!r} is not an integer")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", tuple(tuple(sorted(c)) for c in cones))

    @property
    def validated(self) -> bool:
        return self.duals is not None

    @cached_property
    def flats(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(rank, rays_in)`` of every proper nonempty flat of the ray
        matroid, sorted; grown on first use and kept with the fan."""
        return proper_flats(validate_fan(self).rays, self.dim)

    @cached_property
    def cone_factors(self) -> tuple[int, tuple[int, ...]]:
        """``(L, factors)`` for the vertex formula of ``facet_volumes``: with
        ``P_s = prod(-x for x in pairings[s])``, L is the lcm of the ``|P_s|``
        and ``factors[s] = L // P_s``."""
        products = [prod(-x for x in row) for row in validate_fan(self).pairings]
        common = lcm(*products)
        return common, tuple(common // p for p in products)

    def flat_basis(self, rays_in) -> tuple[Vector, ...]:
        """Hermite-canonical basis of the saturated span of the rays
        ``rays_in``, derived once per ray set and kept with the fan."""
        bases = self.__dict__.setdefault("_flat_bases", {})
        key = tuple(rays_in)
        if key not in bases:
            bases[key] = hermite_canonical(cone_rays(validate_fan(self), key))
        return bases[key]


def make_fan(dim, rays, max_cones) -> Fan:
    """Build an (unvalidated) Fan; ``Fan`` itself checks and normalizes."""
    return Fan(dim, rays, max_cones)


def cone_rays(f: Fan, cone) -> tuple[Vector, ...]:
    return tuple(f.rays[i] for i in cone)


# ---------------------------------------------------------------------------
# Validation


def validate_fan(f: Fan) -> Fan:
    """Check all fan invariants of ``f``, keep its duals, pairings and walls
    on ``f`` in place and return ``f``; a validated fan is returned at once.

    Raises InvalidFan carrying ``violations``: one ``(code, detail)`` pair
    per broken invariant.  Codes: BadDimension, BadRay, NonPrimitiveRay,
    DuplicateRay, BadIndex, DuplicateCone, UnusedRay, NotSmooth,
    NotComplete, BadIntersection.  Structural problems are reported before
    the geometric stages that depend on them.
    """
    if f.validated:
        return f
    violations: list[tuple[str, str]] = []
    if f.dim < 1:
        raise InvalidFan([("BadDimension", f"dim = {f.dim!r}")])
    n, rays, cones = f.dim, f.rays, f.max_cones

    if not rays:
        violations.append(("BadRay", "no rays"))
    for i, r in enumerate(rays):
        if len(r) != n:
            violations.append(("BadRay", f"ray {i} = {r!r}"))
    if violations:
        raise InvalidFan(violations)

    for i, r in enumerate(rays):
        if gcd(*r) != 1:
            violations.append(("NonPrimitiveRay", f"ray {i} = {r}"))
    first_seen: dict[Vector, int] = {}
    for i, r in enumerate(rays):
        if first_seen.setdefault(r, i) != i:
            violations.append(("DuplicateRay", f"rays {first_seen[r]} and {i} are both {r}"))

    if not cones:
        violations.append(("NotComplete", "no maximal cones"))
    used: set[int] = set()
    masks: dict[int, int] = {}  # ray bitmask -> first cone with those rays
    keys = []  # per cone, the key of each wall: its bitmask without that ray
    bad_cone = False
    for ci, c in enumerate(cones):
        if len(c) != n or len(set(c)) != n or c[0] < 0 or c[-1] >= len(rays):
            violations.append(("BadIndex", f"cone {ci} = {c!r}"))
            bad_cone = True
            continue
        mask = sum(1 << i for i in c)
        if mask in masks:
            violations.append(("DuplicateCone", f"cones {masks[mask]} and {ci} are both {c}"))
        masks[mask] = ci
        keys.append(tuple(mask ^ (1 << i) for i in c))
        used.update(c)
    if violations and (bad_cone or not cones or not rays):
        raise InvalidFan(violations)

    for i in sorted(set(range(len(rays))) - used):
        violations.append(("UnusedRay", f"ray {i} = {rays[i]} is in no maximal cone"))
    if violations:
        raise InvalidFan(violations)

    # Every wall (a cone minus one ray), keyed by its ray bitmask, with the
    # cones holding it and the position in each of the ray it omits.
    walls: dict[int, list[tuple[int, int]]] = {}
    for ci, cone_keys in enumerate(keys):
        for k, key in enumerate(cone_keys):
            walls.setdefault(key, []).append((ci, k))

    # Smoothness, wall sides, connectivity and the pairings with
    # v = (1, 2, ..., 2^(n-1)) in one walk: a Hermite reduction and n dot
    # products for each cone no crossing from a smooth cone has reached
    # (module docstring), in cone order.  The first visit to a two-cone wall
    # records p = <m_k, new ray> and the wall as (cone, k, other cone); only
    # p = -1 (opposite sides) is crossed, carrying duals and pairings over.
    v = tuple(1 << j for j in range(n))
    duals: list = [None] * len(cones)
    pairings: list = [None] * len(cones)
    side: dict[int, int] = {}
    adjacent: list[tuple[int, int, int]] = []
    starts = 0
    for start, c in enumerate(cones):
        if duals[start] is not None:
            continue
        try:
            duals[start] = dual_basis([rays[i] for i in c])
        except NotSmoothCone as e:
            violations.append(("NotSmooth", f"cone {c} has |det| = {e.det}"))
            continue
        pairings[start] = tuple(dot(v, m) for m in duals[start])
        starts += 1
        stack = [start]
        while stack:
            ci = stack.pop()
            ms, ps = duals[ci], pairings[ci]
            for k, key in enumerate(keys[ci]):
                members = walls[key]
                if len(members) != 2 or key in side:
                    continue
                cj, kj = members[members[0][0] == ci]  # the other cone, its new ray's place
                new = rays[cones[cj][kj]]
                mk = ms[k]
                side[key] = p = dot(mk, new)
                adjacent.append((ci, k, cj))
                if p != -1 or duals[cj] is not None:
                    continue
                pk = ps[k]
                crossed, paired = [], []
                for m, pm in zip(ms[:k] + ms[k + 1:], ps[:k] + ps[k + 1:]):
                    q = dot(m, new)
                    crossed.append(tuple(x + q * y for x, y in zip(m, mk)) if q else m)
                    paired.append(pm + q * pk)
                crossed.insert(kj, tuple(-x for x in mk))
                paired.insert(kj, -pk)
                duals[cj], pairings[cj] = tuple(crossed), tuple(paired)
                stack.append(cj)
    if violations:
        raise InvalidFan(violations)
    # A zero pairing means t = 2 is not generic: search on from t = 2.
    pairings = tuple(pairings) if all(map(all, pairings)) else generic_vector(n, duals)[1]

    # Wall pairing and orientation, read off the sides the walk recorded.
    # With every cone smooth |p| = 1, and p has one sign from either side.
    # Every two-cone wall has a side, so fewer sides than walls means a
    # wall in one cone or in three or more.
    if len(side) < len(walls) or max(side.values()) >= 0:
        named = []
        for key, members in walls.items():
            ci, k = members[0]
            named.append((cones[ci][:k] + cones[ci][k + 1:], key))
        for wall, key in sorted(named):
            members = walls[key]
            if len(members) != 2:
                violations.append(
                    ("NotComplete", f"wall {wall} lies in {len(members)} maximal cone(s)")
                )
            elif side[key] >= 0:
                c1, c2 = (cones[ci] for ci, _ in members)
                violations.append(
                    ("NotComplete", f"cones {c1} and {c2} lie on one side of wall {wall}")
                )
    # The walk crosses exactly the opposite-side walls, so one start reached
    # every cone exactly when they are connected through them.
    if starts != 1:
        violations.append(("NotComplete", "maximal cones are not connected through walls"))

    if violations or sum(min(row) > 0 for row in pairings) != 1:
        for a in range(len(cones)):
            for b in range(a + 1, len(cones)):
                detail = _pair_face_violation(rays, cones[a], cones[b], duals[a], duals[b])
                if detail is not None:
                    violations.append(("BadIntersection", detail))
        if violations:
            raise InvalidFan(violations)
    # Duals last: they mark the fan validated.
    f.__dict__.update(pairings=pairings, walls=tuple(adjacent), duals=tuple(duals))
    return f


def _pair_face_violation(rays, ca, cb, duals_a, duals_b):
    """Check cone(ca) ∩ cone(cb) == cone(common rays); return detail or None.

    The intersection is computed by slicing cone(ca) with the dual
    halfspaces of cone(cb): a standard double-description pass that keeps a
    generating set at every step (adjacency bookkeeping is unnecessary for
    a containment test, redundant generators are harmless).
    """
    common = set(ca) & set(cb)
    gens = [rays[i] for i in ca]
    for m in duals_b:
        vals = [dot(m, g) for g in gens]
        nxt = [g for g, val in zip(gens, vals) if val >= 0]
        positive = [(g, val) for g, val in zip(gens, vals) if val > 0]
        negative = [(g, val) for g, val in zip(gens, vals) if val < 0]
        for gp, vp in positive:
            for gn, vn in negative:
                w = tuple(-vn * a + vp * b for a, b in zip(gp, gn))
                if any(w):
                    nxt.append(primitive_vector(w))
        gens = []
        seen = set()
        for g in nxt:
            if g not in seen:
                seen.add(g)
                gens.append(g)
        if not gens:
            return None  # intersection is the origin
    for g in gens:
        coords = [dot(m, g) for m in duals_a]
        assert all(c >= 0 for c in coords)  # g was built inside cone(ca)
        for pos, ray_idx in enumerate(ca):
            if ray_idx not in common and coords[pos] != 0:
                return (
                    f"cones {ca} and {cb} intersect outside the face spanned by "
                    f"their common rays {tuple(sorted(common))}"
                )
    return None


# ---------------------------------------------------------------------------
# Constructors


def construct_projective_space(n: int) -> Fan:
    """Fan of projective n-space: rays e_1..e_n and -(e_1+...+e_n)."""
    if type(n) is not int or n < 1:
        raise BadDimension(f"projective space needs n >= 1, got {n!r}")
    rays = [*identity_rows(n), (-1,) * n]
    cones = [tuple(i for i in range(n + 1) if i != omit) for omit in range(n + 1)]
    return validate_fan(make_fan(n, rays, cones))


def construct_hirzebruch(m: int) -> Fan:
    """Fan of the Hirzebruch surface of twist m >= 0.

    Rays (1,0), (0,1), (-1,m), (0,-1) with the four quadrant-like cones.
    Twist 0 is the quadric P1 x P1.
    """
    if type(m) is not int or m < 0:
        raise BadTwist(f"Hirzebruch twist must be an integer >= 0, got {m!r}")
    rays = [(1, 0), (0, 1), (-1, m), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return validate_fan(make_fan(2, rays, cones))


def construct_proj_split(base_dim: int, twists) -> Fan:
    """Fan of P(O(t_1) + ... + O(t_k) + O) over projective base_dim-space.

    Coordinates are fiber-first: fiber rays e_1..e_k and -(e_1+...+e_k),
    then base rays e_{k+1}..e_{k+d} and -(e_{k+1}+...+e_{k+d}) twisted by
    sum_i t_i e_i.  Maximal cones omit one fiber ray and one base ray.
    Twisting by a constant or flipping all signs changes nothing up to
    lattice isomorphism, so any integer twists are accepted.
    """
    if type(base_dim) is not int or base_dim < 1:
        raise BadDimension(f"base dimension must be >= 1, got {base_dim!r}")
    ts = tuple(twists)
    if not ts or not all(type(t) is int for t in ts):
        raise BadTwist(f"twists must be a nonempty tuple of integers, got {twists!r}")
    k = len(ts)
    d = base_dim
    n = d + k
    units = identity_rows(n)
    fiber = [*units[:k], (-1,) * k + (0,) * d]
    base = list(units[k:])
    last = [ts[j] if j < k else 0 for j in range(n)]
    for j in range(k, n):
        last[j] -= 1
    base.append(tuple(last))
    rays = fiber + base
    cones = []
    for i in range(k + 1):
        for j in range(d + 1):
            cone = [p for p in range(k + 1) if p != i]
            cone += [k + 1 + q for q in range(d + 1) if q != j]
            cones.append(cone)
    return validate_fan(make_fan(n, rays, cones))


def construct_p1_bundle(dim: int, twist: int) -> Fan:
    """Fan of P(O + O(twist)) over projective (dim-1)-space, fiber last.

    Base-first coordinates: rays e_1..e_dim, then -e_dim, then
    (-1,...,-1,twist).  The fiber line is the last coordinate axis, so the
    two fiber rays are the rays at indices dim-1 and dim.  Isomorphic to
    ``construct_proj_split(dim - 1, (twist,))`` up to relabeling.
    """
    if type(dim) is not int or dim < 2:
        raise BadDimension(f"bundle needs total dimension >= 2, got {dim!r}")
    if type(twist) is not int or twist < 0:
        raise BadTwist(f"twist must be an integer >= 0, got {twist!r}")
    n = dim
    rays = [*identity_rows(n), (0,) * (n - 1) + (-1,), (-1,) * (n - 1) + (twist,)]
    base_idx = list(range(n - 1)) + [n + 1]
    cones = [[i for i in base_idx if i != omit] + [fiber]
             for fiber in (n - 1, n) for omit in base_idx]
    return validate_fan(make_fan(n, rays, cones))


def construct_product(f1: Fan, f2: Fan) -> Fan:
    """Product fan: concatenated rays, one cone per pair of cones."""
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    shift = len(f1.rays)
    cones = [c1 + tuple(i + shift for i in c2) for c1 in f1.max_cones for c2 in f2.max_cones]
    return validate_fan(make_fan(n1 + n2, rays, cones))


def catalog_fano4() -> tuple[tuple[str, Fan], ...]:
    """The ten smooth toric Fano fourfolds with second Betti number <= 2.

    P4 itself, the five P1-flavored bundles B1..B5, and the four
    projective-plane flavored C1..C4, in the conventional order.
    """
    p1 = construct_projective_space(1)
    p2 = construct_projective_space(2)
    p3 = construct_projective_space(3)
    return (
        ("P4", construct_projective_space(4)),
        ("B1", construct_p1_bundle(4, 3)),
        ("B2", construct_p1_bundle(4, 2)),
        ("B3", construct_p1_bundle(4, 1)),
        ("B4", construct_product(p1, p3)),
        ("B5", construct_proj_split(1, (1, 0, 0))),
        ("C1", construct_proj_split(2, (2, 0))),
        ("C2", construct_proj_split(2, (1, 0))),
        ("C3", construct_proj_split(2, (1, 1))),
        ("C4", construct_product(p2, p2)),
    )
