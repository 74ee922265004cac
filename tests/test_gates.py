"""The gates where input enters: junk in well-shaped arguments raises a
package error (or the fan gate's TypeError), never a builtin error from a
later layer."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab.charts import chart_of
from toricstab.errors import ToricStabError
from toricstab.fan import Fan, construct_projective_space, make_fan, validate_fan
from toricstab.polytope import (
    ToricDivisor, VolumeTable, anticanonical, facet_volumes, polytope_from_divisor,
)
from toricstab.sheafdata import JumpData, degree_of, rank_of, tangent_jump_data
from toricstab.stability import admissible_slope_bound, decide

P2 = construct_projective_space(2)
P2_VOLUMES = facet_volumes(polytope_from_divisor(anticanonical(P2)))


def entries(good):
    """A ``good`` entry or junk: zeros, negatives, floats, bools, strings, None."""
    junk = (st.just(0), st.integers(-3, -1), st.floats(), st.booleans(), st.text(max_size=2),
            st.none())
    return st.one_of(good, *junk)


def rows(entry, n):
    """Rows of ``n`` entries, and of one too few or one too many."""
    return st.lists(entry, min_size=n - 1, max_size=n + 1)


FAN_ARGS = st.tuples(
    st.sampled_from([make_fan, Fan]),
    entries(st.integers(1, 3)),
    st.lists(rows(entries(st.integers(-1, 1)), 2), min_size=1, max_size=4),
    st.lists(rows(entries(st.integers(0, 2)), 2), min_size=1, max_size=4),
)
TABLE_ARGS = st.tuples(
    entries(st.integers(1, 3)), rows(entries(st.integers(1, 5)), 3), entries(st.integers(1, 5)),
)
LEVEL, MULTIPLICITY = entries(st.integers(-1, 2)), entries(st.integers(1, 2))
# Pairs, and junk in their place: one or three entries, or a bare number.
PAIRS = st.lists(st.one_of(st.tuples(LEVEL, MULTIPLICITY), st.tuples(LEVEL),
                           st.tuples(LEVEL, MULTIPLICITY, MULTIPLICITY), LEVEL), max_size=3)
# Per-ray pair lists, a bare number in place of one, or in place of them all.
PER_RAY = st.one_of(st.lists(st.one_of(PAIRS, LEVEL), min_size=2, max_size=4), LEVEL)


# The message of the one builtin error a gate raises: Fan's TypeError.
FAN_GATE = re.compile(r"(dim|ray entry|cone index) .* is not an integer")


def check(call):
    """Run ``call``: bad input may raise a package error or the fan gate's TypeError."""
    try:
        call()
    except ToricStabError:
        pass
    except TypeError as e:
        assert FAN_GATE.fullmatch(str(e)), e


@settings(max_examples=300, deadline=None)
@given(FAN_ARGS, TABLE_ARGS, PER_RAY,
       rows(entries(st.integers(1, 3)), 3), rows(entries(st.integers(0, 3)), 2))
def test_junk_raises_only_typed_errors(fan_args, table_args, per_ray, coeffs, sigma):
    build, dim, rays, cones = fan_args
    check(lambda: validate_fan(build(dim, rays, cones)))
    check(lambda: degree_of(tangent_jump_data(P2), VolumeTable(*table_args)))
    check(lambda: admissible_slope_bound(P2, 1, VolumeTable(*table_args)))
    check(lambda: (rank_of(JumpData(per_ray)), degree_of(JumpData(per_ray), P2_VOLUMES)))
    check(lambda: decide(P2, ToricDivisor(P2, coeffs)))
    check(lambda: chart_of(P2, sigma))
