"""The gates where input enters: junk in the arguments, a bare number or
None in place of a list included, raises a package error (or the fan
gate's TypeError), never a builtin error from a later layer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab.charts import chart_of, rank_one_exists
from toricstab.errors import (
    BadCoefficient, BadVolumeTable, InvalidJumpData, InvalidLambda, NotMaximal, ToricStabError,
)
from toricstab.fan import Fan, construct_projective_space, make_fan, validate_fan
from toricstab.polytope import (
    ToricDivisor, VolumeTable, anticanonical, divisor, facet_volumes, polytope_from_divisor,
)
from toricstab.sheafdata import (
    JumpData, degree_of, lambda_matrix_to_jump, rank_of, tangent_jump_data, validate_lambda_matrix,
)
from toricstab.stability import decide

P2 = construct_projective_space(2)
P2_VOLUMES = facet_volumes(polytope_from_divisor(anticanonical(P2)))


def entries(good):
    """A ``good`` entry or junk: zeros, negatives, floats, bools, strings, None."""
    junk = (st.just(0), st.integers(-3, -1), st.floats(), st.booleans(), st.text(max_size=2),
            st.none())
    return st.one_of(good, *junk)


# A bare number or None where a list belongs.
BARE = st.one_of(st.integers(-3, 5), st.none())


def rows(entry, n):
    """Rows of ``n`` entries, of one too few or one too many, or a bare number or None."""
    return st.one_of(st.lists(entry, min_size=n - 1, max_size=n + 1), BARE)


def row_lists(entry, n):
    """Lists of such rows, or a bare number or None in place of the list."""
    return st.one_of(st.lists(rows(entry, n), min_size=1, max_size=4), BARE)


FAN_ARGS = st.tuples(
    st.sampled_from([make_fan, Fan]),
    entries(st.integers(1, 3)),
    row_lists(entries(st.integers(-1, 1)), 2),
    row_lists(entries(st.integers(0, 2)), 2),
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


# The messages of the one builtin error a gate raises: Fan's TypeError.
FAN_GATE = re.compile(r"(dim|ray entry|cone index) .* is not an integer"
                      r"|(ray|cone) list .* is not an iterable of rows")


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
       rows(entries(st.integers(1, 3)), 3), rows(entries(st.integers(0, 3)), 2),
       row_lists(entries(st.integers(-1, 2)), 3), rows(entries(st.integers(-1, 2)), 3))
def test_junk_raises_only_typed_errors(fan_args, table_args, per_ray, coeffs, sigma, mat, lam):
    build, dim, rays, cones = fan_args
    check(lambda: validate_fan(build(dim, rays, cones)))
    check(lambda: degree_of(tangent_jump_data(P2), VolumeTable(*table_args)))
    check(lambda: (rank_of(JumpData(per_ray)), degree_of(JumpData(per_ray), P2_VOLUMES)))
    check(lambda: decide(P2, ToricDivisor(P2, coeffs)))
    check(lambda: chart_of(P2, sigma))
    check(lambda: validate_lambda_matrix(P2, mat))
    check(lambda: lambda_matrix_to_jump(mat))
    check(lambda: rank_one_exists(P2, lam))


# A bare number or None in place of a list raises the gate's own error, not
# the builtin "'int' object is not iterable" of its tuple() call.
@pytest.mark.parametrize("bare", [5, None], ids=repr)
class TestBareScalars:
    def test_volume_table_weights(self, bare):
        with pytest.raises(BadVolumeTable, match="weights .* are not an iterable"):
            VolumeTable(2, bare, 1)

    def test_divisor_coefficients(self, bare):
        with pytest.raises(BadCoefficient, match="coefficients .* are not an iterable"):
            divisor(P2, bare)

    def test_lambda_matrix(self, bare):
        for mat in (bare, (bare,)):
            assert validate_lambda_matrix(P2, mat) == (
                False, (f"{mat!r} is not an iterable of rows",))

    def test_lambda_matrix_to_jump(self, bare):
        for mat in (bare, (bare,)):
            with pytest.raises(InvalidJumpData, match="is not an iterable of rows"):
                lambda_matrix_to_jump(mat)

    def test_rank_one_lambda(self, bare):
        with pytest.raises(InvalidLambda, match="is not an iterable of rows"):
            rank_one_exists(P2, bare)

    def test_chart_cone(self, bare):
        with pytest.raises(NotMaximal, match=f"{bare} is not a maximal cone of the fan"):
            chart_of(P2, bare)

    def test_fan_rays_and_cones(self, bare):
        rays, cones = list(P2.rays), list(P2.max_cones)
        for args, what in (
            ((bare, cones), "ray list"),
            (([bare] + rays[1:], cones), "ray list"),
            ((rays, bare), "cone list"),
            ((rays, [bare] + cones[1:]), "cone list"),
        ):
            for build in (make_fan, Fan):
                with pytest.raises(TypeError, match=f"{what} .* is not an iterable of rows"):
                    build(2, *args)


def test_rank_one_lambda_may_be_a_one_shot_iterator():
    # The lambda vector is read once: checked and then indexed, an iterator
    # would be spent before its entries were read.
    assert rank_one_exists(P2, iter([0, 0, 0])) == rank_one_exists(P2, [0, 0, 0]) == (1, 0)
