"""Two-sided transport operators F -> W^p F U^p and their orbits."""

import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _util import cut_at, random_matrix, translation, w1, w2
from opdyn import (
    FiniteMatrix,
    apply_power,
    compose,
    op_norm,
    monomial_product_norm,
    monomial_product_norm_rowcut,
    projection_matrix,
    truncate_right,
    unit,
)
from opdyn.elementary import (
    ElementaryOp,
    orbit,
    orbit_distances,
    write_orbit_csv,
)
from opdyn.lattice import PermutationUnitary, WeightedShift, WeightRule

small_matrices = st.builds(
    random_matrix,
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=2),
)


def op1(orientation="WFU") -> ElementaryOp:
    return ElementaryOp(translation(1), w1(), orientation)


def op2(orientation="WFU") -> ElementaryOp:
    return ElementaryOp(translation(1), w2(), orientation)


def test_orientation_validated():
    with pytest.raises(ValueError):
        ElementaryOp(translation(1), w1(), "FWU")


def test_apply_power_zero_is_identity():
    f = unit(2, -1, 3.0)
    assert apply_power(op1(), 0, f) == f


def test_apply_power_moves_rank_one_seed():
    # W_1 E_{0,0} U: row 0 -> 1 with weight w(0) = 1/2, column 0 -> -1
    got = apply_power(op1(), 1, unit(0, 0))
    assert got == unit(1, -1, 0.5)


def test_apply_power_mirrored_orientation():
    # U E_{0,0} W_1: row 0 -> 1, column picks up the weight on the right
    got = apply_power(op1("UFW"), 1, unit(0, 0))
    assert got.nnz == 1
    ((i, j), v) = next(iter(got.items()))
    assert (i, j) == (1, -1)
    assert math.isclose(v, 2.0, rel_tol=1e-12)


@given(small_matrices, st.integers(min_value=-8, max_value=8))
@settings(max_examples=60)
def test_inverse_round_trip(f, p):
    back = apply_power(op2(), -p, apply_power(op2(), p, f))
    diff = back - f
    scale = max((abs(v) for _, v in f.items()), default=1.0)
    assert all(abs(v) <= 1e-12 * (1.0 + scale) for _, v in diff.items())


@given(
    small_matrices,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=60)
def test_powers_compose_additively(f, p, q):
    via_two = apply_power(op1(), p, apply_power(op1(), q, f))
    direct = apply_power(op1(), p + q, f)
    diff = via_two - direct
    scale = max((abs(v) for _, v in direct.items()), default=1.0)
    assert all(abs(v) <= 1e-12 * (1.0 + scale) for _, v in diff.items())


@given(small_matrices, st.integers(min_value=-6, max_value=6))
@settings(max_examples=40)
def test_apply_power_preserves_nnz(f, p):
    # entry transport is a relabeling with nonzero coefficients, so the count
    # is preserved as long as no transported value falls under the 1e-300
    # construction drop threshold (six halvings cost at most a factor of 64)
    assume(all(abs(v) > 1e-290 for _, v in f.items()))
    assert apply_power(op1(), p, f).nnz == f.nnz


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=-20, max_value=20))
def test_projected_power_norm_matches_product_norm(m, p):
    got = op_norm(apply_power(op1(), p, projection_matrix(m)))
    want, _ = cut_at(monomial_product_norm, [(w1(), p)], m)
    assert math.isclose(math.log(got), want, abs_tol=1e-10)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=-20, max_value=20))
def test_mirrored_power_norm_cuts_rows(m, p):
    # U^p P_m W^p has the same norm as P_m W^p
    got = op_norm(apply_power(op1("UFW"), p, projection_matrix(m)))
    want, _ = cut_at(monomial_product_norm_rowcut, [(w1(), p)], m)
    assert math.isclose(math.log(got), want, abs_tol=1e-10)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_of_zero_seed_is_zero():
    rows = list(orbit([(op1(), 1), (op2(), 2)], FiniteMatrix(), 3))
    assert len(rows) == 8
    assert all(mat.is_zero() for _, _, mat in rows)


def test_orbit_emits_n_zero_first_and_walks_each_operator():
    rows = list(orbit([(op1(), 1), (op2(), 2)], unit(0, 0), 2))
    assert [(n, l) for n, l, _ in rows] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    assert rows[0][2] == unit(0, 0)
    assert rows[2][2] == apply_power(op1(), 1, unit(0, 0))
    assert rows[5][2] == apply_power(op2(), 4, unit(0, 0))


def test_orbit_norms_decay_at_the_weight_rates():
    seed = projection_matrix(0)
    for n, l, mat in orbit([(op1(), 1), (op2(), 2)], seed, 5):
        if n == 0:
            continue
        want = 2.0 ** -n if l == 1 else 3.0 ** (-2 * n)
        assert math.isclose(op_norm(mat), want, rel_tol=1e-10)


def test_orbit_with_unit_weights_marches_along_the_diagonal():
    flat = WeightedShift(WeightRule.piecewise(1.0, 1.0))
    op = ElementaryOp(translation(1), flat, "WFU")
    for n, _, mat in orbit([(op, 1)], unit(0, 0), 4):
        assert mat == unit(n, -n)


def test_orbit_distances_to_own_orbit_is_zero():
    seed = unit(0, 0) + unit(1, -1, 0.5)
    mats = {(n, l): mat for n, l, mat in orbit([(op1(), 1)], seed, 3)}
    rows = orbit_distances([(op1(), 1)], seed, [mats[(3, 1)]], 3)
    by_key = {(n, l): v for n, l, v in rows}
    assert by_key[(3, 1)] == 0.0
    assert all(v >= 0.0 for v in by_key.values())


def test_orbit_distances_to_zero_targets_are_orbit_norms():
    seed = projection_matrix(0)
    rows = orbit_distances([(op1(), 1), (op2(), 2)], seed, [FiniteMatrix()] * 2, 4)
    for n, l, v in rows:
        mat = apply_power(op1() if l == 1 else op2(), (1 if l == 1 else 2) * n, seed)
        assert math.isclose(v, op_norm(mat), rel_tol=1e-12)


def test_write_orbit_csv_format():
    buf = io.StringIO()
    write_orbit_csv([(0, 1, 1.0), (1, 2, 0.5)], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,l,norm_distance"
    assert lines[1] == "0,1,1.0000000000000000e+00"
    assert lines[2] == "1,2,5.0000000000000000e-01"
