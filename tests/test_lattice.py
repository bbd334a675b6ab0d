"""Weighted shifts, permutation unitaries, and closed-form product norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    flog,
    frac_chain_norm,
    frac_rowcut_norm,
    frac_shift_power,
    frac_w1,
    frac_w2,
    log_rel_close,
    cut_at,
    outcome,
    power_at,
    scalar_column_cut,
    scalar_shift_power,
    step_walk,
    table_unitaries,
    translation,
    w1,
    w2,
)
from opdyn import (
    HorizonExceeded,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
    WindowExceeded,
    escape_index,
    monomial_product_norm,
    monomial_product_norm_rowcut,
    shift_power_apply,
    shift_star_power_apply,
    unitary_power_apply,
)


def explicit_rule(mapping, default=1.0) -> WeightRule:
    return WeightRule.explicit(mapping, default=default)


# ---------------------------------------------------------------------------
# weight rules


def test_piecewise_weights_split_at_zero():
    rule = WeightRule.piecewise(2.0, 0.5)
    assert rule.weight(-1) == 2.0
    assert rule.weight(-100) == 2.0
    assert rule.weight(0) == 0.5
    assert rule.weight(7) == 0.5


def test_explicit_weights_fall_back_to_default():
    rule = explicit_rule({3: 5.0, -2: 0.25}, default=1.5)
    assert rule.weight(3) == 5.0
    assert rule.weight(-2) == 0.25
    assert rule.weight(0) == 1.5


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_weight_rules_reject_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        WeightRule.piecewise(bad, 1.0)
    with pytest.raises(ValueError):
        WeightRule.piecewise(1.0, bad)
    with pytest.raises(ValueError):
        explicit_rule({0: bad})
    with pytest.raises(ValueError):
        explicit_rule({}, default=bad)


def test_duplicate_table_indices_rejected():
    with pytest.raises(ValueError):
        WeightRule(kind="explicit", table=((0, 1.0), (0, 2.0)), default=1.0)


# ---------------------------------------------------------------------------
# shift powers


def test_shift_power_examples():
    index, lg = power_at(shift_power_apply, w1(), 1, -1)
    assert (index, math.exp(lg)) == (0, 2.0)
    index, lg = power_at(shift_power_apply, w1(), 0, 5)
    assert (index, math.exp(lg)) == (5, 1.0)
    # weights 2 and 1/2 cancel in the log domain
    assert power_at(shift_power_apply, w1(), 2, -1) == (1, 0.0)


def test_negative_power_divides_by_the_departing_weights():
    # W^{-1} e_0 = e_{-1} / w(-1)
    index, lg = power_at(shift_power_apply, w1(), -1, 0)
    assert index == -1
    assert math.isclose(math.exp(lg), 0.5, rel_tol=1e-12)


@given(
    n=st.integers(min_value=-60, max_value=60),
    j=st.integers(min_value=-40, max_value=40),
)
def test_shift_power_matches_exact_fraction_walk(n, j):
    index, lg = power_at(shift_power_apply, w2(), n, j)
    frac, idx = frac_shift_power(frac_w2, n, j)
    assert index == idx
    assert log_rel_close(math.exp(lg), flog(frac), 1e-12)


@given(
    n=st.integers(min_value=-50, max_value=50),
    j=st.integers(min_value=-30, max_value=30),
)
def test_shift_power_round_trip_cancels_in_log_domain(n, j):
    fwd_index, fwd_lg = power_at(shift_power_apply, w1(), n, j)
    back_index, back_lg = power_at(shift_power_apply, w1(), -n, fwd_index)
    assert back_index == j
    assert abs(fwd_lg + back_lg) <= 1e-12


@given(
    n=st.integers(min_value=-40, max_value=40),
    j=st.integers(min_value=-30, max_value=30),
)
def test_star_power_is_the_transposed_transport(n, j):
    # (W*)^n e_j lands on e_{j-n} with the coefficient W^n picks up there.
    starred_index, starred_lg = power_at(shift_star_power_apply, w2(), n, j)
    _, plain_lg = power_at(shift_power_apply, w2(), n, j - n)
    assert starred_index == j - n
    assert starred_lg == plain_lg


@given(
    table=st.dictionaries(
        st.integers(min_value=-40, max_value=40),
        st.floats(min_value=0.1, max_value=10.0),
        max_size=40,
    ),
    default=st.floats(min_value=0.25, max_value=4.0).filter(lambda w: w != 1.0),
    n=st.integers(min_value=-120, max_value=120),
    j=st.integers(min_value=-60, max_value=60),
)
def test_explicit_weight_powers_match_exact_fraction_walk(table, default, n, j):
    # Ranges straddle the table edges, so both the default slope outside the
    # table and the prefix sum over its departures are exercised.
    shift = WeightedShift(explicit_rule(table, default=default))

    def exact(i):
        return Fraction(table.get(i, default))

    frac, idx = frac_shift_power(exact, n, j)
    index, lg = power_at(shift_power_apply, shift, n, j)
    assert index == idx
    assert abs(lg - flog(frac)) <= 1e-10 * max(1.0, abs(flog(frac)))

    frac, _ = frac_shift_power(exact, n, j - n)
    index, lg = power_at(shift_star_power_apply, shift, n, j)
    assert index == j - n
    assert abs(lg - flog(frac)) <= 1e-10 * max(1.0, abs(flog(frac)))


def test_shift_power_beyond_horizon_raises():
    with pytest.raises(HorizonExceeded):
        power_at(shift_power_apply, w1(), 11, 0, horizon=10)
    with pytest.raises(HorizonExceeded):
        power_at(shift_power_apply, w1(), -11, 0, horizon=10)


# ---------------------------------------------------------------------------
# permutation unitaries


def test_translation_powers():
    u = translation(1)
    assert power_at(unitary_power_apply, u, 3, 0) == 3
    assert power_at(unitary_power_apply, u, -2, 5) == 3
    assert power_at(unitary_power_apply, u, 0, -4) == -4


def test_table_unitary_follows_the_table():
    u = PermutationUnitary.from_table({0: 2, 2: -1, -1: 0})
    assert power_at(unitary_power_apply, u, 1, 0) == 2
    assert power_at(unitary_power_apply, u, 2, 0) == -1
    assert power_at(unitary_power_apply, u, 3, 0) == 0
    assert power_at(unitary_power_apply, u, -1, 2) == 0


def test_table_unitary_rejects_non_injective_maps():
    with pytest.raises(ValueError):
        PermutationUnitary.from_table({0: 1, 2: 1})


def test_table_departure_raises_window_exceeded():
    u = PermutationUnitary.from_table({0: 1})
    with pytest.raises(WindowExceeded):
        power_at(unitary_power_apply, u, 2, 0)


@given(
    table_unitaries(),
    st.integers(min_value=-30, max_value=30),
    st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=8),
    st.sampled_from([20, 10_000]),
)
@settings(max_examples=200)
def test_table_powers_are_the_step_by_step_walk(u, n, js, horizon):
    for j in js:
        assert outcome(power_at, unitary_power_apply, u, n, j, horizon) == outcome(
            step_walk, u, n, j, horizon
        )
    # the array form raises for the first index, in array order, that leaves
    idx = sorted(set(js))
    want = []
    for j in idx:
        got = outcome(step_walk, u, n, j, horizon)
        if got[0] != "ok":
            want = got
            break
        want.append(got[1])
    else:
        want = ("ok", want)
    got = outcome(
        lambda: unitary_power_apply(u, n, np.array(idx), horizon=horizon).tolist()
    )
    assert got == want


def test_translation_step_past_int64_is_exact_when_the_landing_fits():
    # the step n * t = 2^63 does not fit int64; it is added modulo 2^64
    u = translation(-(2**62))
    assert power_at(unitary_power_apply, u, -2, -(2**63) + 1000) == 1000
    assert power_at(unitary_power_apply, u, 2, (2**63) - 1) == -1
    assert power_at(unitary_power_apply, u, 4, 5) == 5


def test_table_walks_name_the_index_they_leave_from():
    # 0 -> 1 -> 2 leaves at 2 forward and at 0 walking back; 5 is unknown
    u = PermutationUnitary.from_table({0: 1, 1: 2, 3: 4, 4: 3})
    assert power_at(unitary_power_apply, u, 7, 3) == 4
    with pytest.raises(WindowExceeded, match="^index 2 left"):
        power_at(unitary_power_apply, u, 3, 0)
    with pytest.raises(WindowExceeded, match="^index 0 left"):
        power_at(unitary_power_apply, u, -3, 2)
    with pytest.raises(WindowExceeded, match="^index 5 left"):
        power_at(unitary_power_apply, u, 1, 5)
    assert power_at(unitary_power_apply, u, 0, 5) == 5
    with pytest.raises(HorizonExceeded):
        power_at(unitary_power_apply, u, -11, 5, horizon=10)


# ---------------------------------------------------------------------------
# escape index


def test_escape_index_examples():
    assert escape_index(translation(1), 2, 100) == 5
    assert escape_index(translation(3), 0, 100) == 1
    assert escape_index(translation(1), 0, 100) == 1


def test_escape_index_of_a_step_near_int64_does_not_wrap():
    # a walk of 2^62 steps wrapped round int64, back into the window at
    # n = 4 and to -2^63 (whose int64 absolute value is negative) at n = 2
    assert escape_index(translation(2**62), 0, 10) == 1
    assert escape_index(translation(-(2**63) + 1), 2**61, 10**6) == 1
    assert escape_index(translation(2**61), 2**61, 10) == 3


@given(
    t=st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
    m=st.integers(min_value=0, max_value=12),
)
def test_escape_index_of_translation_is_window_over_step(t, m):
    # the window [-m, m] has 2m + 1 points and each power moves it by t
    expected = -((2 * m + 1) // -abs(t))  # ceiling division
    assert escape_index(translation(t), m, 200) == expected


def test_identity_like_table_never_escapes():
    u = PermutationUnitary.from_table({j: j for j in range(-3, 4)})
    assert escape_index(u, 2, 50) is None


def test_escape_index_none_when_orbit_leaves_the_table():
    # after one step the orbit leaves the table, so no horizon-long
    # certificate of staying out of the window can be produced
    u = PermutationUnitary.from_table({0: 1})
    assert escape_index(u, 0, 50) is None


# ---------------------------------------------------------------------------
# monomial product norms


def test_product_norm_doubling_tripling_pair_at_n2():
    factors = [(w1(), 2), (w2(), -4)]
    lg, _ = cut_at(monomial_product_norm, factors, 0)
    assert log_rel_close(math.exp(lg), math.log(4.0 / 81.0), 1e-12)


def test_product_norm_single_positive_power():
    lg, _ = cut_at(monomial_product_norm, [(w1(), 3)], 0)
    assert math.isclose(math.exp(lg), 0.125, rel_tol=1e-12)


def test_product_norm_zero_power_is_one():
    assert cut_at(monomial_product_norm, [(w1(), 0)], 4) == (0.0, -4)


def test_product_norm_tie_attained_at_smallest_index():
    flat = WeightedShift(WeightRule.piecewise(1.0, 1.0))
    assert cut_at(monomial_product_norm, [(flat, 5)], 3) == (0.0, -3)


@given(
    m=st.integers(min_value=0, max_value=4),
    p=st.integers(min_value=0, max_value=25),
    q=st.integers(min_value=0, max_value=25),
)
def test_product_norm_matches_exact_fraction_chain(m, p, q):
    factors = [(w1(), p), (w2(), -q)]
    lg, attained_at = cut_at(monomial_product_norm, factors, m)
    frac, at = frac_chain_norm([(frac_w1, p), (frac_w2, -q)], m)
    assert log_rel_close(math.exp(lg), flog(frac), 1e-10)
    assert attained_at == at


@given(
    m=st.integers(min_value=0, max_value=4),
    p=st.integers(min_value=0, max_value=20),
    q=st.integers(min_value=0, max_value=20),
)
def test_rowcut_star_norm_equals_mirrored_column_norm(m, p, q):
    # cutting rows after adjoint factors measures the same product as
    # cutting columns before the unstarred factors in reverse order
    rowcut, _ = cut_at(monomial_product_norm_rowcut, [(w2().star(), -q), (w1().star(), p)], m)
    colcut, _ = cut_at(monomial_product_norm, [(w1(), p), (w2(), -q)], m)
    assert rowcut == colcut


@given(
    m=st.integers(min_value=0, max_value=4),
    specs=st.lists(
        st.tuples(
            st.sampled_from([1, 2]),
            st.integers(min_value=-20, max_value=20),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_rowcut_norm_matches_exact_fraction_landing_search(m, specs):
    shifts = {1: (w1(), frac_w1), 2: (w2(), frac_w2)}
    factors = [
        (shifts[w][0].star() if adjoint else shifts[w][0], p)
        for w, p, adjoint in specs
    ]
    got, _ = cut_at(monomial_product_norm_rowcut, factors, m)
    want = flog(frac_rowcut_norm([(shifts[w][1], p, a) for w, p, a in specs], m))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_rowcut_without_star_cuts_rows_of_the_plain_product():
    # P_0 W_1^2 keeps the single path that lands on row 0
    lg, _ = cut_at(monomial_product_norm_rowcut, [(w1(), 2)], 0)
    frac, _ = frac_shift_power(frac_w1, 2, -2)
    assert log_rel_close(math.exp(lg), flog(frac), 1e-12)


# ---------------------------------------------------------------------------
# the array column cut against the scalar walk

weight_rules = st.one_of(
    st.builds(
        WeightRule.piecewise,
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.sampled_from([0.5, 1.0, 1.0 / 3.0]),
    ),
    st.builds(
        WeightRule.explicit,
        st.dictionaries(
            st.integers(min_value=-15, max_value=15),
            st.sampled_from([0.5, 0.75, 1.0, 2.0]),
            max_size=8,
        ),
        default=st.sampled_from([0.5, 1.0, 2.0]),
    ),
)
#: 1-3 plain or adjoint factors; weights drawn from a few values, so ties
#: between starts are common.
factor_lists = st.lists(
    st.tuples(
        st.builds(WeightedShift, weight_rules, st.booleans()),
        st.integers(min_value=-12, max_value=12),
    ),
    min_size=1,
    max_size=3,
)


def bits(result):
    kind, value = result
    if kind != "ok":
        return result
    lg, at = value
    return kind, lg.hex(), at


@given(factor_lists, st.integers(min_value=0, max_value=6), st.sampled_from([10, 10_000]))
@settings(max_examples=200)
def test_column_cut_matches_the_scalar_walk(factors, m, horizon):
    assert bits(outcome(cut_at, monomial_product_norm, factors, m, horizon)) == bits(
        outcome(scalar_column_cut, factors, m, horizon)
    )
    mirrored = [(shift.star(), p) for shift, p in reversed(factors)]
    assert bits(outcome(cut_at, monomial_product_norm_rowcut, factors, m, horizon)) == bits(
        outcome(scalar_column_cut, mirrored, m, horizon)
    )
    # one power per row: the rows p, -p and 0 of every factor walk as one grid
    if all(abs(p) <= horizon for _, p in factors):
        batched = [(shift, np.array([p, -p, 0])) for shift, p in factors]
        lg, at = monomial_product_norm(batched, m, horizon=horizon)
        rows = [[(shift, c * p) for shift, p in factors] for c in (1, -1, 0)]
        assert [(x.hex(), a) for x, a in zip(lg.tolist(), at.tolist())] == [
            (x.hex(), a) for x, a in (scalar_column_cut(row, m, horizon) for row in rows)
        ]


@given(
    st.builds(WeightedShift, weight_rules, st.booleans()),
    st.integers(min_value=-25, max_value=25),
    st.integers(min_value=-20, max_value=20),
)
def test_one_index_shift_power_matches_the_scalar_walk(shift, n, j):
    def mono_bits(result):
        kind, mono = result
        return result if kind != "ok" else (mono[0], mono[1].hex())

    assert mono_bits(outcome(power_at, shift_power_apply, shift, n, j, 20)) == mono_bits(
        outcome(scalar_shift_power, shift, n, j, 20)
    )
