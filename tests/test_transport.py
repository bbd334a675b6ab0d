"""One-pass two-sided transport against the composition of one-sided passes.

``apply_power`` and ``dual_apply_power`` move every entry through both
factors at once.  They must agree exactly with multiplying by the shift
power and the unitary power one side after the other, for translations and
for table permutations alike.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    TABLE_WINDOW,
    dict_of,
    dict_transport,
    entry_lists,
    outcome,
    random_matrix,
    scalar_shift_move,
    scalar_unitary_move,
    table_unitaries,
    table_unitary,
    translation,
    w1,
    w2,
)
from opdyn import (
    FiniteMatrix,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
    WindowExceeded,
    apply_power,
    dual_apply_power,
    permute_multiply,
    shift_multiply,
    unit,
)
from opdyn.cli import main
from opdyn.duality import FunctionalRep
from opdyn.elementary import ElementaryOp
from opdyn.finmat import _move, _transport, projection_matrix, save_finmat

small_matrices = st.builds(
    random_matrix,
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=2),
)

unitaries = st.one_of(
    st.integers(min_value=1, max_value=3).map(translation),
    st.permutations(list(TABLE_WINDOW)).map(table_unitary),
)
ops = st.builds(
    ElementaryOp,
    unitary=unitaries,
    shift=st.sampled_from([w1(), w2()]),
    orientation=st.sampled_from(["WFU", "UFW"]),
)
powers = st.integers(min_value=-8, max_value=8)


def two_pass_power(op, p, f):
    """T^p(F) as the shift pass followed by the permutation pass."""
    if p == 0:
        return f
    if op.orientation == "WFU":
        moved = shift_multiply(f, op.shift, p, "left")
        return permute_multiply(moved, op.unitary, p, "right")
    moved = shift_multiply(f, op.shift, p, "right")
    return permute_multiply(moved, op.unitary, p, "left")


def two_pass_dual_power(op, p, a):
    """U^p A W^p (or W^p A U^p) as two one-sided passes."""
    if p == 0:
        return a
    if op.orientation == "WFU":
        moved = permute_multiply(a, op.unitary, p, "left")
        return shift_multiply(moved, op.shift, p, "right")
    moved = shift_multiply(a, op.shift, p, "left")
    return permute_multiply(moved, op.unitary, p, "right")


@given(small_matrices, ops, powers)
@settings(max_examples=150)
def test_apply_power_equals_the_two_pass_composition(f, op, p):
    assert apply_power(op, p, f) == two_pass_power(op, p, f)


@given(small_matrices, ops, powers, st.booleans())
@settings(max_examples=150)
def test_dual_apply_power_equals_the_two_pass_composition(a, op, p, star):
    if star:
        op = replace(op, shift=op.shift.star())
    got = dual_apply_power(op, p, FunctionalRep(a)).representer
    assert got == two_pass_dual_power(op, p, a)


# A table that moves [-3, 3] up by one and is undeclared at 4: iterates of
# small indices leave the window after a few steps.
LEAKY = {j: j + 1 for j in range(-3, 4)}


def test_apply_power_past_a_table_window_raises():
    op = ElementaryOp(PermutationUnitary.from_table(LEAKY), w1())
    assert apply_power(op, 3, unit(0, 0)) == two_pass_power(op, 3, unit(0, 0))
    with pytest.raises(WindowExceeded):
        apply_power(op, 5, unit(0, 0))
    with pytest.raises(WindowExceeded):
        apply_power(ElementaryOp(op.unitary, w1(), "UFW"), -5, unit(0, 0))


def test_run_exits_three_when_an_orbit_leaves_the_table_window(tmp_path):
    save_finmat(projection_matrix(0), tmp_path / "seed.finmat")
    pairs = " ".join(f"{j}:{pj}" for j, pj in LEAKY.items())
    (tmp_path / "leaky.scenario").write_text(
        "opdyn-scenario v1\nname = leaky\nmode = orbit\n"
        f"unitary = table {pairs}\n"
        "weight1 = piecewise 2 1/2\nweight2 = piecewise 3 1/3\n"
        "r_list = 1 2\nm = 0\nk_max = 4\nseeds = seed.finmat\n"
    )
    code = main(
        ["run", str(tmp_path / "leaky.scenario"), "--out", str(tmp_path / "o")]
    )
    assert code == 3


# ---------------------------------------------------------------------------
# the array transport against the per-entry dict spelling

transport_shifts = st.builds(
    WeightedShift,
    st.sampled_from([
        w1().rule,
        w2().rule,
        WeightRule.explicit({-2: 4.0, 0: 0.25, 3: 1e-3}, default=1.5),
    ]),
    st.booleans(),
)
transport_unitaries = st.one_of(
    st.integers(min_value=-3, max_value=3).filter(bool).map(translation),
    table_unitaries(),
)


@given(
    entry_lists,
    st.one_of(st.none(), st.tuples(transport_shifts, st.integers(-15, 15))),
    st.one_of(st.none(), st.tuples(transport_unitaries, st.integers(-15, 15))),
    st.booleans(),
    st.sampled_from([6, 12, 1 << 20]),
    st.sampled_from([10, 10_000]),
)
@settings(max_examples=200)
def test_transport_matches_the_dict_spelling(
    entries, shift_factor, unitary_factor, swap, window_cap, horizon
):
    a = FiniteMatrix(entries)
    new, old = [None, None], [None, None]
    if shift_factor:
        shift, p = shift_factor
        new[0] = _move(shift, p, "left", horizon=horizon)
        old[0] = scalar_shift_move(shift, p, horizon)
    if unitary_factor:
        u, p = unitary_factor
        new[1] = _move(u, p, "left", horizon=horizon)
        old[1] = scalar_unitary_move(u, p, horizon)
    if swap:
        new.reverse()
        old.reverse()
    got = outcome(lambda: list(_transport(a, *new, window_cap=window_cap).items()))
    want = outcome(
        lambda: list(dict_transport(dict_of(a), *old, window_cap=window_cap).items())
    )
    assert got == want


def test_overflowing_transport_is_named_at_the_first_source_entry():
    # the table swaps columns 1 and 2, so the entry (-5, 1) met first lands
    # at (-4, 2), after (-4, 1) in (row, col) order; W1 doubles row -5
    op = ElementaryOp(PermutationUnitary.from_table({1: 2, 2: 1}), w1())
    a = FiniteMatrix({(-5, 1): 1.5e308, (-5, 2): 1.5e308})
    with pytest.raises(ValueError, match=r"^non-finite entry at \(-4, 2\)$"):
        apply_power(op, 1, a)
