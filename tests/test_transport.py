"""One-pass two-sided transport against the composition of one-sided passes.

``apply_power`` and ``dual_apply_power`` move every entry through both
factors at once.  They must agree exactly with multiplying by the shift
power and the unitary power one side after the other, for translations and
for table permutations alike.  ``shift_multiply`` moves every product of a
family at once, and must agree exactly with the per-product walk.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import (
    TABLE_WINDOW,
    awkward_values,
    canonical_instance,
    dict_of,
    dict_shift_chain,
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
    CriterionInstance,
    FiniteMatrix,
    NSeq,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
    WindowExceeded,
    apply_power,
    dual_apply_power,
    op_norm,
    permute_multiply,
    shift_multiply,
    unit,
)
from opdyn import criteria, elementary
from opdyn.cli import main
from opdyn.constructor import default_bundle, load_bundle, save_bundle
from opdyn.criteria import (
    _family_norms,
    chain_factors,
    chain_witness,
    check_witness_conditions,
    family_chains,
)
from opdyn.duality import FunctionalRep
from opdyn.elementary import ElementaryOp
from opdyn.finmat import MatrixStack, _move, _transport, projection_matrix, save_finmat

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
        (moved,) = shift_multiply(f, [(op.shift, [p])], "left")
        return permute_multiply(moved, op.unitary, p, "right")
    (moved,) = shift_multiply(f, [(op.shift, [p])], "right")
    return permute_multiply(moved, op.unitary, p, "left")


def two_pass_dual_power(op, p, a):
    """U^p A W^p (or W^p A U^p) as two one-sided passes."""
    if p == 0:
        return a
    if op.orientation == "WFU":
        moved = permute_multiply(a, op.unitary, p, "left")
        return shift_multiply(moved, [(op.shift, [p])], "right")[0]
    (moved,) = shift_multiply(a, [(op.shift, [p])], "left")
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


# ---------------------------------------------------------------------------
# the batched shift_multiply against the per-product walk

#: Three below the top of int64: a shift power of 3 or more from here, or
#: from its negative, leaves int64.
FAR = (1 << 63) - 3

small_keys = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
far_index = st.sampled_from([FAR, -FAR, -(1 << 63)])
#: Entries whose products overflow, or underflow below DROP_THRESHOLD until
#: a product has lost every entry, plus at times one entry that a move takes
#: past int64, or that sits at -2^63, past any cap.
chain_matrices = st.builds(
    lambda entries, far: FiniteMatrix(entries + far),
    st.one_of(
        st.lists(st.tuples(small_keys, awkward_values), max_size=8),
        st.lists(
            st.tuples(small_keys, st.sampled_from([1e-298, -1e-299, 1e-290])),
            min_size=1,
            max_size=3,
        ),
    ),
    st.one_of(
        st.just([]),
        st.just([]),
        st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(far_index, st.integers(-5, 5)),
                    st.tuples(st.integers(-5, 5), far_index),
                ),
                st.floats(-4.0, 4.0),
            ),
            min_size=1,
            max_size=1,
        ),
    ),
)
#: Powers within and, now and then, beyond the horizon, or beyond int64.
chain_powers = st.sampled_from(
    list(range(-15, 16)) * 3 + [40, -10**20, 10**20, 1 << 62]
)
horizons = st.sampled_from([12, 10_000])
window_caps = st.sampled_from([6, 12, 1 << 20, 10**30])


def per_product(a, factors, side, **kw):
    """Every product of ``factors`` (K powers each) on ``a``, one product
    and one factor at a time, in product order."""
    count = len(factors[0][1])
    return [
        dict_shift_chain(dict_of(a), [(s, ps[k]) for s, ps in factors], side, **kw)
        for k in range(count)
    ]


@given(
    chain_matrices,
    st.integers(1, 2).flatmap(
        lambda n_factors: st.integers(1, 4).flatmap(
            lambda count: st.lists(
                st.tuples(transport_shifts, st.lists(chain_powers, min_size=count, max_size=count)),
                min_size=n_factors,
                max_size=n_factors,
            )
        )
    ),
    st.sampled_from(["left", "right"]),
    horizons,
    window_caps,
)
@example(
    # W^8 drops product 0's only entry below DROP_THRESHOLD, so its power
    # past the horizon in the next factor is never checked
    FiniteMatrix({(0, 0): 1e-299}),
    [(w1(), [10**20, 1]), (w1(), [8, 1])],
    "left",
    12,
    1 << 20,
)
@example(
    # the row is within the horizon of the top of int64, so the batched
    # walk flags it, yet neither product leaves int64
    FiniteMatrix({((1 << 63) - 100, 0): 1.0}),
    [(w1(), [-5, 3])],
    "left",
    10_000,
    10**30,
)
@example(
    # the first pass overflows product 1, yet product 0 is multiplied out
    # first, and its power past the horizon in the next factor is the error
    FiniteMatrix({(-3, -3): 1e308}),
    [(w1(), [40, 0]), (w1(), [0, 1])],
    "left",
    12,
    1 << 20,
)
@settings(max_examples=300)
def test_batched_shift_multiply_equals_the_per_product_walk(a, factors, side, horizon, window_cap):
    # the same entries, norms and first error (type and message)
    kw = dict(horizon=horizon, window_cap=window_cap)
    got = outcome(
        lambda: [(list(x.items()), op_norm(x)) for x in shift_multiply(a, factors, side, **kw)]
    )
    want = outcome(
        lambda: [
            (list(d.items()), op_norm(FiniteMatrix(d)))
            for d in per_product(a, factors, side, **kw)
        ]
    )
    assert got == want


def test_family_norms_move_a_run_of_equal_witnesses_in_one_call(tmp_path, monkeypatch):
    # a saved bundle loads one object per k; equal witnesses still share
    # one shift_multiply call per family, as the in-memory bundle's do
    inst = canonical_instance(m=2, r1=1, k_max=20)
    shared = default_bundle(inst)
    save_bundle(shared, inst.r_list, tmp_path / "bundle")
    loaded, _ = load_bundle(tmp_path / "bundle")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shift_multiply(*args, **kwargs)

    monkeypatch.setattr(criteria, "shift_multiply", counted)
    reports = {}
    for name, bundle in (("shared", shared), ("loaded", loaded)):
        calls.clear()
        reports[name] = check_witness_conditions(inst, bundle.d_seq, bundle.g_seqs)
        assert len(calls) == len(family_chains(inst.n_ops)) == 6
    assert reports["loaded"] == reports["shared"]


def per_iterate_family_norms(inst, ns, d_seq, g_seqs, side):
    """_family_norms as one product per chain and iterate, in that order."""
    kw = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    norms = {}
    for chain in family_chains(inst.n_ops):
        walk = chain if side == "left" else chain[::-1]
        _, seq = chain_witness(chain, d_seq, g_seqs)
        norms[chain] = [
            op_norm(
                FiniteMatrix(
                    dict_shift_chain(dict_of(a), chain_factors(inst, walk, n), side, **kw)
                )
            )
            for n, a in zip(ns, seq)
        ]
    return norms


@given(
    st.lists(chain_matrices, min_size=1, max_size=3),
    st.integers(1, 5).flatmap(
        lambda count: st.tuples(
            # iterates in any order, beyond the horizon and int64 included
            st.lists(
                st.sampled_from(list(range(1, 9)) * 4 + [30, 10**20]),
                min_size=count,
                max_size=count,
            ),
            st.lists(st.integers(0, 5), min_size=3 * count, max_size=3 * count),
        )
    ),
    st.tuples(transport_shifts, transport_shifts),
    st.sampled_from(["left", "right"]),
    horizons,
    window_caps,
)
@example(
    # D_k = A, B, A: B's power past the horizon at k = 2 comes before A's
    # at k = 3, though A's run of iterates starts first
    [unit(0, 0), unit(1, 1)],
    ([1, 30, 40], [0, 0, 0, 1, 0, 0, 0, 0, 0]),
    (w1(), w2()),
    "left",
    12,
    1 << 20,
)
@settings(max_examples=150)
def test_family_norms_equal_the_per_iterate_walk(pool, iterates, shifts, side, horizon, window_cap):
    # witnesses drawn from a small pool, so iterates share one object, an
    # equal copy of it (as a loaded bundle gives, for picks 3-5), or neither
    ns, picks = iterates
    count = len(ns)

    def witness(i):
        a = pool[i % len(pool)]
        return a if i < 3 else FiniteMatrix(a.items())

    seqs = [[witness(i) for i in picks[j::3]] for j in range(3)]
    inst = CriterionInstance(
        shifts=shifts,
        unitary=translation(1),
        r_list=(1, 2),
        n_seq=NSeq.all_k(),
        m=1,
        k_max=count,
        horizon=horizon,
        window_cap=window_cap,
    )
    args = (inst, ns, seqs[0], seqs[1:], side)
    assert outcome(_family_norms, *args) == outcome(per_iterate_family_norms, *args)


@given(
    st.lists(chain_matrices, min_size=1, max_size=4),
    st.builds(
        ElementaryOp,
        unitary=transport_unitaries,
        shift=transport_shifts,
        orientation=st.sampled_from(["WFU", "UFW"]),
    ),
    st.data(),
    horizons,
    window_caps,
)
@settings(max_examples=300)
def test_apply_power_on_a_stack_equals_each_copy_alone(mats, op, data, horizon, window_cap):
    # the same entries and the first error (type and message) as moving
    # each copy by its own power in copy order
    powers = data.draw(st.lists(chain_powers, min_size=len(mats), max_size=len(mats)))
    kw = dict(horizon=horizon, window_cap=window_cap)
    stack = MatrixStack.of(mats)
    got = outcome(lambda: [list(x.items()) for x in apply_power(op, powers, stack, **kw).split()])
    want = outcome(
        lambda: [list(apply_power(op, p, a, **kw).items()) for p, a in zip(powers, mats)]
    )
    assert got == want


def test_apply_power_on_a_stack_moves_every_copy_in_one_pass(monkeypatch):
    # copies within the horizon, int64 and the window cap never move alone
    op = ElementaryOp(table_unitary(list(TABLE_WINDOW)[::-1]), w1(), "UFW")
    mats = [random_matrix(random.Random(k), 2) for k in range(5)]

    def alone(*args, **kwargs):
        raise AssertionError("a copy moved alone")

    monkeypatch.setattr(elementary, "_transport", alone)
    moved = apply_power(op, [1, -2, 3, 0, 8], MatrixStack.of(mats)).split()
    monkeypatch.undo()
    assert moved == [apply_power(op, p, a) for p, a in zip([1, -2, 3, 0, 8], mats)]
