"""Sparse matrices, norms, transport multiplication, and serialization."""

import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    TABLE_WINDOW,
    awkward_values,
    dict_add,
    dict_canonical,
    dict_compose,
    dict_dense_block,
    dict_of,
    dict_sub,
    entry_lists,
    outcome,
    power_at,
    random_matrix,
    table_unitary,
    translation,
    w1,
    w2,
)
from opdyn import (
    ConvergenceError,
    ElementaryOp,
    FiniteMatrix,
    FormatError,
    HorizonExceeded,
    WindowExceeded,
    apply_power,
    compose,
    op_norm,
    projection_matrix,
    shift_multiply,
    trace_norm,
    truncate_left,
    truncate_right,
    unit,
)
from opdyn.errors import NonFiniteEntry
from opdyn.finmat import (
    DROP_THRESHOLD,
    _dense_block,
    _singular_values,
    is_monomial,
    permute_multiply,
    read_finmat,
    write_finmat,
)
from opdyn.lattice import shift_power_apply, unitary_power_apply

small_matrices = st.builds(
    random_matrix,
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=3),
    density=st.floats(min_value=0.2, max_value=1.0),
)


def dense_of(a: FiniteMatrix) -> np.ndarray:
    rows, cols = a.row_indices(), a.col_indices()
    out = np.zeros((max(len(rows), 1), max(len(cols), 1)))
    ri = {r: k for k, r in enumerate(rows)}
    ci = {c: k for k, c in enumerate(cols)}
    for (i, j), v in a.items():
        out[ri[i], ci[j]] = v
    return out


def dense_shift_power(shift, p, col_range) -> FiniteMatrix:
    entries = {}
    for j in col_range:
        index, lg = power_at(shift_power_apply, shift, p, j)
        entries[(index, j)] = math.exp(lg)
    return FiniteMatrix(entries)


def dense_unitary_power(u, p, col_range) -> FiniteMatrix:
    return FiniteMatrix(
        {(power_at(unitary_power_apply, u, p, j), j): 1.0 for j in col_range}
    )


# ---------------------------------------------------------------------------
# construction


def test_construction_canonicalizes_and_drops_subdenormals():
    a = FiniteMatrix({(2, 0): 1.0, (-1, 3): 0.5, (0, 0): 1e-301})
    assert a.nnz == 2
    assert list(a.items()) == [((-1, 3), 0.5), ((2, 0), 1.0)]


def test_construction_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        FiniteMatrix({(0, 0): math.inf})
    with pytest.raises(ValueError):
        FiniteMatrix({(0, 0): math.nan})


def test_arithmetic_and_equality():
    a = unit(1, 0, 2.0)
    b = unit(0, 1, 3.0)
    assert (a + b) - b == a
    assert -a == a * (-1.0)
    assert (a - a).is_zero()


def test_non_finite_entry_is_named_at_the_first_bad_entry_in_input_order():
    entries = {(3, 0): 1.0, (1, 0): math.inf, (0, 0): math.nan}
    with pytest.raises(NonFiniteEntry, match=r"^non-finite entry at \(1, 0\)$"):
        FiniteMatrix(entries)


def test_items_yield_python_ints_and_floats():
    a = FiniteMatrix({(np.int64(-2), 3): np.float64(0.5), (1, 1): 2})
    assert [tuple(map(type, (i, j, v))) for (i, j), v in a.items()] == [
        (int, int, float)
    ] * 2
    assert a.entry(-2, 3) == 0.5 and a.entry(1, 1) == 2.0 and a.entry(1, 2) == 0.0


# ---------------------------------------------------------------------------
# the array storage against the per-entry dict spelling

def listed(fn):
    return outcome(lambda: list(fn().items()))


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            st.one_of(awkward_values, st.sampled_from([math.inf, -math.inf, math.nan])),
        ),
        max_size=30,
    )
)
def test_construction_matches_the_dict_spelling(entries):
    assert listed(lambda: FiniteMatrix(entries)) == listed(
        lambda: dict_canonical(entries)
    )


@given(entry_lists, entry_lists)
@settings(max_examples=150)
def test_compose_add_and_sub_match_the_dict_spelling(x, y):
    a, b = FiniteMatrix(x), FiniteMatrix(y)
    da, db = dict_of(a), dict_of(b)
    assert listed(lambda: compose(a, b)) == listed(lambda: dict_compose(da, db))
    assert listed(lambda: a + b) == listed(lambda: dict_add(da, db))
    assert listed(lambda: a - b) == listed(lambda: dict_sub(da, db))


@given(small_matrices, small_matrices)
def test_dense_products_sum_in_the_order_of_the_walk(a, b):
    # several products per key: the sum order shows in the last bits
    assert list(compose(a, b).items()) == list(
        dict_compose(dict_of(a), dict_of(b)).items()
    )


def test_overflowing_product_is_named_at_the_key_met_first():
    # the walk meets (0, 5) through k = 0 before (0, 3) through k = 1
    a = FiniteMatrix({(0, 0): 1e200, (0, 1): 1e200})
    b = FiniteMatrix({(0, 5): 1e200, (1, 3): 1e200})
    with pytest.raises(NonFiniteEntry, match=r"^non-finite entry at \(0, 5\)$"):
        compose(a, b)


@given(entry_lists, st.integers(min_value=-1, max_value=4))
def test_queries_and_cuts_match_the_dict_spelling(x, m):
    a = FiniteMatrix(x)
    d = dict_of(a)
    block = _dense_block(a)
    want = dict_dense_block(d)
    assert block.shape == want.shape and np.array_equal(block, want)
    assert a.row_indices() == sorted({i for i, _ in d})
    assert a.col_indices() == sorted({j for _, j in d})
    assert a.nnz == len(d)
    assert a.support_radius() == max((max(abs(i), abs(j)) for i, j in d), default=0)
    assert all(a.entry(i, j) == d.get((i, j), 0.0)
               for i in range(-6, 7) for j in range(-6, 7))
    rows = [i for i, _ in d]
    cols = [j for _, j in d]
    assert is_monomial(a) == (len(set(rows)) == len(rows) and len(set(cols)) == len(cols))
    assert list(a.transpose().items()) == list(
        dict_canonical({(j, i): v for (i, j), v in d.items()}).items()
    )
    assert list(truncate_left(a, m).items()) == [
        (k, v) for k, v in d.items() if -m <= k[0] <= m
    ]
    assert list(truncate_right(a, m).items()) == [
        (k, v) for k, v in d.items() if -m <= k[1] <= m
    ]
    assert list((-a).items()) == [(k, -v) for k, v in d.items()]
    assert listed(lambda: a * 1e200) == listed(
        lambda: dict_canonical({k: v * 1e200 for k, v in d.items()})
    )


# ---------------------------------------------------------------------------
# composition and truncation


def test_compose_projections_nests():
    assert compose(projection_matrix(2), projection_matrix(1)) == projection_matrix(1)


def test_compose_rank_one_factors():
    a = unit(1, 0, 2.0)
    b = unit(0, -1, 3.0)
    assert compose(a, b) == unit(1, -1, 6.0)
    assert compose(b, a).is_zero()


def test_truncations_cut_rows_and_columns():
    a = unit(5, 0) + unit(0, 5) + unit(1, -1, 3.0)
    assert truncate_left(a, 1) == unit(0, 5) + unit(1, -1, 3.0)
    assert truncate_right(a, 1) == unit(5, 0) + unit(1, -1, 3.0)


@given(small_matrices, st.integers(min_value=0, max_value=3))
def test_truncate_left_is_projection_composition(a, m):
    assert truncate_left(a, m) == compose(projection_matrix(m), a)
    assert truncate_right(a, m) == compose(a, projection_matrix(m))


def test_is_monomial():
    assert is_monomial(unit(0, 3, 2.0) + unit(5, -1, 0.25))
    assert not is_monomial(unit(0, 3) + unit(0, 4))
    assert not is_monomial(unit(0, 3) + unit(1, 3))


# ---------------------------------------------------------------------------
# operator norm


def test_op_norm_examples():
    assert op_norm(projection_matrix(3)) == 1.0
    assert op_norm(unit(5, -5, 2.0)) == 2.0
    block = unit(0, 0) + unit(0, 1) + unit(1, 1)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(op_norm(block) - golden) <= 1e-8
    assert op_norm(FiniteMatrix()) == 0.0


def test_dense_norms_raise_convergence_error_when_lapack_fails(monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    a = unit(0, 0) + unit(0, 1) + unit(1, 0) + unit(1, 1, -1.0)
    with pytest.raises(ConvergenceError):
        op_norm(a)
    with pytest.raises(ConvergenceError):
        trace_norm(a)
    # the exact monomial paths never reach LAPACK
    assert op_norm(unit(0, 0, 2.0)) == 2.0
    assert trace_norm(unit(0, 0, 2.0)) == 2.0


@given(small_matrices)
@settings(max_examples=60)
def test_op_norm_matches_numpy_svd(a):
    got = op_norm(a)
    want = float(np.linalg.norm(dense_of(a), 2))
    assert abs(got - want) <= 1e-8 * (1.0 + want)


def test_monomial_fast_path_agrees_with_dense_svd():
    rng = random.Random(7)
    for _ in range(25):
        entries = {}
        rows = rng.sample(range(-30, 31), 6)
        cols = rng.sample(range(-30, 31), 6)
        for i, j in zip(rows, cols):
            entries[(i, j)] = rng.uniform(-9.0, 9.0)
        a = FiniteMatrix(entries)
        fast = op_norm(a)
        slow = float(_singular_values(a)[0])
        want = max(abs(v) for _, v in a.items())
        assert fast == want
        assert abs(slow - want) <= 1e-8 * (1.0 + want)


# ---------------------------------------------------------------------------
# trace norm


def test_trace_norm_examples():
    assert trace_norm(projection_matrix(4)) == 9.0
    assert trace_norm(unit(2, 7, 3.0)) == 3.0
    assert trace_norm(unit(1, 0, 2.0) + unit(-1, 3, 5.0)) == 7.0
    assert trace_norm(FiniteMatrix()) == 0.0


@given(small_matrices)
@settings(max_examples=60)
def test_trace_norm_matches_numpy_singular_values(a):
    got = trace_norm(a)
    want = float(np.linalg.svd(dense_of(a), compute_uv=False).sum())
    assert abs(got - want) <= 1e-8 * (1.0 + want)


def test_dense_norms_on_rank_deficient_block_with_tiny_entries():
    # Rank-deficient 4x4 support block holding entries near 1e-70 and
    # 1e-152: one-sided Jacobi sweeps stall on it, LAPACK does not.
    a = FiniteMatrix({
        (-2, -2): 1.5,
        (-2, 3): 1.5117818407664774e-70,
        (-1, -2): 1.0,
        (-1, 0): 1.0,
        (-1, 1): 1.0,
        (1, 3): 4.4436349260515276e-152,
        (3, -2): 1.0,
    })
    want = float(np.linalg.svd(dense_of(a), compute_uv=False).sum())
    assert math.isclose(trace_norm(a), want, rel_tol=1e-15)
    assert math.isclose(trace_norm(a), 3.3688305854692047, rel_tol=1e-12)
    assert math.isclose(op_norm(a), 2.220834085844803, rel_tol=1e-12)
    assert op_norm(a) <= trace_norm(a)


@given(small_matrices, small_matrices)
@settings(max_examples=40)
def test_norm_inequalities(a, b):
    # operator norm below trace norm; both submultiplicative over compose
    assert op_norm(a) <= trace_norm(a) + 1e-8
    ab = compose(a, b)
    assert op_norm(ab) <= op_norm(a) * op_norm(b) + 1e-8
    assert trace_norm(ab) <= trace_norm(a) * op_norm(b) + 1e-8


# ---------------------------------------------------------------------------
# transport multiplication


@given(
    small_matrices,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["left", "right"]),
    st.booleans(),
)
@settings(max_examples=80)
def test_shift_multiply_matches_dense_composition(a, p, side, star):
    shift = w2()
    got = shift_multiply(a, shift.star() if star else shift, p, side)
    span = a.support_radius() + abs(p) + 1
    dense = dense_shift_power(shift, p, range(-span, span + 1))
    if star:
        dense = dense.transpose()
    want = compose(dense, a) if side == "left" else compose(a, dense)
    diff = got - want
    assert all(abs(v) <= 1e-12 for _, v in diff.items())


@given(
    small_matrices,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["left", "right"]),
    st.one_of(
        st.just(translation(2)),
        st.permutations(list(TABLE_WINDOW)).map(table_unitary),
    ),
)
@settings(max_examples=60)
def test_permute_multiply_matches_dense_composition(a, p, side, u):
    got = permute_multiply(a, u, p, side)
    span = a.support_radius() + 2 * abs(p) + 1
    cols = TABLE_WINDOW if u.kind == "table" else range(-span, span + 1)
    dense = dense_unitary_power(u, p, cols)
    want = compose(dense, a) if side == "left" else compose(a, dense)
    assert got == want


def test_shift_multiply_window_cap():
    with pytest.raises(WindowExceeded):
        shift_multiply(unit(0, 0), w1(), 20, "left", window_cap=10)
    with pytest.raises(WindowExceeded):
        permute_multiply(unit(0, 0), translation(1), 20, "left", window_cap=10)


def test_transport_past_the_window_cap_names_the_final_position():
    a = unit(0, 0) + unit(1, 0)
    with pytest.raises(
        WindowExceeded, match=r"^transported index \(11, 0\) exceeds window cap 10$"
    ):
        shift_multiply(a, w1(), 10, "left", window_cap=10)


#: An index three below the top of int64.
TOP = (1 << 63) - 3


@pytest.mark.parametrize(
    "a, multiply, position",
    [
        (unit(0, 0) + unit(TOP, 0),
         lambda a, **kw: shift_multiply(a, w1(), 5, "left", **kw), (TOP + 5, 0)),
        # W^p on the right moves columns as (W*)^p: down by p
        (unit(0, -TOP), lambda a, **kw: shift_multiply(a, w1(), 5, "right", **kw),
         (0, -TOP - 5)),
        (unit(-TOP, 0),
         lambda a, **kw: permute_multiply(a, translation(-3), 2, "left", **kw),
         (-TOP - 6, 0)),
        # U^p on the right moves columns as U^-p
        (unit(0, TOP),
         lambda a, **kw: permute_multiply(a, translation(-3), 2, "right", **kw),
         (0, TOP + 6)),
    ],
    ids=["shift-left", "shift-right", "translation-left", "translation-right"],
)
def test_transport_past_int64_is_named_at_the_exact_position(a, multiply, position):
    # a cap past int64 cannot let a landing outside it through
    want = f"transported index {position} exceeds window cap {(1 << 63) - 1}"
    with pytest.raises(WindowExceeded) as info:
        multiply(a, window_cap=10**30)
    assert str(info.value) == want
    # a power over the horizon is still reported as such
    with pytest.raises(HorizonExceeded):
        multiply(a, horizon=1)


def test_empty_matrix_moved_beyond_the_horizon_stays_empty():
    # no index moves, so nothing checks the power
    empty = FiniteMatrix()
    u = table_unitary(list(TABLE_WINDOW))
    assert shift_multiply(empty, w1(), 50, "right", horizon=10).is_zero()
    assert permute_multiply(empty, u, -50, "left", horizon=10).is_zero()
    assert apply_power(ElementaryOp(u, w2()), 50, empty, horizon=10).is_zero()


def test_shift_multiply_rejects_unknown_side():
    with pytest.raises(ValueError):
        shift_multiply(unit(0, 0), w1(), 1, "above")


# ---------------------------------------------------------------------------
# serialization


def round_trip(a: FiniteMatrix) -> FiniteMatrix:
    buf = io.StringIO()
    write_finmat(a, buf)
    return read_finmat(io.StringIO(buf.getvalue()))


@given(small_matrices)
def test_finmat_round_trip_is_bit_exact(a):
    assert round_trip(a) == a


def test_finmat_round_trip_keeps_awkward_doubles():
    a = unit(0, 0, 0.1) + unit(1, -1, 1.0 / 3.0) + unit(-2, 3, 2.0**-40)
    assert round_trip(a) == a


def test_finmat_header_line():
    buf = io.StringIO()
    write_finmat(unit(0, 0), buf)
    assert buf.getvalue().splitlines()[0] == "finmat v1"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "finmat v2\n0 0 1.0\n",
        "finmat v1\n0 0\n",
        "finmat v1\n0 0 1.0 extra\n",
        "finmat v1\nx 0 1.0\n",
        "finmat v1\n0 0 1.0\n0 0 2.0\n",
    ],
)
def test_read_finmat_rejects_malformed_input(text):
    with pytest.raises(FormatError):
        read_finmat(io.StringIO(text))


@pytest.mark.parametrize("line", ["9223372036854775808 0 1.0", "0 -9223372036854775809 1.0"])
def test_read_finmat_rejects_indices_beyond_int64_with_the_line(line):
    text = f"finmat v1\n0 0 1.0\n{line}\n"
    with pytest.raises(FormatError, match="^line 3: index does not fit int64$"):
        read_finmat(io.StringIO(text))
    edge = "finmat v1\n9223372036854775807 -9223372036854775808 1.0\n"
    assert read_finmat(io.StringIO(edge)).nnz == 1
