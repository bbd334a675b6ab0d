"""Trace pairings, transposed transport, and weak-star approximation."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    TABLE_WINDOW,
    awkward_values,
    canonical_instance,
    cross_label,
    dict_strong_limit_distance,
    dual_cross_label,
    dual_single_label,
    increasing_r_lists,
    log_rel_close,
    neg_label,
    outcome,
    per_k_dual_approximant,
    per_k_dual_convergence,
    pos_label,
    power_at,
    random_matrix,
    table_unitary,
    three_op_instance,
    translation,
    unit_norm_matrix,
    w1,
    w2,
    weighted_shifts,
)
from opdyn import (
    CriterionInstance,
    FiniteMatrix,
    NSeq,
    apply_power,
    compose,
    op_norm,
    projection_matrix,
    trace_norm,
    truncate_right,
    unit,
)
from opdyn import duality
from opdyn.constructor import WitnessBundle, default_bundle, load_bundle, save_bundle
from opdyn.criteria import all_decay, check_sufficient_decay
from opdyn.duality import (
    FunctionalRep,
    TestSet,
    _dual_approximants,
    _majorant_norms,
    _probe_array,
    check_dual_sufficient,
    check_dual_witness_conditions,
    construct_dual_approximant,
    default_probes,
    dual_apply_power,
    eval_functional,
    m_d,
    strong_limit_distance,
    verify_dual_convergence,
    weak_star_distance,
)
from opdyn.elementary import ElementaryOp
from opdyn.errors import NonFiniteEntry, WindowExceeded
from opdyn.finmat import MatrixStack, truncate_left

small_matrices = st.builds(
    random_matrix,
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=2),
)


def op1(orientation="WFU") -> ElementaryOp:
    return ElementaryOp(translation(1), w1(), orientation)


# ---------------------------------------------------------------------------
# trace pairing


def test_eval_functional_examples():
    assert eval_functional(FunctionalRep(unit(0, 0)), projection_matrix(3)) == 1.0
    assert eval_functional(FunctionalRep(unit(1, -1)), unit(-1, 1, 2.0)) == 2.0
    assert eval_functional(FunctionalRep(unit(1, -1)), FiniteMatrix()) == 0.0


@given(small_matrices, small_matrices)
@settings(max_examples=40)
def test_eval_functional_is_the_trace_of_the_product(a, f):
    want = math.fsum(v for (i, j), v in compose(a, f).items() if i == j)
    got = eval_functional(FunctionalRep(a), f)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# multiplication functionals


def test_m_d_examples():
    phi = FunctionalRep(unit(0, 0))
    assert m_d(phi, projection_matrix(5) * 2.0).representer == unit(0, 0, 2.0)
    assert m_d(phi, projection_matrix(5)).representer == unit(0, 0)
    hole = projection_matrix(5) - projection_matrix(0)
    assert m_d(phi, hole).representer.is_zero()


def test_m_d_with_a_projection_is_the_column_cut():
    a = unit(0, 3, 2.0) + unit(1, 1, -1.0)
    phi = FunctionalRep(a)
    assert m_d(phi, projection_matrix(1)).representer == truncate_right(a, 1)


@given(small_matrices, small_matrices, small_matrices)
@settings(max_examples=30)
def test_m_d_composes_contravariantly(a, d1, d2):
    phi = FunctionalRep(a)
    twice = m_d(m_d(phi, d1), d2).representer
    direct = compose(compose(a, d1), d2)
    diff = twice - direct
    assert all(abs(v) <= 1e-12 for _, v in diff.items())


# ---------------------------------------------------------------------------
# transposed transport


def test_dual_apply_power_moves_the_representer_the_other_way():
    got = dual_apply_power(op1(), 1, FunctionalRep(unit(0, 0)))
    assert got.representer == unit(1, -1, 2.0)


def test_dual_apply_power_zero_is_identity():
    phi = FunctionalRep(unit(2, -1, 3.0))
    assert dual_apply_power(op1(), 0, phi).representer == phi.representer


@given(small_matrices, st.integers(min_value=-6, max_value=6))
@settings(max_examples=40)
def test_dual_apply_power_inverse_round_trip(a, p):
    phi = FunctionalRep(a)
    back = dual_apply_power(op1(), -p, dual_apply_power(op1(), p, phi))
    diff = back.representer - a
    scale = max((abs(v) for _, v in a.items()), default=1.0)
    assert all(abs(v) <= 1e-12 * (1.0 + scale) for _, v in diff.items())


@given(
    small_matrices,
    small_matrices,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["WFU", "UFW"]),
    st.sampled_from([1, 2]),
)
@settings(max_examples=80)
def test_transposed_action_matches_the_pairing(a, f, p, orientation, which):
    shift = w1() if which == 1 else w2()
    op = ElementaryOp(translation(1), shift, orientation)
    phi = FunctionalRep(a)
    lhs = eval_functional(dual_apply_power(op, p, phi), f)
    rhs = eval_functional(phi, apply_power(op, p, f))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def dense_shift_power_matrix(shift, p, span) -> FiniteMatrix:
    from opdyn.lattice import shift_power_apply

    entries = {}
    for j in range(-span, span + 1):
        index, lg = power_at(shift_power_apply, shift, p, j)
        entries[(index, j)] = math.exp(lg)
    return FiniteMatrix(entries)


def dense_translation_matrix(t, p, span) -> FiniteMatrix:
    return FiniteMatrix({(j + p * t, j): 1.0 for j in range(-span, span + 1)})


@given(small_matrices, st.integers(min_value=-4, max_value=4), st.sampled_from(["WFU", "UFW"]))
@settings(max_examples=40)
def test_starred_transposed_action_matches_dense_adjoint_product(a, p, orientation):
    op = ElementaryOp(translation(1), w2().star(), orientation)
    got = dual_apply_power(op, p, FunctionalRep(a)).representer
    span = a.support_radius() + 3 * abs(p) + 2
    wp = dense_shift_power_matrix(w2(), p, span).transpose()  # (W^p)* for real weights
    up = dense_translation_matrix(1, p, span)
    if orientation == "WFU":
        want = compose(compose(up, a), wp)
    else:
        want = compose(compose(wp, a), up)
    diff = got - want
    assert all(abs(v) <= 1e-12 for _, v in diff.items())


# ---------------------------------------------------------------------------
# probe sets and distances


def test_test_set_rejects_oversized_or_empty_probes():
    with pytest.raises(ValueError):
        TestSet(probes=())
    with pytest.raises(ValueError):
        TestSet(probes=(unit(0, 0, 2.0),))
    TestSet(probes=(unit(0, 0, 1.0),))


def test_default_probes_cover_projections_and_units():
    ts = default_probes(2)
    assert len(ts.probes) == 3 + 25
    assert all(op_norm(p) <= 1.0 + 1e-12 for p in ts.probes)
    assert projection_matrix(0) in list(ts.probes)
    assert unit(2, -2) in list(ts.probes)


def test_weak_star_distance_examples():
    probes = default_probes(1)
    phi = FunctionalRep(unit(0, 0))
    assert weak_star_distance(phi, phi, probes) == 0.0
    zero = FunctionalRep(FiniteMatrix())
    assert weak_star_distance(phi, zero, probes) == 1.0


#: Indices past +-2^31 that probes and representers share, so that far
#: entries pair with each other.
FAR_INDICES = [2**31, -(2**31) - 1, 2**40, -(2**62), (1 << 63) - 1, -(1 << 63)]


@st.composite
def overlapping_probe_sets(draw):
    """Probe sets on a window [-m, m] whose supports overlap: projections,
    scaled matrix units and scaled dense probes, plus units at far indices,
    some tiny enough that a pairing underflows to -0.0; each pick possibly
    repeated."""
    m = draw(st.integers(min_value=0, max_value=2))
    rng = draw(st.randoms(use_true_random=False))
    pool = [projection_matrix(j) for j in range(m + 1)]
    pool += [
        unit(i, j, rng.choice([1.0, -1.0, rng.uniform(-1.0, 1.0)]))
        for i in range(-m, m + 1)
        for j in range(-m, m + 1)
    ]
    for _ in range(3):
        dense = random_matrix(rng, m, density=1.0, scale=1.0)
        if op_norm(dense) > 1e-6:
            pool.append(dense * (rng.uniform(0.1, 1.0) / op_norm(dense)))
    far = FAR_INDICES + [0]
    pool += [
        unit(rng.choice(far), rng.choice(far), rng.choice([1.0, -0.5, 1e-30, -1e-30]))
        for _ in range(4)
    ]
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=16)
    )
    return TestSet(probes=tuple(pool[i] for i in picks))


@st.composite
def wide_functionals(draw):
    """Representers that reach up to two indices past every probe's
    window, plus entries at far indices, tiny ones included."""
    rng = draw(st.randoms(use_true_random=False))
    a = random_matrix(
        rng, draw(st.integers(min_value=0, max_value=4)), scale=draw(st.sampled_from([1e-3, 4.0, 1e6]))
    )
    far = FAR_INDICES + [0]
    extra = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(far), st.sampled_from(far)),
            st.sampled_from([1.0, -3.0, 1e-300, -1e-300, -2e-290]),
            max_size=6,
        )
    )
    return FunctionalRep(a + FiniteMatrix(extra))


@given(overlapping_probe_sets(), wide_functionals(), wide_functionals())
@settings(max_examples=150)
def test_one_pass_probe_values_equal_the_per_probe_pairings(probes, phi, psi):
    per_probe = [eval_functional(phi, f) for f in probes.probes]
    got = _probe_array(phi, probes).tolist()
    assert isinstance(got, list)
    assert got == per_probe
    # == does not tell 0.0 from -0.0
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in per_probe]
    assert weak_star_distance(phi, psi, probes) == max(
        abs(v - eval_functional(psi, f)) for v, f in zip(per_probe, probes.probes)
    )


def test_a_pairing_past_the_float_range_is_a_non_finite_entry():
    # two terms whose exact sum overflows, and one term that overflows (a
    # probe entry may exceed 1 by the norm tolerance)
    big = sys.float_info.max
    phi = FunctionalRep(FiniteMatrix({(0, 0): big, (1, 1): big}))
    for f in (projection_matrix(1), unit(0, 0, 2.0)):
        with pytest.raises(NonFiniteEntry, match="^non-finite trace pairing$"):
            eval_functional(phi, f)
    for last in (projection_matrix(1), unit(0, 0, 1.0 + 1e-12)):
        with pytest.raises(NonFiniteEntry, match="^non-finite trace pairing with probe 1$"):
            _probe_array(phi, TestSet(probes=(unit(1, 1), last)))


def test_a_distance_past_the_float_range_is_a_non_finite_entry():
    # both pairings are finite, their difference is not
    phi = FunctionalRep(unit(0, 0, 1.5e308))
    psi = FunctionalRep(unit(0, 0, -1.5e308))
    with pytest.raises(NonFiniteEntry, match="^non-finite weak-\\* distance with probe 0$"):
        weak_star_distance(phi, psi, default_probes(1))


def test_distances_pair_the_copies_a_block_at_a_time(monkeypatch):
    # blocks of one, two and all copies give the same distances, and the
    # same first error: copy 2's distance before copy 4's pairing, and the
    # other way round
    rng = random.Random(3)
    probes = default_probes(2)
    target = _probe_array(FunctionalRep(unit(0, 0, -1.5e308)), probes)
    mats = [random_matrix(rng, 2) for _ in range(6)]
    apart = unit(0, 0, 1.5e308)  # finite pairing, its difference is not
    overflow = FiniteMatrix({(0, 0): 1e308, (1, 1): 1e308})  # pairing with P_1

    def runs(stack):
        got = []
        for block in (1, 2, len(mats)):
            monkeypatch.setattr(duality, "_PAIRED_CELLS", block * len(probes.probes))
            got.append(outcome(duality._distances, stack, target, probes))
        return got

    ok = MatrixStack.of(mats)
    assert runs(ok) == [("ok", duality._distances(ok, target, probes))] * 3
    first = MatrixStack.of(mats[:2] + [apart] + mats[3:4] + [overflow] + mats[5:])
    assert runs(first) == [(NonFiniteEntry, "non-finite weak-* distance with probe 0")] * 3
    first = MatrixStack.of(mats[:2] + [overflow] + mats[3:4] + [apart] + mats[5:])
    assert runs(first) == [(NonFiniteEntry, "non-finite trace pairing with probe 1")] * 3


@given(
    st.lists(st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), awkward_values)),
    st.lists(st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), awkward_values)),
    st.integers(0, 5),
)
def test_strong_limit_distance_is_the_walk_over_entries(x, y, window):
    # one bincount of squares per column, in row order, has the bits of the
    # dict walk, squares past the float range included, or a - b's error
    a, b = FiniteMatrix(x), FiniteMatrix(y)

    def bits(distance):
        return np.array(distance(a, b, window)).tobytes()

    assert outcome(bits, strong_limit_distance) == outcome(bits, dict_strong_limit_distance)


def test_strong_limit_distance_reads_columns_inside_the_window():
    a = projection_matrix(2)
    assert strong_limit_distance(a, a, 2) == 0.0
    b = a + unit(0, 0, 1e-3)
    assert math.isclose(strong_limit_distance(a, b, 2), 1e-3, rel_tol=1e-12)
    c = a + unit(0, 7, 5.0)  # column 7 sits outside the inspected window
    assert strong_limit_distance(a, c, 2) == 0.0


# ---------------------------------------------------------------------------
# adjoint-side decay families


@pytest.mark.parametrize("m", [0, 1, 2])
def test_dual_sufficient_star_families_match_the_primal_families(m):
    inst = canonical_instance(m=m, r1=1, k_max=40)
    dual = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    primal = {r.quantity: r for r in check_sufficient_decay(inst, 1e-6)}
    pairs = [
        (dual_single_label(m, 1, 1, "+", True), pos_label(1, 1, m)),
        (dual_single_label(m, 1, 1, "-", True), neg_label(1, 1, m)),
        (dual_single_label(m, 2, 2, "+", True), pos_label(2, 2, m)),
        (dual_single_label(m, 2, 2, "-", True), neg_label(2, 2, m)),
        (dual_cross_label(m, 2, 2, 1, 1, True), cross_label(1, 1, 2, 2, m)),
        (dual_cross_label(m, 1, 1, 2, 2, True), cross_label(2, 2, 1, 1, m)),
    ]
    assert set(dual) == {d for d, _ in pairs}
    for dlabel, plabel in pairs:
        for (k, vd), (_, vp) in zip(dual[dlabel].values, primal[plabel].values):
            assert log_rel_close(vd, math.log(vp), 1e-10)
    assert all_decay(dual.values())


def test_dual_sufficient_without_star_grows_for_the_doubling_weight():
    inst = canonical_instance(m=0, r1=1, k_max=10)
    reports = {r.quantity: r for r in check_dual_sufficient(inst, 1e-6)}
    rep = reports[dual_single_label(0, 1, 1, "+", False)]
    for k, v in rep.values:
        assert log_rel_close(v, k * math.log(2.0), 1e-10)
    assert rep.verdict.kind == "fails"


def test_dual_witness_conditions_reduce_to_dual_sufficient_on_projections():
    inst = canonical_instance(m=1, r1=1, k_max=15)
    bundle = default_bundle(inst)
    witness = {r.quantity: r for r in check_dual_witness_conditions(inst.star(), bundle, 1e-6)}
    plain = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    pair_map = {
        "norm(D_k W1^(*+1n))": dual_single_label(1, 1, 1, "+", True),
        "norm(D_k W2^(*+2n))": dual_single_label(1, 2, 2, "+", True),
        "norm(G1_k W1^(*-1n))": dual_single_label(1, 1, 1, "-", True),
        "norm(G2_k W2^(*-2n))": dual_single_label(1, 2, 2, "-", True),
        "norm(G2_k W2^(*-2n) W1^(*+1n))": dual_cross_label(1, 2, 2, 1, 1, True),
        "norm(G1_k W1^(*-1n) W2^(*+2n))": dual_cross_label(1, 1, 1, 2, 2, True),
    }
    for wlabel, plabel in pair_map.items():
        for (k, vw), (_, vp) in zip(witness[wlabel].values, plain[plabel].values):
            assert math.isclose(vw, vp, rel_tol=1e-12)
    for label in ("slim-dist(D_k - P1)", "slim-dist(G1_k - P1)", "slim-dist(G2_k - P1)"):
        assert all(v == 0.0 for _, v in witness[label].values)


def test_dual_witness_cross_family_pairs_with_the_inverse_operator_witness():
    # G^(2) = P_1 / 2: the cross family under W_2^{-} is measured on G^(2),
    # the witness of the operator whose inverse power it applies, as in the
    # eta_k majorant and the primal cross family.
    inst = canonical_instance(m=1, r1=1, k_max=10)
    base = default_bundle(inst)
    half = projection_matrix(1) * 0.5
    bundle = WitnessBundle(
        m=base.m,
        n_values=base.n_values,
        d_seq=base.d_seq,
        g_seqs=(base.g_seqs[0], (half,) * base.k_max),
    )
    witness = {r.quantity: r for r in check_dual_witness_conditions(inst.star(), bundle, 1e-6)}
    plain = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    halved = witness["norm(G2_k W2^(*-2n) W1^(*+1n))"].values
    for (k, vw), (_, vp) in zip(halved, plain[dual_cross_label(1, 2, 2, 1, 1, True)].values):
        assert math.isclose(vw, 0.5 * vp, rel_tol=1e-12)
    kept = witness["norm(G1_k W1^(*-1n) W2^(*+2n))"].values
    for (k, vw), (_, vp) in zip(kept, plain[dual_cross_label(1, 1, 1, 2, 2, True)].values):
        assert math.isclose(vw, vp, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# dual approximants


def test_dual_approximant_with_zero_functionals_is_a_multiplication():
    rng = random.Random(3)
    inst = canonical_instance(m=1, r1=1, k_max=6)
    bundle = default_bundle(inst)
    a = random_matrix(rng, 2)
    psi = FunctionalRep(a)
    zeros = [FunctionalRep(FiniteMatrix())] * 2
    eta = construct_dual_approximant(bundle, psi, zeros, inst, 3)
    assert eta.representer == truncate_right(a, 1)


def test_dual_approximant_with_zero_psi_is_a_single_transported_monomial():
    inst = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=0,
        k_max=10,
    )
    bundle = default_bundle(inst)
    psi = FunctionalRep(FiniteMatrix())
    phi = FunctionalRep(unit(0, 0))
    for k in (1, 3, 7):
        eta = construct_dual_approximant(bundle, psi, [phi], inst, k)
        rep = eta.representer
        assert rep.nnz == 1
        got = rep.entry(-k, k)
        assert math.isclose(got, 2.0**k, rel_tol=1e-12)


def test_verify_dual_convergence_decays_and_respects_bounds():
    inst = canonical_instance(m=1, r1=1, k_max=40)
    bundle = default_bundle(inst)
    psi = FunctionalRep(projection_matrix(1))
    phis = [FunctionalRep(unit(0, 0)), FunctionalRep(unit(0, 0))]
    reports, etas = verify_dual_convergence(
        bundle, psi, phis, inst.star(), default_probes(1), 1e-6
    )
    assert len(etas) == inst.k_max
    assert all_decay(reports)
    for rep in reports:
        assert rep.bounds is not None
        for (k, v), (_, b) in zip(rep.values, rep.bounds):
            assert v <= b + 1e-8


def test_majorant_norms_cut_a_run_of_equal_witnesses_once(tmp_path, monkeypatch):
    # a saved bundle loads one object per k; its equal witnesses are cut, and
    # their gap taken, once, as the in-memory bundle's one shared P_m is
    inst = canonical_instance(m=2, r1=1, k_max=20).star()
    shared = default_bundle(inst)
    save_bundle(shared, inst.r_list, tmp_path / "bundle")
    loaded, _ = load_bundle(tmp_path / "bundle")
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    monkeypatch.setattr(duality, "truncate_left", counted(truncate_left))
    monkeypatch.setattr(duality, "op_norm", counted(op_norm))
    norms = {}
    for name, bundle in (("shared", shared), ("loaded", loaded)):
        calls.clear()
        norms[name] = _majorant_norms(inst, bundle)
        assert sorted(calls) == ["op_norm", "truncate_left"]
    assert norms["loaded"] == norms["shared"]


def test_verify_dual_convergence_rows_equal_the_per_probe_spelling():
    """Rows and bounds of the one-pass verifier against eval_functional,
    probe by probe, on perturbed witnesses and a probe set that is not
    closed under transposition, so a transposed pairing shows."""
    rng = random.Random(7)
    inst = canonical_instance(m=2, r1=1, k_max=8).star()
    ns = inst.n_values()
    pn = projection_matrix(2)
    bundle = WitnessBundle(
        m=2,
        n_values=ns,
        d_seq=tuple(pn + random_matrix(rng, 2, scale=4.0**-k) for k in ns),
        g_seqs=tuple(
            tuple(pn + random_matrix(rng, 2, scale=4.0**-k) for k in ns) for _ in range(2)
        ),
    )
    psi = FunctionalRep(random_matrix(rng, 2))
    phis = [FunctionalRep(random_matrix(rng, 2)) for _ in range(2)]
    probes = TestSet(
        probes=tuple(projection_matrix(j) for j in range(3))
        + tuple(unit(i, j) for i in range(-2, 3) for j in range(i, 3))
        + (unit_norm_matrix(rng, 2),)
    )
    reports, etas = verify_dual_convergence(bundle, psi, phis, inst, probes, 1e-6)

    def dist(phi, target):
        return max(
            abs(eval_functional(phi, f) - eval_functional(target, f)) for f in probes.probes
        )

    cut = WitnessBundle(
        m=2,
        n_values=ns,
        d_seq=tuple(compose(pn, d) for d in bundle.d_seq),
        g_seqs=tuple(tuple(compose(pn, g) for g in seq) for seq in bundle.g_seqs),
    )
    fam = {
        r.quantity: [v for _, v in r.values]
        for r in check_dual_witness_conditions(inst, cut, 1e-6)
    }
    psi_tn = trace_norm(psi.representer)
    phi_tns = [trace_norm(phi.representer) for phi in phis]
    r = inst.r_list
    ops = inst.elementary_ops()

    vals = [dist(eta, m_d(psi, projection_matrix(2))) for eta in etas]
    bounds = []
    for k in range(inst.k_max):
        bound = psi_tn * op_norm(cut.d_seq[k] - pn)
        for l in (1, 2):
            bound += phi_tns[l - 1] * fam[f"norm(G{l}_k W{l}^(*-{r[l - 1]}n))"][k]
        bounds.append(bound)
    expected = [(vals, bounds)]
    for l, s in ((1, 2), (2, 1)):
        target = m_d(phis[l - 1], projection_matrix(2))
        vals = [
            dist(dual_apply_power(ops[l - 1], r[l - 1] * n, eta), target)
            for n, eta in zip(ns, etas)
        ]
        cross = f"norm(G{s}_k W{s}^(*-{r[s - 1]}n) W{l}^(*+{r[l - 1]}n))"
        bounds = [
            psi_tn * fam[f"norm(D_k W{l}^(*+{r[l - 1]}n))"][k]
            + phi_tns[l - 1] * op_norm(cut.g_seqs[l - 1][k] - pn)
            + phi_tns[s - 1] * fam[cross][k]
            for k in range(inst.k_max)
        ]
        expected.append((vals, bounds))

    assert len(reports) == 3
    for rep, (vals, bounds) in zip(reports, expected):
        assert [v for _, v in rep.values] == vals
        assert [b for _, b in rep.bounds] == bounds


def test_verify_dual_convergence_rows_equal_the_per_probe_spelling_on_three_operators():
    """Each bound of a three-operator run is the trace-norm-weighted sum in
    the order the row-by-row spelling adds it: row 0 the D_k gap, then W_l^-
    for l = 1, 2, 3; row l the W_l^+ family, the G_k^(l) gap, then the cross
    families W_l^+ W_s^- for the other s ascending."""
    rng = random.Random(11)
    inst = three_op_instance(m=2, k_max=8).star()
    ns = inst.n_values()
    pn = projection_matrix(2)

    def perturbed():
        return tuple(pn + random_matrix(rng, 2, scale=4.0**-k) for k in ns)

    bundle = WitnessBundle(
        m=2, n_values=ns, d_seq=perturbed(), g_seqs=tuple(perturbed() for _ in range(3))
    )
    psi = FunctionalRep(random_matrix(rng, 2))
    phis = [FunctionalRep(random_matrix(rng, 2)) for _ in range(3)]
    probes = TestSet(
        probes=tuple(projection_matrix(j) for j in range(3))
        + tuple(unit(i, j) for i in range(-2, 3) for j in range(i, 3))
        + (unit_norm_matrix(rng, 2),)
    )
    reports, etas = verify_dual_convergence(bundle, psi, phis, inst, probes, 1e-6)

    def dist(phi, target):
        return max(
            abs(eval_functional(phi, f) - eval_functional(target, f)) for f in probes.probes
        )

    cut = WitnessBundle(
        m=2,
        n_values=ns,
        d_seq=tuple(truncate_left(d, 2) for d in bundle.d_seq),
        g_seqs=tuple(tuple(truncate_left(g, 2) for g in seq) for seq in bundle.g_seqs),
    )
    fam = {
        r.quantity: [v for _, v in r.values]
        for r in check_dual_witness_conditions(inst, cut, 1e-6)
    }
    tn = [trace_norm(a.representer) for a in (psi, *phis)]
    r = inst.r_list
    ops = inst.elementary_ops()

    def minus(l):
        return f"W{l}^(*-{r[l - 1]}n)"

    def plus(l):
        return f"W{l}^(*+{r[l - 1]}n)"

    vals = [dist(eta, m_d(psi, pn)) for eta in etas]
    bounds = [
        tn[0] * op_norm(cut.d_seq[k] - pn)
        + tn[1] * fam[f"norm(G1_k {minus(1)})"][k]
        + tn[2] * fam[f"norm(G2_k {minus(2)})"][k]
        + tn[3] * fam[f"norm(G3_k {minus(3)})"][k]
        for k in range(inst.k_max)
    ]
    expected = [(vals, bounds)]
    for l, (s1, s2) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        vals = [
            dist(dual_apply_power(ops[l - 1], r[l - 1] * n, eta), m_d(phis[l - 1], pn))
            for n, eta in zip(ns, etas)
        ]
        bounds = [
            tn[0] * fam[f"norm(D_k {plus(l)})"][k]
            + tn[l] * op_norm(cut.g_seqs[l - 1][k] - pn)
            + tn[s1] * fam[f"norm(G{s1}_k {minus(s1)} {plus(l)})"][k]
            + tn[s2] * fam[f"norm(G{s2}_k {minus(s2)} {plus(l)})"][k]
            for k in range(inst.k_max)
        ]
        expected.append((vals, bounds))

    assert len(reports) == 4
    for rep, (vals, bounds) in zip(reports, expected):
        assert [v for _, v in rep.values] == vals
        assert [b for _, b in rep.bounds] == bounds


def test_a_pairing_error_at_one_k_comes_before_a_move_error_at_a_later_k():
    # row T1 moves eta_1 onto the diagonal of P_1, where the pairing with
    # probe 1 overflows, and eta_2's row -11 past the window cap, to 9: the
    # walk over k pairs eta_1 before it moves eta_2
    inst = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(10),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=1,
        k_max=2,
        window_cap=5,
    )
    psi = FunctionalRep(FiniteMatrix({(-11, -1): 1.0, (-10, 0): 1.0, (-9, 1): 1.0}))
    pm = projection_matrix(1)

    def check(d_1):
        bundle = WitnessBundle(m=1, n_values=(1, 2), d_seq=(d_1, unit(-1, 0)), g_seqs=((pm, pm),))
        args = (bundle, psi, [FunctionalRep(FiniteMatrix())], inst, default_probes(1), 1e-6)
        got = outcome(verify_dual_convergence, *args)
        assert got == outcome(per_k_dual_convergence, *args)
        return got

    huge = FiniteMatrix({(-1, 0): 4.25e307, (0, 1): 1.7e308, (1, 2): 1.7e308})
    assert check(huge) == (NonFiniteEntry, "non-finite trace pairing with probe 1")
    assert check(huge * 1e-300) == (
        WindowExceeded, "transported index (9, -2) exceeds window cap 5"
    )


def test_a_build_error_at_copy_5_comes_before_a_row_move_error_at_copy_3():
    # eta_3 alone holds row 15 (psi's row 15 meets D_3's row 1, which the
    # other D_k lack), which T2's transpose at n = 3 moves to 21, past the
    # window cap of 20; A_phi1 G1_5 overflows in the build at k = 5.  The
    # dual walk builds every eta_k before it moves any, so k = 5's build
    # error comes first, unlike the primal walk's k-major order.
    inst = canonical_instance(m=1, k_max=6, window_cap=20)
    pm, p0 = projection_matrix(1), projection_matrix(0)
    psi = FunctionalRep(pm + unit(15, 1))
    phis = [FunctionalRep(unit(0, 0, 1e200)), FunctionalRep(pm)]
    d_seq = tuple(pm if k == 3 else p0 for k in range(1, 7))

    def check(g_5):
        g1 = tuple(g_5 if k == 5 else pm for k in range(1, 7))
        bundle = WitnessBundle(m=1, n_values=inst.n_values(), d_seq=d_seq, g_seqs=(g1, (pm,) * 6))
        args = (bundle, psi, phis, inst, default_probes(1), 1e-6)
        got = outcome(verify_dual_convergence, *args)
        assert got == outcome(per_k_dual_convergence, *args)
        return got

    assert check(pm + unit(0, 0, 1e150)) == (NonFiniteEntry, "non-finite entry at (0, 0)")
    assert check(pm) == (WindowExceeded, "transported index (21, -5) exceeds window cap 20")


@st.composite
def dual_checks(draw):
    """The arguments of one verify_dual_convergence call, bar tol: 1-3
    operators (each shift plain or adjoint), WFU or UFW, a translation or a
    table unitary, horizons 12 and 40.  The witnesses are one shared P_m,
    equal copies of it, or perturbed matrices drawn from a pool of three,
    each pick the pool's object or an equal copy, so runs of equal
    witnesses come both ways.  The probes are not closed under
    transposition."""
    rng = draw(st.randoms(use_true_random=False))
    n_ops = draw(st.integers(1, 3))
    inst = CriterionInstance(
        shifts=tuple(draw(weighted_shifts()) for _ in range(n_ops)),
        unitary=draw(
            st.one_of(
                st.sampled_from([1, -1, 2]).map(translation),
                st.permutations(list(TABLE_WINDOW)).map(table_unitary),
            )
        ),
        r_list=draw(increasing_r_lists(n_ops, 4)),
        n_seq=NSeq.all_k(),
        m=draw(st.integers(0, 2)),
        k_max=draw(st.integers(1, 6)),
        horizon=draw(st.sampled_from([12, 40])),
        orientation=draw(st.sampled_from(["WFU", "UFW"])),
    )
    m, k_max = inst.m, inst.k_max
    pm = projection_matrix(m)
    kind = draw(st.sampled_from(["shared", "copies", "perturbed"]))

    def seq():
        if kind == "shared":
            return (pm,) * k_max
        if kind == "copies":
            return tuple(FiniteMatrix(pm.items()) for _ in range(k_max))
        pool = [pm + random_matrix(rng, m, scale=4.0**-j) for j in range(1, 4)]
        picks = [pool[rng.randrange(3)] for _ in range(k_max)]
        return tuple(a if rng.random() < 0.5 else FiniteMatrix(a.items()) for a in picks)

    bundle = WitnessBundle(
        m=m, n_values=inst.n_values(), d_seq=seq(), g_seqs=tuple(seq() for _ in range(n_ops))
    )
    choices = [random_matrix(rng, m), random_matrix(rng, m), FiniteMatrix(), unit(0, 0)]
    psi, *phis = (FunctionalRep(draw(st.sampled_from(choices))) for _ in range(n_ops + 1))
    dense = random_matrix(rng, m, density=1.0, scale=1.0) + unit(0, 0, 2.0)
    probes = TestSet(
        probes=tuple(projection_matrix(j) for j in range(m + 1))
        + tuple(unit(i, j) for i in range(-m, m + 1) for j in range(i, m + 1))
        + (dense * (1.0 / op_norm(dense)),)
    )
    return bundle, psi, phis, inst, probes


@st.composite
def failing_dual_checks(draw):
    """verify_dual_convergence arguments near the float range and the
    window cap: the canonical pair with a translation by 1, 3 or 10, plain
    or adjoint, WFU or UFW, window caps 6 to 30; each witness is P_m or P_m
    plus a random matrix, each functional a random matrix, of a scale drawn
    per matrix from 1 to 8e307.  So the build, the row moves and the
    pairings overflow or leave the window cap at different k and steps."""
    rng = draw(st.randoms(use_true_random=False))
    inst = CriterionInstance(
        shifts=(w1(), w2()),
        unitary=translation(draw(st.sampled_from([1, 3, 10]))),
        r_list=(1, 2),
        n_seq=NSeq.all_k(),
        m=draw(st.integers(1, 2)),
        k_max=draw(st.integers(2, 8)),
        window_cap=draw(st.sampled_from([6, 10, 15, 30])),
        orientation=draw(st.sampled_from(["WFU", "UFW"])),
    )
    inst = inst.star() if draw(st.booleans()) else inst
    m, pm = inst.m, projection_matrix(inst.m)

    def matrix():
        return random_matrix(rng, m, scale=rng.choice([1.0, 1e150, 1e300, 8e307]))

    def seq():
        return tuple(pm + matrix() if rng.random() < 0.5 else pm for _ in range(inst.k_max))

    bundle = WitnessBundle(m=m, n_values=inst.n_values(), d_seq=seq(), g_seqs=(seq(), seq()))
    psi, *phis = (FunctionalRep(matrix()) for _ in range(3))
    return bundle, psi, phis, inst, default_probes(m)


def bytes_of(etas):
    """Rows, columns and value bytes of each eta_k representer."""
    return [
        (eta.representer._rows.tolist(), eta.representer._cols.tolist(),
         eta.representer._vals.tobytes())
        for eta in etas
    ]


@given(dual_checks())
@settings(max_examples=200)
def test_stacked_dual_check_equals_the_per_k_walk(check):
    # every report, eta_k and error (type and message) of the one-stack
    # check is that of the walk over k
    def run(verify):
        reports, etas = verify(*check, 1e-6)
        return reports, bytes_of(etas)

    assert outcome(run, verify_dual_convergence) == outcome(run, per_k_dual_convergence)
    bundle, psi, phis, inst, _ = check
    every_k = range(1, bundle.k_max + 1)
    stacked = outcome(lambda: bytes_of(
        map(FunctionalRep, _dual_approximants(bundle, psi, phis, inst, every_k).split())
    ))
    singles = [
        outcome(lambda: bytes_of([construct_dual_approximant(bundle, psi, phis, inst, k)]))
        for k in every_k
    ]
    for k, single in zip(every_k, singles):
        want = outcome(lambda: bytes_of([per_k_dual_approximant(bundle, psi, phis, inst, k)]))
        assert single == want
    if stacked[0] == "ok":
        assert [result for _, (result,) in singles] == stacked[1]


@given(failing_dual_checks())
@settings(max_examples=100)
def test_stacked_dual_check_raises_the_first_error_of_the_walk_over_k(check):
    # each stacked step raises at its own least copy; the check raises what
    # the walk over k meets first, a later step at an earlier k included.
    # Any exception counts: trace_norm of a functional past the float range
    # raises NonFiniteEntry, before the build, on both sides alike.
    def run(verify):
        try:
            reports, etas = verify(*check, 1e-6)
        except Exception as exc:
            return type(exc), str(exc)
        return reports, bytes_of(etas)

    assert run(verify_dual_convergence) == run(per_k_dual_convergence)
