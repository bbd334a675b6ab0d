"""Explicit approximating vectors assembled from witness sequences."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    TABLE_WINDOW,
    canonical_instance,
    increasing_r_lists,
    outcome,
    per_k_approximant,
    per_k_approximant_convergence,
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
    FormatError,
    NSeq,
    apply_power,
    compose,
    op_norm,
    projection_matrix,
    truncate_right,
    unit,
)
from opdyn import constructor
from opdyn.errors import NonFiniteEntry, WindowExceeded
from opdyn.constructor import (
    TargetTuple,
    WitnessBundle,
    construct_approximant,
    default_bundle,
    extract_witnesses,
    load_bundle,
    save_bundle,
    verify_approximant_convergence,
)
from opdyn.criteria import all_decay, check_witness_conditions


def single_shift_instance(k_max=30) -> CriterionInstance:
    return CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=0,
        k_max=k_max,
    )


# ---------------------------------------------------------------------------
# bundles and targets


def test_default_bundle_is_all_projections():
    inst = canonical_instance(m=1, r1=1, k_max=4)
    b = default_bundle(inst)
    assert b.m == 1
    assert b.n_values == (1, 2, 3, 4)
    assert b.k_max == 4 and b.n_ops == 2
    pm = projection_matrix(1)
    assert all(d == pm for d in b.d_seq)
    assert all(g == pm for gs in b.g_seqs for g in gs)


def test_bundle_validation():
    pm = projection_matrix(0)
    with pytest.raises(ValueError):
        WitnessBundle(m=0, n_values=(2, 1), d_seq=(pm, pm), g_seqs=((pm, pm),))
    with pytest.raises(ValueError):
        WitnessBundle(m=0, n_values=(1, 2), d_seq=(pm,), g_seqs=((pm, pm),))
    with pytest.raises(ValueError):
        WitnessBundle(m=0, n_values=(1, 2), d_seq=(pm, pm), g_seqs=((pm,),))


def test_target_tuple_rejects_support_outside_the_window():
    pm = projection_matrix(1)
    with pytest.raises(ValueError):
        TargetTuple(unit(2, 0), (pm, pm), 1)
    with pytest.raises(ValueError):
        TargetTuple(pm, (unit(0, -2), pm), 1)
    TargetTuple(pm, (pm, pm), 1)  # in-window targets are fine


def test_target_tuple_arity_matches_instance():
    pm = projection_matrix(1)
    with pytest.raises(ValueError):
        TargetTuple(pm, (pm,), 1).__class__(pm, (), 1)


# ---------------------------------------------------------------------------
# witness extraction


def test_extracting_from_projections_gives_transported_projections():
    inst = canonical_instance(m=1, r1=1, k_max=5)
    pm = projection_matrix(1)
    b = extract_witnesses([pm] * inst.k_max, inst)
    ops = inst.elementary_ops()
    for k, n in enumerate(inst.n_values()):
        assert b.d_seq[k] == pm
        for l, op in enumerate(ops):
            want = truncate_right(apply_power(op, inst.r_list[l] * n, pm), 1)
            assert b.g_seqs[l][k] == want


def test_extraction_keeps_small_perturbations_small():
    inst = canonical_instance(m=1, r1=1, k_max=10)
    pm = projection_matrix(1)
    f_seq = [pm + unit(0, 0, 4.0**-k) for k in range(1, inst.k_max + 1)]
    b = extract_witnesses(f_seq, inst)
    for k in range(inst.k_max):
        gap = op_norm(b.d_seq[k] - pm)
        assert gap <= 4.0 ** -(k + 1) + 1e-15


def test_witnesses_extracted_from_approximants_pass_the_witness_check():
    # build approximants whose plain and transported limits are both P_m,
    # then feed them back through extraction: the round trip must satisfy
    # every witness decay family
    inst = canonical_instance(m=1, r1=1, k_max=40)
    pm = projection_matrix(1)
    targets = TargetTuple(pm, (pm, pm), 1)
    seed_bundle = default_bundle(inst)
    f_seq = [
        construct_approximant(seed_bundle, targets, inst, k)[0]
        for k in range(1, inst.k_max + 1)
    ]
    b = extract_witnesses(f_seq, inst)
    reports = check_witness_conditions(
        inst, list(b.d_seq), [list(g) for g in b.g_seqs]
    )
    assert all_decay(reports)


# ---------------------------------------------------------------------------
# approximants


def test_single_shift_approximant_has_closed_form_distance():
    inst = single_shift_instance()
    b = default_bundle(inst)
    p0 = projection_matrix(0)
    targets = TargetTuple(p0, (p0,), 0)
    for k in (1, 2, 5, 10, 20, 30):
        phi, _, _ = construct_approximant(b, targets, inst, k)
        d = op_norm(phi - p0)
        assert abs(d - 2.0**-k) <= 1e-12 * 2.0**-k


def test_approximant_with_zero_targets_reduces_to_the_plain_product():
    inst = canonical_instance(m=1, r1=1, k_max=6)
    b = default_bundle(inst)
    pm = projection_matrix(1)
    zero = pm * 0.0
    targets = TargetTuple(pm, (zero, zero), 1)
    for k in (1, 3, 6):
        phi, _, _ = construct_approximant(b, targets, inst, k)
        assert phi == compose(b.d_seq[k - 1], pm)


def test_approximant_with_zero_f_hits_the_targets_after_transport():
    inst = single_shift_instance(k_max=12)
    b = default_bundle(inst)
    p0 = projection_matrix(0)
    targets = TargetTuple(p0 * 0.0, (p0,), 0)
    op = inst.elementary_ops()[0]
    for k in (1, 4, 9):
        phi, _, _ = construct_approximant(b, targets, inst, k)
        assert abs(op_norm(phi) - 2.0**-k) <= 1e-12
        pushed = apply_power(op, k, phi)
        assert op_norm(pushed - p0) <= 1e-12


def test_approximant_k_is_one_based_and_bounded():
    inst = single_shift_instance(k_max=3)
    b = default_bundle(inst)
    p0 = projection_matrix(0)
    targets = TargetTuple(p0, (p0,), 0)
    with pytest.raises(ValueError):
        construct_approximant(b, targets, inst, 0)
    with pytest.raises(ValueError):
        construct_approximant(b, targets, inst, 4)


# ---------------------------------------------------------------------------
# convergence verification


@st.composite
def perturbed_approximant_cases(draw):
    """Witnesses P_m plus 4^-k noise, window targets, a translation or table
    unitary, either orientation."""
    n_ops = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    k_max = draw(st.integers(1, 5))
    unitary = draw(
        st.one_of(
            st.sampled_from((1, -1, 2)).map(translation),
            st.permutations(list(TABLE_WINDOW)).map(table_unitary),
        )
    )
    inst = CriterionInstance(
        shifts=tuple(draw(weighted_shifts()) for _ in range(n_ops)),
        unitary=unitary,
        r_list=draw(increasing_r_lists(n_ops, 3)),
        n_seq=NSeq.arithmetic(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        m=m,
        k_max=k_max,
        orientation=draw(st.sampled_from(("WFU", "UFW"))),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pm = projection_matrix(m)

    def witnesses():
        return tuple(
            pm + random_matrix(rng, m, scale=4.0**-k) for k in range(1, k_max + 1)
        )

    bundle = WitnessBundle(
        m=m,
        n_values=inst.n_values(),
        d_seq=witnesses(),
        g_seqs=tuple(witnesses() for _ in range(n_ops)),
    )
    targets = TargetTuple(
        f=random_matrix(rng, m),
        e_list=tuple(random_matrix(rng, m) for _ in range(n_ops)),
        m=m,
    )
    return bundle, targets, inst


@given(perturbed_approximant_cases())
@settings(max_examples=40, deadline=None)
def test_verified_approximants_are_the_constructed_ones(case):
    bundle, targets, inst = case
    _, phis = verify_approximant_convergence(bundle, targets, inst, 1e-6)
    assert phis == [
        construct_approximant(bundle, targets, inst, k)[0]
        for k in range(1, inst.k_max + 1)
    ]


@st.composite
def approximant_checks(draw):
    """The arguments of one verify_approximant_convergence call, bar tol:
    1-3 operators (each shift plain or adjoint), WFU or UFW, a translation
    or a table unitary, horizons 12 and 40.  The witnesses are one shared
    P_m, equal copies of it, or perturbed matrices drawn from a pool of
    three, each pick the pool's object or an equal copy, so runs of equal
    witnesses come both ways; the targets are random window matrices or
    zero."""
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
        n_seq=NSeq.arithmetic(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
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
    f, *es = (draw(st.sampled_from(choices)) for _ in range(n_ops + 1))
    return bundle, TargetTuple(f, tuple(es), m), inst


@st.composite
def failing_approximant_checks(draw):
    """verify_approximant_convergence arguments near the float range and the
    window cap: the canonical pair with a translation by 1, 3 or 10, plain
    or adjoint, WFU or UFW, window caps 6 to 30; each witness is P_m or P_m
    plus a random matrix, each target a random matrix, of a scale drawn per
    matrix from 1 to 8e307.  So the build and the row moves overflow or
    leave the window cap at different k and steps."""
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
    return bundle, TargetTuple(matrix(), (matrix(), matrix()), m), inst


def bytes_of(mats):
    """Rows, columns and value bytes of each matrix."""
    return [(a._rows.tolist(), a._cols.tolist(), a._vals.tobytes()) for a in mats]


def checked(verify, check):
    """The reports (as their repr, so that a nan fitted rate from an inf
    norm compares equal) and phi_k bytes of one check."""
    reports, phis = verify(*check, 1e-6)
    return repr(reports), bytes_of(phis)


@given(approximant_checks())
@settings(max_examples=150)
def test_stacked_approximant_check_equals_the_per_k_walk(check):
    # every report, phi_k and error (type and message) of the stacked check
    # is that of the walk over k, and construct_approximant(..., k) is the
    # walk's phi_k with its terms
    assert outcome(checked, verify_approximant_convergence, check) == outcome(
        checked, per_k_approximant_convergence, check
    )
    bundle, targets, inst = check
    for k in range(1, bundle.k_max + 1):
        def build(construct):
            phi, df, pairs = construct(bundle, targets, inst, k)
            return bytes_of([phi, df, *(a for pair in pairs for a in pair)])

        assert outcome(build, construct_approximant) == outcome(build, per_k_approximant)


@given(failing_approximant_checks())
@settings(max_examples=100)
def test_stacked_approximant_check_raises_the_first_error_of_the_walk_over_k(check):
    # a block raises at its own least copy and step; the check raises what
    # the walk over k meets first, a later step at an earlier k included
    assert outcome(checked, verify_approximant_convergence, check) == outcome(
        checked, per_k_approximant_convergence, check
    )


def test_blocks_of_one_two_and_all_copies_give_the_same_check(monkeypatch):
    # the default bundle: every phi_k's terms sum 3 * 9 products at m = 1
    rng = random.Random(3)
    inst = canonical_instance(m=1, k_max=7)
    bundle = default_bundle(inst)
    targets = TargetTuple(
        random_matrix(rng, 1, density=1.0), tuple(random_matrix(rng, 1) for _ in range(2)), 1
    )
    runs = []
    for cap in (1, 2 * 27, 1 << 30):
        monkeypatch.setattr(constructor, "_BLOCK_PRODUCTS", cap)
        runs.append(checked(verify_approximant_convergence, (bundle, targets, inst)))
    assert runs[0] == runs[1] == runs[2] == checked(
        per_k_approximant_convergence, (bundle, targets, inst)
    )


def test_a_row_move_error_at_copy_3_comes_before_a_build_error_at_copy_5(monkeypatch):
    # D_3 holds row 5, which T2^(+2n) moves to 11, past the window cap of 10,
    # at k = 3; G1_5 E1 overflows at k = 5.  One block builds every phi_k
    # before it moves any, so its first error is k = 5's; the walk over k
    # meets k = 3's row move first.
    inst = canonical_instance(m=1, k_max=6, window_cap=10)
    pm = projection_matrix(1)
    d_seq = tuple(pm + unit(5, 0) if k == 3 else pm for k in range(1, 7))
    g1 = tuple(pm + unit(0, 0, 1e308) if k == 5 else pm for k in range(1, 7))
    bundle = WitnessBundle(m=1, n_values=inst.n_values(), d_seq=d_seq, g_seqs=(g1, (pm,) * 6))
    targets = TargetTuple(pm, (unit(0, 0, 1e308), pm), 1)
    want = (WindowExceeded, "transported index (11, -6) exceeds window cap 10")
    assert outcome(checked, per_k_approximant_convergence, (bundle, targets, inst)) == want
    for cap in (1, 1 << 30):
        monkeypatch.setattr(constructor, "_BLOCK_PRODUCTS", cap)
        assert outcome(checked, verify_approximant_convergence, (bundle, targets, inst)) == want
    # without the rerun one copy at a time, the block would raise k = 5's
    monkeypatch.setattr(constructor, "OpdynError", ())
    assert outcome(checked, verify_approximant_convergence, (bundle, targets, inst)) == (
        NonFiniteEntry, "non-finite entry at (0, 0)"
    )


def test_verify_convergence_on_random_targets():
    rng = random.Random(5)
    inst = canonical_instance(m=1, r1=1, k_max=40)
    b = default_bundle(inst)
    targets = TargetTuple(
        unit_norm_matrix(rng, 1),
        (unit_norm_matrix(rng, 1), unit_norm_matrix(rng, 1)),
        1,
    )
    reports, _ = verify_approximant_convergence(b, targets, inst, 1e-6)
    assert all_decay(r for r in reports if r.quantity.startswith("dist("))


def test_verified_distances_obey_the_triangle_decomposition():
    rng = random.Random(9)
    inst = canonical_instance(m=1, r1=1, k_max=12)
    b = default_bundle(inst)
    targets = TargetTuple(
        unit_norm_matrix(rng, 1),
        (unit_norm_matrix(rng, 1), unit_norm_matrix(rng, 1)),
        1,
    )
    reports = {r.quantity: dict(r.values) for r in
               verify_approximant_convergence(b, targets, inst, 1e-6)[0]}

    for k in range(1, inst.k_max + 1):
        lhs = reports["dist(phi_k - P1 F)"][k]
        rhs = (
            reports["norm((D_k - P1) F)"][k]
            + reports["norm(S1^(1n) G1_k E1)"][k]
            + reports["norm(S2^(2n) G2_k E2)"][k]
        )
        assert lhs <= rhs + 1e-8

        lhs1 = reports["dist(T1^(+1n) phi_k - P1 E1)"][k]
        rhs1 = (
            reports["norm(T1^(+1n) D_k F)"][k]
            + reports["norm(G1_k E1 - P1 E1)"][k]
            + reports["norm(T1^(+1n) S2^(2n) G2_k E2)"][k]
        )
        assert lhs1 <= rhs1 + 1e-8

        lhs2 = reports["dist(T2^(+2n) phi_k - P1 E2)"][k]
        rhs2 = (
            reports["norm(T2^(+2n) D_k F)"][k]
            + reports["norm(G2_k E2 - P1 E2)"][k]
            + reports["norm(T2^(+2n) S1^(1n) G1_k E1)"][k]
        )
        assert lhs2 <= rhs2 + 1e-8


def test_three_operator_family_columns_are_the_per_k_products():
    # every row acting on every other term: 4 dist, 4 gap and 12 family
    # columns, each family value the op_norm of its apply_power spelling
    rng = random.Random(17)
    inst = three_op_instance(m=2, k_max=6)
    ns = inst.n_values()
    pm = projection_matrix(2)

    def perturbed():
        return tuple(pm + random_matrix(rng, 2, scale=4.0**-k) for k in ns)

    b = WitnessBundle(
        m=2, n_values=ns, d_seq=perturbed(), g_seqs=tuple(perturbed() for _ in range(3))
    )
    targets = TargetTuple(
        random_matrix(rng, 2), tuple(random_matrix(rng, 2) for _ in range(3)), 2
    )
    reports, _ = verify_approximant_convergence(b, targets, inst, 1e-6)
    columns = {r.quantity: [v for _, v in r.values] for r in reports}
    ops, r = inst.elementary_ops(), inst.r_list

    def power(l, sign, n, x):
        return apply_power(ops[l - 1], sign * r[l - 1] * n, x)

    def term(s, k, n):
        # S_s^{r_s n}(G_k^(s) E_s), the s-th correction of phi_k
        return power(s, -1, n, compose(b.g_seqs[s - 1][k], targets.e_list[s - 1]))

    want = {}
    for k, n in enumerate(ns):
        df = compose(b.d_seq[k], targets.f)
        for s in (1, 2, 3):
            label = f"norm(S{s}^({r[s - 1]}n) G{s}_k E{s})"
            want.setdefault(label, []).append(op_norm(term(s, k, n)))
        for l in (1, 2, 3):
            row = f"T{l}^(+{r[l - 1]}n)"
            want.setdefault(f"norm({row} D_k F)", []).append(op_norm(power(l, 1, n, df)))
            for s in (1, 2, 3):
                if s != l:
                    label = f"norm({row} S{s}^({r[s - 1]}n) G{s}_k E{s})"
                    value = op_norm(power(l, 1, n, term(s, k, n)))
                    want.setdefault(label, []).append(value)

    assert len(columns) == 20
    assert sum(label.startswith("dist(") for label in columns) == 4
    assert sum(" - P2" in label for label in columns if label.startswith("norm(")) == 4
    assert len(want) == 12
    assert {label: columns[label] for label in want} == want


def test_verified_distances_scale_with_the_targets():
    rng = random.Random(13)
    inst = canonical_instance(m=1, r1=1, k_max=8)
    b = default_bundle(inst)
    f = unit_norm_matrix(rng, 1)
    e1 = unit_norm_matrix(rng, 1)
    e2 = unit_norm_matrix(rng, 1)
    lam = -2.5
    plain = {r.quantity: dict(r.values) for r in
             verify_approximant_convergence(
                 b, TargetTuple(f, (e1, e2), 1), inst, 1e-6)[0]}
    scaled = {r.quantity: dict(r.values) for r in
              verify_approximant_convergence(
                  b, TargetTuple(f * lam, (e1 * lam, e2 * lam), 1), inst, 1e-6)[0]}
    for label, vals in plain.items():
        for k, v in vals.items():
            if v == 0.0:
                assert scaled[label][k] == 0.0
            else:
                assert math.isclose(abs(lam) * v, scaled[label][k], rel_tol=1e-10)


# ---------------------------------------------------------------------------
# bundle serialization


def test_save_load_bundle_round_trip(tmp_path):
    inst = canonical_instance(m=1, r1=1, k_max=5)
    pm = projection_matrix(1)
    f_seq = [pm + unit(3, -2, 2.0**-k) for k in range(1, inst.k_max + 1)]
    b = extract_witnesses(f_seq, inst)
    save_bundle(b, inst.r_list, tmp_path / "bundle")
    loaded, r_list = load_bundle(tmp_path / "bundle")
    assert r_list == inst.r_list
    assert loaded.m == b.m
    assert loaded.n_values == b.n_values
    assert loaded.d_seq == b.d_seq
    assert loaded.g_seqs == b.g_seqs


def test_load_bundle_rejects_tampered_manifest(tmp_path):
    inst = canonical_instance(m=1, r1=1, k_max=3)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "b")
    manifest = tmp_path / "b" / "manifest.txt"
    good = manifest.read_text()

    manifest.write_text(good.replace("opdyn-bundle v1", "opdyn-bundle v2"))
    with pytest.raises(FormatError):
        load_bundle(tmp_path / "b")

    manifest.write_text(good + "mystery 3\n")
    with pytest.raises(FormatError):
        load_bundle(tmp_path / "b")

    manifest.write_text(good.replace("m 1", "m x"))
    with pytest.raises(FormatError):
        load_bundle(tmp_path / "b")


def test_load_bundle_requires_every_witness_file(tmp_path):
    inst = canonical_instance(m=1, r1=1, k_max=3)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "b")
    (tmp_path / "b" / "d_0002.finmat").unlink()
    with pytest.raises(FormatError):
        load_bundle(tmp_path / "b")
