"""Shared builders and exact-arithmetic oracles for the test suite.

The fraction-based helpers recompute weight products with unbounded
precision so that float results produced by the package can be judged
against an independent route.  The dict-based helpers are the per-entry
spelling of the matrix and lattice operations, which the array forms in
the package must reproduce bit for bit.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from opdyn import (
    CriterionInstance,
    FiniteMatrix,
    HorizonExceeded,
    NSeq,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
    WindowExceeded,
    parse_scenario,
)
from opdyn.errors import NonFiniteEntry, OpdynError
from opdyn.finmat import DROP_THRESHOLD
from opdyn.lattice import DEFAULT_HORIZON, _exp

#: Largest index an int64 holds.
INDEX_MAX = (1 << 63) - 1


def w1() -> WeightedShift:
    return WeightedShift(WeightRule.piecewise(2.0, 0.5))


def w2() -> WeightedShift:
    return WeightedShift(WeightRule.piecewise(3.0, 1.0 / 3.0))


def translation(t: int = 1) -> PermutationUnitary:
    return PermutationUnitary.translation(t)


#: Window that the table unitaries of ``table_unitary`` permute: every
#: iterate of an index inside it stays inside, whatever the power.
TABLE_WINDOW = range(-12, 13)


def table_unitary(perm) -> PermutationUnitary:
    """Table permutation sending TABLE_WINDOW[k] to perm[k]."""
    return PermutationUnitary.from_table(dict(zip(TABLE_WINDOW, perm)))


def canonical_instance(m: int = 1, r1: int = 1, k_max: int = 40, **kw) -> CriterionInstance:
    """Two-shift doubling/tripling configuration with exponents (r1, 2 r1)."""
    return CriterionInstance(
        shifts=(w1(), w2()),
        unitary=translation(1),
        r_list=(r1, 2 * r1),
        n_seq=NSeq.all_k(),
        m=m,
        k_max=k_max,
        **kw,
    )


def three_op_instance(m: int = 2, k_max: int = 8) -> CriterionInstance:
    """Three shifts with exponents (1, 2, 3), the third an explicit table: a
    bound row then sums two cross families, so their order shows."""
    text = (
        "opdyn-scenario v1\nname = three\nmode = corollary\nunitary = translation 1\n"
        "weight1 = piecewise 2 1/2\nweight2 = piecewise 3 1/3\n"
        "weight3 = explicit 1.5 -3:2 0:0.25 4:3\nr_list = 1 2 3\n"
        f"m = {m}\nk_max = {k_max}\n"
    )
    return parse_scenario(text).to_instance()


def frac_w1(j: int) -> Fraction:
    return Fraction(2) if j < 0 else Fraction(1, 2)


def frac_w2(j: int) -> Fraction:
    return Fraction(3) if j < 0 else Fraction(1, 3)


def frac_shift_power(weight_fn, n: int, j: int) -> tuple[Fraction, int]:
    """Exact coefficient and landing index of the n-th shift power on e_j."""
    if n >= 0:
        coeff = Fraction(1)
        for i in range(j, j + n):
            coeff *= weight_fn(i)
        return coeff, j + n
    coeff = Fraction(1)
    for i in range(j + n, j):
        coeff *= weight_fn(i)
    return Fraction(1) / coeff, j + n


def frac_chain_norm(factor_specs, m: int) -> tuple[Fraction, int]:
    """Exact sup over basis columns e_j, |j| <= m, of a shift-power product.

    ``factor_specs`` lists (weight_fn, power) left to right; powers apply to
    the vector rightmost first.  Ties resolve to the smallest j.
    """
    best = None
    best_j = None
    for j in range(-m, m + 1):
        coeff = Fraction(1)
        idx = j
        for weight_fn, p in reversed(list(factor_specs)):
            c, idx = frac_shift_power(weight_fn, p, idx)
            coeff *= c
        coeff = abs(coeff)
        if best is None or coeff > best:
            best, best_j = coeff, j
    return best, best_j


def frac_rowcut_norm(factor_specs, m: int) -> Fraction:
    """Exact norm of P_m times a shift-power product: the largest
    coefficient over the start indices whose walk lands in [-m, m].

    ``factor_specs`` lists (weight_fn, power, adjoint) left to right.  An
    adjoint factor (W^p)* sends e_j to e_{j-p} with the coefficient that W^p
    picks up from e_{j-p}.  Every start within reach of the window is
    walked, so the landing set is found by search, not by a displacement.
    """
    reach = sum(abs(p) for _, p, _ in factor_specs)
    best = None
    for j in range(-m - reach, m + reach + 1):
        coeff = Fraction(1)
        idx = j
        for weight_fn, p, adjoint in reversed(list(factor_specs)):
            if adjoint:
                c, _ = frac_shift_power(weight_fn, p, idx - p)
                idx -= p
            else:
                c, idx = frac_shift_power(weight_fn, p, idx)
            coeff *= c
        if -m <= idx <= m and (best is None or coeff > best):
            best = coeff
    return best


def flog(fr: Fraction) -> float:
    """Natural log of a positive fraction without intermediate overflow."""
    return math.log(fr.numerator) - math.log(fr.denominator)


def log_rel_close(value: float, oracle_log: float, tol: float = 1e-10) -> bool:
    """Compare a positive float with an oracle given in the log domain."""
    assert value > 0.0
    return abs(math.log(value) - oracle_log) <= tol * max(1.0, abs(oracle_log))


def log_le(value: float, bound_log: float, tol: float = 1e-10) -> bool:
    """value <= bound in the log domain, with relative slack on the bound."""
    assert value > 0.0
    return math.log(value) <= bound_log + tol * max(1.0, abs(bound_log))


def random_matrix(rng: random.Random, m: int = 2, density: float = 0.6,
                  scale: float = 4.0) -> FiniteMatrix:
    """Dense-ish random matrix supported on the window [-m, m] x [-m, m]."""
    entries = {}
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if rng.random() < density:
                entries[(i, j)] = rng.uniform(-scale, scale)
    if not entries:
        entries[(0, 0)] = 1.0
    return FiniteMatrix(entries)


def unit_norm_matrix(rng: random.Random, m: int) -> FiniteMatrix:
    """Random window matrix scaled to operator norm one."""
    from opdyn import op_norm

    a = random_matrix(rng, m, density=1.0, scale=1.0)
    return a * (1.0 / op_norm(a))


# Report labels, spelled out by hand as an independent check on the labels
# that ``criteria.chain_terms`` builds from family chains.


def pos_label(l: int, r: int, m: int) -> str:
    return f"norm(W{l}^(+{r}n) P{m})"


def neg_label(l: int, r: int, m: int) -> str:
    return f"norm(W{l}^(-{r}n) P{m})"


def cross_label(l: int, rl: int, s: int, rs: int, m: int) -> str:
    return f"norm(W{l}^(+{rl}n) W{s}^(-{rs}n) P{m})"


def _exp_label(r: int, sign: str, star: bool) -> str:
    mark = "*" if star else ""
    return f"({mark}{sign}{r}n)"


def dual_single_label(m: int, l: int, r: int, sign: str, star: bool) -> str:
    return f"norm(P{m} W{l}^{_exp_label(r, sign, star)})"


def dual_cross_label(m: int, s: int, rs: int, l: int, rl: int, star: bool) -> str:
    return (
        f"norm(P{m} W{s}^{_exp_label(rs, '-', star)}"
        f" W{l}^{_exp_label(rl, '+', star)})"
    )


# ---------------------------------------------------------------------------
# Per-entry oracles.  Matrices are dicts keyed by (row, col) in sorted order,
# and every index walks on its own; each helper does the float operations of
# the array form in the order a plain walk meets them.


def outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type, message): lets a test compare an
    operation and its oracle whether or not they raise."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, OpdynError) as exc:
        return type(exc), str(exc)


def dict_canonical(entries) -> dict:
    """What FiniteMatrix(entries) stores: finite floats keyed by int pairs,
    sorted, sub-threshold magnitudes dropped, the first non-finite entry in
    input order rejected."""
    clean = {}
    if entries:
        for (i, j), v in dict(entries).items():
            v = float(v)
            if not math.isfinite(v):
                raise NonFiniteEntry(f"non-finite entry at ({i}, {j})")
            if abs(v) < DROP_THRESHOLD:
                continue
            clean[(int(i), int(j))] = v
    return dict(sorted(clean.items()))


def dict_of(a: FiniteMatrix) -> dict:
    return dict(a.items())


def dict_compose(a: dict, b: dict) -> dict:
    b_rows: dict[int, list[tuple[int, float]]] = {}
    for (i, j), v in b.items():
        b_rows.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], float] = {}
    for (i, k), va in a.items():
        for j, vb in b_rows.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0.0) + va * vb
    return dict_canonical(out)


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0.0) + v
    return dict_canonical(out)


def dict_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0.0) - v
    return dict_canonical(out)


def dict_transport(a: dict, left=None, right=None, *, window_cap: int) -> dict:
    """Entry transport with scalar moves i -> (new index, coefficient).  An
    index is stored as int64, so the cap never lets one past int64."""
    cap = min(window_cap, INDEX_MAX)
    rows = {i: left(i) if left else (i, 1.0) for i in sorted({i for i, _ in a})}
    cols = {j: right(j) if right else (j, 1.0) for j in sorted({j for _, j in a})}
    out: dict[tuple[int, int], float] = {}
    for (i, j), v in a.items():
        (i2, ci), (j2, cj) = rows[i], cols[j]
        if abs(i2) > cap or abs(j2) > cap:
            raise WindowExceeded(f"transported index {(i2, j2)} exceeds window cap {cap}")
        out[(i2, j2)] = v * ci * cj
    return dict_canonical(out)


def dict_shift_chain(a: dict, factors, side: str, *, horizon: int, window_cap: int) -> dict:
    """a multiplied on the given side by the (shift, p) factors, leftmost
    outermost, one factor at a time: the per-product walk that
    ``shift_multiply`` batches.  W^p on the right moves columns as (W*)^p;
    an empty matrix moves no further and checks nothing."""
    for shift, p in reversed(factors) if side == "left" else factors:
        if not a:
            break
        move = scalar_shift_move(shift if side == "left" else shift.star(), p, horizon)
        a = dict_transport(a, **{side: move}, window_cap=window_cap)
    return a


def dict_dense_block(a: dict) -> np.ndarray:
    ri = {r: k for k, r in enumerate(sorted({i for i, _ in a}))}
    ci = {c: k for k, c in enumerate(sorted({j for _, j in a}))}
    block = np.zeros((len(ri), len(ci)))
    for (i, j), v in a.items():
        block[ri[i], ci[j]] = v
    return block


@lru_cache(maxsize=None)
def _log_table(rule: WeightRule):
    # slopes, sorted table indices and prefix sums of the departures from
    # the negative-side slope, rebuilt from the rule's public fields
    if rule.kind == "piecewise":
        slopes, entries = (math.log(rule.neg), math.log(rule.nonneg)), []
    else:
        slopes = (math.log(rule.default),) * 2
        entries = sorted(rule.table)
    prefix = [0.0]
    for _, w in entries:
        prefix.append(prefix[-1] + (math.log(w) - slopes[0]))
    return slopes, [j for j, _ in entries], prefix


def scalar_log_weight_sum(rule: WeightRule, start: int, count: int) -> float:
    """Sum of log w(i) over [start, start + count), one start at a time."""
    if count <= 0:
        return 0.0
    (log_neg, log_nonneg), keys, prefix = _log_table(rule)
    end = start + count
    neg = max(0, min(end, 0) - start)
    return (
        neg * log_neg
        + (count - neg) * log_nonneg
        + (prefix[bisect_left(keys, end)] - prefix[bisect_left(keys, start)])
    )


def scalar_shift_power(shift: WeightedShift, n: int, j: int, horizon: int) -> tuple[int, float]:
    """W^n on e_j, one index at a time: (landing index, log coefficient)."""
    if abs(n) > horizon:
        raise HorizonExceeded(f"shift power {n} exceeds horizon {horizon}")
    start = j - n if shift.adjoint else j
    if n >= 0:
        lg = scalar_log_weight_sum(shift.rule, start, n)
    else:
        lg = -scalar_log_weight_sum(shift.rule, start + n, -n)
    return (start if shift.adjoint else j + n), lg


def scalar_column_cut(factors, m: int, horizon: int) -> tuple[float, int]:
    """Largest log coefficient of the product (rightmost factor first) over
    the starts [-m, m], one start and one factor at a time, and the start
    attaining it; ties keep the smallest start."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    walk = list(reversed(list(factors)))
    best_lg, best_j = -math.inf, -m
    for j in range(-m, m + 1):
        index, lg = j, 0.0
        for shift, p in walk:
            index, step = scalar_shift_power(shift, p, index, horizon)
            lg += step
        if lg > best_lg:
            best_lg, best_j = lg, j
    return best_lg, best_j


def power_at(engine, op, n: int, j: int, horizon: int = DEFAULT_HORIZON):
    """A lattice engine (``shift_power_apply``, ``shift_star_power_apply``,
    ``unitary_power_apply``) on the one-element index array [j], as Python
    scalars: (landing index, log coefficient) for a shift, the landing
    index for a unitary."""
    out = engine(op, n, np.array([j], dtype=np.int64), horizon=horizon)
    return tuple(a.item() for a in out) if isinstance(out, tuple) else out.item()


def cut_at(engine, factors, m: int, horizon: int = DEFAULT_HORIZON) -> tuple[float, int]:
    """The one row of ``monomial_product_norm`` (or its row-cut mirror) on
    int powers, as Python scalars: (log value, attained_at)."""
    lg, at = engine(factors, m, horizon=horizon)
    return lg.item(), at.item()


def step_walk(unitary: PermutationUnitary, n: int, j: int, horizon: int) -> int:
    """pi^n(j) one step per unit of power; a table walk raises as soon as
    an iterate leaves the declared window."""
    if abs(n) > horizon:
        raise HorizonExceeded(f"permutation power {n} exceeds horizon {horizon}")
    if unitary.kind == "translation":
        return j + n * unitary.t
    forward = dict(unitary.table)
    table = forward if n >= 0 else {v: k for k, v in forward.items()}
    cur = j
    for _ in range(abs(n)):
        if cur not in table:
            raise WindowExceeded(f"index {cur} left the declared permutation window")
        cur = table[cur]
    return cur


def scalar_shift_move(shift: WeightedShift, p: int, horizon: int):
    def move(i):
        index, lg = scalar_shift_power(shift, p, i, horizon)
        return index, _exp(lg)

    return move


def scalar_unitary_move(unitary: PermutationUnitary, p: int, horizon: int):
    return lambda i: (step_walk(unitary, p, i, horizon), 1.0)


# ---------------------------------------------------------------------------
# Strategies shared by the oracle tests

#: Values that exercise the drop threshold, underflowing products and
#: overflowing sums as well as ordinary magnitudes.
awkward_values = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([
        0.0, 5e-324, -1e-301, DROP_THRESHOLD, -DROP_THRESHOLD,
        1e-160, -1e-160, 1e200, 1.5e308, -1.5e308,
    ]),
)
#: Lists of entries with negative indices, repeated keys (the last one
#: given wins) and the empty list.
entry_lists = st.lists(
    st.tuples(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), awkward_values
    ),
    max_size=30,
)


@st.composite
def table_unitaries(draw):
    """Table permutations whose orbits are cycles, paths that leave the
    declared window, or both: a permutation of a small window with some
    arrows cut or sent outside the window, or a random partial injection."""
    window = list(range(-6, 7))
    table = dict(zip(window, draw(st.permutations(window))))
    for j in draw(st.lists(st.sampled_from(window), unique=True, max_size=4)):
        del table[j]
    for k, j in enumerate(draw(st.lists(st.sampled_from(window), unique=True, max_size=2))):
        if j in table:
            table[j] = 7 + k
    if draw(st.booleans()):
        src = draw(st.lists(st.integers(-8, 8), unique=True, max_size=14))
        dst = draw(st.lists(st.integers(-10, 10), unique=True,
                            min_size=len(src), max_size=len(src)))
        table = dict(zip(src, dst))
    return PermutationUnitary.from_table(table)


#: Weights of random shifts: short runs of them neither underflow nor
#: overflow.
weight_values = st.floats(min_value=0.25, max_value=4.0)


@st.composite
def weighted_shifts(draw):
    """A plain or adjoint shift with piecewise weights or an explicit table."""
    if draw(st.booleans()):
        rule = WeightRule.piecewise(draw(weight_values), draw(weight_values))
    else:
        table = draw(st.dictionaries(st.integers(-8, 8), weight_values, max_size=6))
        rule = WeightRule.explicit(table, default=draw(weight_values))
    return WeightedShift(rule, adjoint=draw(st.booleans()))


def increasing_r_lists(n_ops: int, top: int):
    """Strictly increasing exponent multipliers r_1 < ... < r_N in [1, top]."""
    return st.sets(
        st.integers(1, top), min_size=n_ops, max_size=n_ops
    ).map(lambda rs: tuple(sorted(rs)))


# ---------------------------------------------------------------------------
# The per-k dual approximant check: verify_dual_convergence one k at a time,
# each eta_k built and moved on its own and paired with one probe at a time.
# The stacked check must reproduce it bit for bit, errors included.


def per_probe_values(rep: FiniteMatrix, probes) -> list[float]:
    """eval_functional of rep with each probe; the first probe whose pairing
    is not finite raises NonFiniteEntry naming it."""
    from opdyn.duality import FunctionalRep, eval_functional

    values = []
    for j, f in enumerate(probes.probes):
        try:
            values.append(eval_functional(FunctionalRep(rep), f))
        except NonFiniteEntry:
            raise NonFiniteEntry(f"non-finite trace pairing with probe {j}") from None
    return values


def per_k_dual_approximant(bundle, psi, phi_list, inst, k: int):
    """eta_k with representer A_psi P_n D_k plus each A_{phi_l} P_n G_k^(l)
    pulled back by family_chain(0, l) at n_k, one term at a time."""
    from opdyn import compose, truncate_left
    from opdyn.criteria import chain_apply, family_chain
    from opdyn.duality import FunctionalRep, dual_apply_power

    n = bundle.n_values[k - 1]
    rep = compose(psi.representer, truncate_left(bundle.d_seq[k - 1], bundle.m))
    for l, (g_seq, phi) in enumerate(zip(bundle.g_seqs, phi_list), start=1):
        inner = FunctionalRep(
            compose(phi.representer, truncate_left(g_seq[k - 1], bundle.m))
        )
        moved = chain_apply(inst, family_chain(0, l), n, inner, power=dual_apply_power)
        rep = rep + moved.representer
    return FunctionalRep(rep)


def per_k_dual_convergence(bundle, psi, phi_list, inst, probes, tol):
    """verify_dual_convergence with a loop over k: every eta_k built, moved
    by each row's chain and measured on its own, probe by probe."""
    from opdyn import trace_norm, truncate_right
    from opdyn.criteria import (
        chain_apply,
        chain_terms,
        family_chain,
        make_report,
        row_families,
    )
    from opdyn.duality import _majorant_norms, dual_apply_power

    ns, n_win = bundle.n_values, bundle.m
    funcs = (psi, *phi_list)
    targets = [per_probe_values(truncate_right(phi.representer, n_win), probes) for phi in funcs]
    tns = [trace_norm(phi.representer) for phi in funcs]
    gaps, fam = _majorant_norms(inst, bundle)
    etas = [
        per_k_dual_approximant(bundle, psi, phi_list, inst, k)
        for k in range(1, bundle.k_max + 1)
    ]
    reports = []
    for t, (target, gap) in enumerate(zip(targets, gaps)):
        vals, bounds, others = [], [], row_families(t, inst.n_ops)
        for k, (n, eta) in enumerate(zip(ns, etas)):
            eta = chain_apply(inst, family_chain(t, 0), n, eta, power=dual_apply_power)
            diffs = [abs(v - w) for v, w in zip(per_probe_values(eta.representer, probes), target)]
            bad = next((j for j, d in enumerate(diffs) if not math.isfinite(d)), None)
            if bad is not None:
                raise NonFiniteEntry(f"non-finite weak-* distance with probe {bad}")
            vals.append(max(diffs))
            bound = tns[t] * gap[k]
            for u, chain in others:
                bound += tns[u] * fam[chain][k]
            bounds.append(bound)
        row = f"{chain_terms(inst, ((t, 1),), 'T')} " if t else ""
        label = f"wstar-dist({row}eta_k - M_P{n_win} {f'phi{t}' if t else 'psi'})"
        reports.append(make_report(label, ns, vals, tol, bounds=bounds))
    return reports, etas


def dict_strong_limit_distance(a: FiniteMatrix, b: FiniteMatrix, window: int) -> float:
    """strong_limit_distance as a walk over the entries of a - b: each
    column's squares summed in row order, the largest root inside the
    window."""
    sq: dict[int, float] = {}
    for (_, j), v in (a - b).items():
        sq[j] = sq.get(j, 0.0) + v * v
    return max((math.sqrt(s) for j, s in sq.items() if abs(j) <= window), default=0.0)


# ---------------------------------------------------------------------------
# The per-k approximant check: verify_approximant_convergence one k at a
# time, each phi_k built, moved and normed as FiniteMatrix values.  The
# stacked check must reproduce it bit for bit, errors included.


def per_k_approximant(bundle, targets, inst, k: int):
    """phi_k = D_k F + sum_l S_l^{r_l n_k}(G_k^(l) E_l), one term at a time,
    with D_k F and the pairs (G_k^(l) E_l, S_l^{r_l n_k}(G_k^(l) E_l))."""
    from opdyn import compose
    from opdyn.criteria import chain_apply, family_chain

    n = bundle.n_values[k - 1]
    df = compose(bundle.d_seq[k - 1], targets.f)
    phi, pairs = df, []
    for l, (g_seq, e) in enumerate(zip(bundle.g_seqs, targets.e_list), start=1):
        ge = compose(g_seq[k - 1], e)
        correction = chain_apply(inst, family_chain(0, l), n, ge)
        pairs.append((ge, correction))
        phi = phi + correction
    return phi, df, pairs


def per_k_approximant_convergence(bundle, targets, inst, tol):
    """verify_approximant_convergence with a loop over k: phi_k built, then
    every row's distance, gap and family norms at that k, through op_norm."""
    from opdyn import compose, op_norm, projection_matrix, truncate_left
    from opdyn.criteria import chain_apply, family_chain, make_report, row_families

    m = bundle.m
    pm = projection_matrix(m)
    rs = list(enumerate(inst.r_list, start=1))
    rows = [""] + [f"T{l}^(+{r}n) " for l, r in rs]
    names = ["F"] + [f"E{l}" for l, _ in rs]
    gap_labels = [f"(D_k - P{m}) F"] + [f"G{l}_k E{l} - P{m} E{l}" for l, _ in rs]
    term_labels = ["D_k F"] + [f"S{l}^({r}n) G{l}_k E{l}" for l, r in rs]
    pms = [truncate_left(x, m) for x in (targets.f, *targets.e_list)]
    phis, columns = [], {}
    for k, n in enumerate(bundle.n_values, start=1):
        phi, df, pairs = per_k_approximant(bundle, targets, inst, k)
        phis.append(phi)
        terms = [df] + [corr for _, corr in pairs]
        for t, (row, pmx) in enumerate(zip(rows, pms)):
            act = family_chain(t, 0)
            dist = op_norm(chain_apply(inst, act, n, phi) - pmx)
            columns.setdefault(f"dist({row}phi_k - P{m} {names[t]})", []).append(dist)
            gap = pairs[t - 1][0] - pmx if t else compose(bundle.d_seq[k - 1] - pm, targets.f)
            columns.setdefault(f"norm({gap_labels[t]})", []).append(op_norm(gap))
            for u, _ in row_families(t, inst.n_ops):
                norm = op_norm(chain_apply(inst, act, n, terms[u]))
                columns.setdefault(f"norm({row}{term_labels[u]})", []).append(norm)
    reports = [make_report(label, bundle.n_values, vals, tol) for label, vals in columns.items()]
    return sorted(reports, key=lambda rep: rep.quantity), phis
