"""Functionals with finite trace representers and their transported images.

A functional here is phi_A(F) = trace(A F) for a finitely supported matrix A.
Composition with a fixed left factor D gives another such functional with
representer A D, and the transpose action of an elementary operator moves the
representer by two-sided transport: for T(F) = W F U the image of phi_A under
the transpose has representer U^p A W^p.  Weak-* convergence statements are
proxied by a finite probe set of unit-norm matrices, which is enough to
separate finite representers but is documented as evidence, not proof.
A ``TestSet`` indexes its probe entries once, as arrays sorted by the
representer position each pairs with, so one search of a representer's
entries in that index pairs it with every probe.

The transpose of an elementary operator is again elementary: trace(A W F U)
= trace(U A W F), so the transpose of F -> W F U is A -> U A W, the same
operator with its orientation flipped.  Scenarios that act by adjoint
weights pass an instance whose shifts are adjoint (``CriterionInstance.
star``); nothing here takes a flag for it.  The right-sided families
||P_m X|| are row cuts.  By the mirror identity ||P_m X|| = ||X* P_m|| each
is the primal column cut of the same family chain on ``inst.star()``, so
``check_dual_sufficient`` is the primal family walk on the adjoint instance.
The dual approximant and its check apply the primal checks' family chains
(``criteria.chain_apply``) with ``dual_apply_power`` as the action: the
pull-back of term l is ``family_chain(0, l)`` and row t ``family_chain(t, 0)``.
``verify_dual_convergence`` builds and moves every eta_k as one
``finmat.MatrixStack`` of k_max copies, with no loop over k, and pairs the
copies with the probes a block at a time; each copy is bit-identical to the
one-copy build ``construct_dual_approximant`` and keeps the first error
its k meets, which the check raises at the end of the phase it is met in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .constructor import WitnessBundle, _approximants
from .criteria import (
    Chain,
    CriterionInstance,
    DecayReport,
    _cut_reports,
    _family_norms,
    chain_apply,
    chain_terms,
    chain_witness,
    family_chain,
    make_report,
    row_families,
    witnesses,
)
from .elementary import ElementaryOp, apply_power
from .errors import NonFiniteEntry
from .finmat import (
    DEFAULT_WINDOW_CAP,
    FiniteMatrix,
    MatrixStack,
    _distinct,
    _matches,
    _note_errors,
    _outside,
    _quiet,
    _raise_least,
    _run_starts,
    compose,
    op_norm,
    projection_matrix,
    trace_norm,
    truncate_left,
    truncate_right,
)
from .lattice import DEFAULT_HORIZON


@dataclass(frozen=True)
class FunctionalRep:
    """phi(F) = trace(representer . F); linear in both arguments.  A
    MatrixStack representer holds K functionals, which ``dual_apply_power``
    moves with one power per copy."""

    representer: FiniteMatrix | MatrixStack


def _fsum(terms) -> float:
    """math.fsum, and nan for a sum past the float range (or inf - inf)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def eval_functional(phi: FunctionalRep, f: FiniteMatrix) -> float:
    """trace(A F) summed over the shared support of A and F."""
    terms = []
    for (p, q), v in phi.representer.items():
        w = f.entry(q, p)
        if w != 0.0:
            terms.append(v * w)
    total = _fsum(terms)
    if not math.isfinite(total):
        raise NonFiniteEntry("non-finite trace pairing")
    return total


def m_d(phi: FunctionalRep, d: FiniteMatrix) -> FunctionalRep:
    """Composition with the fixed left factor D: F maps to phi(D F), whose
    representer is A D."""
    return FunctionalRep(compose(phi.representer, d))


def dual_apply_power(
    op: ElementaryOp,
    p: int | Sequence[int],
    phi: FunctionalRep,
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> FunctionalRep:
    """Transpose action of op^p on the functional.

    For T(F) = W F U the representer moves to U^p A W^p; negative p gives the
    transposed inverse.  The mirrored orientation U F W moves it to W^p A U^p.
    Either way it is op^p with the orientation flipped.  On a stack of
    representers, p lists one power per copy (see ``apply_power``).
    """
    flipped = replace(op, orientation="UFW" if op.orientation == "WFU" else "WFU")
    kwargs = dict(horizon=horizon, window_cap=window_cap)
    return FunctionalRep(apply_power(flipped, p, phi.representer, **kwargs))


@dataclass(frozen=True)
class TestSet:
    """Fixed finite family of probe matrices with operator norm at most 1."""

    # not a unit-test container, despite what the name suggests to pytest
    __test__ = False

    probes: tuple[FiniteMatrix, ...]
    # The probe entries F[q, p], sorted by the representer position (p, q)
    # each pairs with under trace(A F): the distinct p and the distinct q,
    # then per entry its (p, q) as a pair of ranks among them, its value and
    # its probe number.  Ranks keep the packed key exact for any int64.
    _pairing: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.probes:
            raise ValueError("probe set must be nonempty")
        for mat in self.probes:
            # a one-entry probe's norm is |value|, as op_norm finds it
            norm = abs(float(mat._vals[0])) if mat.nnz == 1 else op_norm(mat)
            if norm > 1.0 + 1e-12:
                raise ValueError("probe operator norm exceeds 1")
        mats = self.probes
        ps, at_p = _distinct(np.concatenate([mat._cols for mat in mats]))
        qs, at_q = _distinct(np.concatenate([mat._rows for mat in mats]))
        key = at_p * len(qs) + at_q
        number = np.repeat(np.arange(len(mats)), [mat.nnz for mat in mats])
        order = np.lexsort((number, key))
        vals = np.concatenate([mat._vals for mat in mats])
        pairing = (ps, qs, key[order], vals[order], number[order])
        object.__setattr__(self, "_pairing", pairing)


def default_probes(m: int) -> TestSet:
    """P_0..P_m followed by every matrix unit on the window, in fixed order."""
    probes = [projection_matrix(j) for j in range(m + 1)]
    window, one = np.arange(-m, m + 1), np.ones(1)
    probes.extend(
        FiniteMatrix._of(window[a : a + 1], window[b : b + 1], one)
        for a in range(2 * m + 1)
        for b in range(2 * m + 1)
    )
    return TestSet(probes=tuple(probes))


@_quiet
def _pairings(reps: MatrixStack, probes: TestSet) -> np.ndarray:
    """The (copies, probes) array of the probe values of every copy, from
    one pairing of all representer entries with every probe.  Each value is
    the fsum of the products eval_functional sums, in its order, so it is
    bit-identical; a one-term sum is its term plus 0.0, which is what fsum
    returns for it (-0.0 included).  A value past the float range is left
    non-finite for the caller to report."""
    ps, qs, keys, weights, number = probes._pairing
    width = len(probes.probes)
    rp, rq = ps.searchsorted(reps._rows), qs.searchsorted(reps._cols)
    hit = ps.searchsorted(reps._rows, "right") > rp
    hit &= qs.searchsorted(reps._cols, "right") > rq
    at, pair = _matches(keys, (rp * len(qs) + rq)[hit])
    terms = reps._vals[hit][at] * weights[pair]
    k = reps._copies()[hit][at] * width + number[pair]
    one = np.bincount(k, minlength=reps.count * width)[k] == 1
    values = np.zeros(reps.count * width)
    values[k[one]] = terms[one] + 0.0
    if not one.all():
        # each probe's terms in representer order, as eval_functional has them
        order = np.argsort(k[~one], kind="stable")
        k, terms = k[~one][order], terms[~one][order].tolist()
        starts = np.flatnonzero(_run_starts(k)).tolist()
        for j, lo, hi in zip(k[starts].tolist(), starts, starts[1:] + [len(terms)]):
            values[j] = _fsum(terms[lo:hi])
    return values.reshape(reps.count, width)


def _probe_array(phi: FunctionalRep, probes: TestSet) -> np.ndarray:
    """The probe values of phi; a value that is not finite raises
    NonFiniteEntry at the first such probe, whose eval_functional raises."""
    (values,) = _pairings(MatrixStack.of([phi.representer]), probes)
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteEntry(f"non-finite trace pairing with probe {np.argmin(finite)}")
    return values


#: Probe values paired at once: ``_distances`` pairs as many copies as fit,
#: so its (copies, probes) arrays stay small at any window m.
_PAIRED_CELLS = 1 << 14


@_quiet
def _distances(reps: MatrixStack, target: np.ndarray, probes: TestSet) -> list[float]:
    """weak_star_distance of every copy to a functional given by its probe
    values, pairing a block of copies at a time (one copy at least, else
    at most _PAIRED_CELLS probe values).  A copy's error is the one the
    stack holds (met before its pairing), else NonFiniteEntry at its first
    non-finite probe value or difference, a pairing before a difference;
    the least copy that has one raises it."""
    step = max(1, _PAIRED_CELLS // len(probes.probes))
    dists, errors = [], _note_errors({}, reps)  # met before the pairings
    for lo in range(0, reps.count, step):
        diff = _pairings(reps.take(range(lo, min(lo + step, reps.count))), probes)
        paired = np.isfinite(diff)
        diff -= target
        np.abs(diff, out=diff)
        finite = np.isfinite(diff)
        for k in np.flatnonzero(~finite.all(axis=1)).tolist():
            what, at = ("trace pairing", paired[k]) if not paired[k].all() else ("weak-* distance", finite[k])
            errors.setdefault(lo + k, NonFiniteEntry(f"non-finite {what} with probe {np.argmin(at)}"))
        dists += diff.max(axis=1).tolist()
    _raise_least(errors)
    return dists


def weak_star_distance(
    phi: FunctionalRep, psi: FunctionalRep, probes: TestSet
) -> float:
    target = _probe_array(psi, probes)
    return _distances(MatrixStack.of([phi.representer]), target, probes)[0]


@_quiet
def strong_limit_distance(a: FiniteMatrix, b: FiniteMatrix, window: int) -> float:
    """max over basis vectors e_j, |j| <= window, of the column norm of
    (a - b) e_j; the finite proxy for strong convergence on the window.
    Each column sums its squares from 0.0 in row order."""
    diff = a - b
    cols, at = _distinct(diff._cols)
    squares = np.bincount(at, weights=diff._vals * diff._vals, minlength=len(cols))
    inside = squares[~_outside(cols, window)]
    return float(np.sqrt(inside).max()) if len(inside) else 0.0


def dual_label(inst: CriterionInstance, chain: Chain) -> str:
    """Label of the right-sided mirror of a family: the reversed chain cut
    by P_m on the left."""
    return f"norm(P{inst.m} {chain_terms(inst, chain[::-1])})"


def check_dual_sufficient(inst: CriterionInstance, tol: float) -> list[DecayReport]:
    """Right-sided projected norms ||P_m W_l^{+r_l n}||, ||P_m W_l^{-r_l n}||
    and ||P_m W_s^{-r_s n} W_l^{+r_l n}|| along n_k; pass ``inst.star()``
    when the scenario acts by adjoints.

    Joint decay is the sufficient condition for the transposed operator
    tuple to mix finite-representer functionals.  Each family is the primal
    column cut of the same chain on ``inst.star()``.
    """
    return _cut_reports(inst.star(), lambda chain: dual_label(inst, chain), tol)


def check_dual_witness_conditions(
    inst: CriterionInstance,
    bundle: WitnessBundle,
    tol: float,
) -> list[DecayReport]:
    """Right-sided decay on explicit witnesses, plus the strong-convergence
    proxy distances of D_k and G_k^(l) to P_n (n = the bundle window).

    The families are ||D_k W_l^{+r_l n_k}||, ||G_k^{(l)} W_l^{-r_l n_k}|| and
    ||G_k^{(s)} W_s^{-r_s n_k} W_l^{+r_l n_k}||: each mirrors its primal
    family and pairs with the same witness.
    """
    return _dual_witness_conditions(inst, bundle, tol)[0]


def _dual_witness_conditions(inst: CriterionInstance, bundle: WitnessBundle, tol: float):
    """check_dual_witness_conditions' reports, and the right-sided witness
    families they measure (``_family_norms``), which verify_dual_convergence
    can take instead of walking them again."""
    ns = inst.n_values()
    if bundle.n_values != ns:
        raise ValueError("bundle iterates disagree with the instance")
    if bundle.n_ops != inst.n_ops:
        raise ValueError("bundle operator count disagrees with the instance")
    n_win = bundle.m
    pn = projection_matrix(n_win)
    reports = []
    for name, seq in witnesses(bundle.d_seq, bundle.g_seqs):
        vals = [strong_limit_distance(a, pn, n_win) for a in seq]
        reports.append(make_report(f"slim-dist({name} - P{n_win})", ns, vals, tol))

    norms = _family_norms(inst, ns, bundle.d_seq, bundle.g_seqs, "right")
    for chain, vals in norms.items():
        witness, _ = chain_witness(chain, bundle.d_seq, bundle.g_seqs)
        label = f"norm({witness} {chain_terms(inst, chain[::-1])})"
        reports.append(make_report(label, ns, vals, tol))
    return sorted(reports, key=lambda rep: rep.quantity), norms


def _pull_back(op, p, x, **kwargs):
    # dual_apply_power on a stack of representers
    return dual_apply_power(op, p, FunctionalRep(x), **kwargs).representer


def _dual_approximants(
    bundle: WitnessBundle,
    psi: FunctionalRep,
    phi_list: Sequence[FunctionalRep],
    inst: CriterionInstance,
    ks: Sequence[int],
) -> MatrixStack:
    """The representers of eta_k for every k in ks, copy i for ks[i], as one
    stack: A_psi P_n D_k plus, for each l, A_{phi_l} P_n G_k^(l) pulled back
    by family_chain(0, l) at n_k.  It is the primal build
    (``constructor._approximants``) with the cut witness on the right and
    the transpose action, so each copy is the walk of its k alone."""
    if len(phi_list) != inst.n_ops or bundle.n_ops != inst.n_ops:
        raise ValueError("phi_list, bundle and instance disagree on N")
    reps = [phi.representer for phi in (psi, *phi_list)]

    def product(u, a):
        return compose(reps[u], truncate_left(a, bundle.m))

    return _approximants(bundle, inst, ks, product, power=_pull_back)[0]


def construct_dual_approximant(
    bundle: WitnessBundle,
    psi: FunctionalRep,
    phi_list: Sequence[FunctionalRep],
    inst: CriterionInstance,
    k: int,
) -> FunctionalRep:
    """eta_k with representer A_psi P_n D_k + sum_l of the transported
    A_{phi_l} P_n G_k^(l) pulled back by the inverse transpose powers: the
    one-copy case of the stacked build."""
    (rep,) = _dual_approximants(bundle, psi, phi_list, inst, [k]).split()
    return FunctionalRep(rep)


def _majorant_norms(inst: CriterionInstance, bundle: WitnessBundle, families=None):
    """The norms in verify_dual_convergence's bound column, on the witnesses
    cut by P_n: the gap ||P_n A_k - P_n|| along k of each term's witness
    A_k (D_k, then G_k^(l)), and the right-sided witness families.  The cut
    witnesses are not kept.  When every witness has its rows in [-n, n],
    it is its own cut, and ``families``, the witnesses' families when
    given, are taken as they are."""
    pn, prev = projection_matrix(bundle.m), None

    def cut(a):
        # one cut and one gap ||P_n A - P_n|| per run of equal witnesses (one
        # object or equal matrices, as _family_norms groups them) over D_k,
        # then each G_k^(l); _family_norms moves the shared cut once
        nonlocal prev
        if prev is None or not (a is prev[0] or a == prev[0]):
            pna = truncate_left(a, bundle.m)
            prev = a, pna, op_norm(pna - pn)
        return prev[1:]

    seqs = witnesses(bundle.d_seq, bundle.g_seqs)
    cuts = [[cut(a) for a in seq] for _, seq in seqs]
    d_cut, *g_cuts = [[a for a, _ in seq] for seq in cuts]
    # the cut only drops entries: a witness that keeps them all is its cut
    if families is None or not all(
        a.nnz == pna.nnz for (_, seq), row in zip(seqs, cuts) for a, (pna, _) in zip(seq, row)
    ):
        families = _family_norms(inst, bundle.n_values, d_cut, g_cuts, "right")
    return [[gap for _, gap in seq] for seq in cuts], families


def verify_dual_convergence(
    bundle: WitnessBundle,
    psi: FunctionalRep,
    phi_list: Sequence[FunctionalRep],
    inst: CriterionInstance,
    probes: TestSet,
    tol: float,
    witness_families: dict | None = None,
) -> tuple[list[DecayReport], list[FunctionalRep]]:
    """Weak-* distances of eta_k to its targets along k, with termwise
    trace-norm bounds, and the eta_k representers themselves.

    The bound column majorizes each probe distance: probe norms are at most
    one, the functional norm of a representer is at most its trace norm, and
    right factors split off at operator norm.  What remains of each term is
    a dual witness family on the witnesses cut by P_n.  ``witness_families``
    are the families check_dual_witness_conditions measured on the uncut
    witnesses, if the caller has them: when every witness is its own cut,
    they are not walked again.

    Every eta_k is built and moved as one stack of k_max copies, with no
    loop over k, and paired with the probes by ``_distances``.  Each copy
    keeps the first error its k meets.  The walk over k builds every eta_k,
    then moves and pairs them row by row, so the check raises the least
    failed copy's error at the end of the build and of each row.
    """
    ns = tuple(bundle.n_values)
    n_win = bundle.m

    # Row t measures eta_k against psi (t = 0) or, moved by the transpose of
    # T_t^{+r_t n_k}, against phi_t.  Targets enter only through their probe
    # values, so those are taken once.  The representer of phi(P_n F) is A P_n.
    funcs = (psi, *phi_list)
    targets = [
        _probe_array(FunctionalRep(truncate_right(phi.representer, n_win)), probes)
        for phi in funcs
    ]
    tns = [trace_norm(phi.representer) for phi in funcs]
    gaps, fam = _majorant_norms(inst, bundle, witness_families)
    etas = FunctionalRep(_dual_approximants(bundle, psi, phi_list, inst, range(1, bundle.k_max + 1)))
    reps = etas.representer.split()  # the build's least failed copy raises
    vals = []
    for t, target in enumerate(targets):
        moved = chain_apply(inst, family_chain(t, 0), ns, etas, power=dual_apply_power)
        vals.append(_distances(moved.representer, target, probes))

    reports = []
    for t, gap in enumerate(gaps):
        bounds = [tns[t] * g for g in gap]
        for u, chain in row_families(t, inst.n_ops):
            bounds = [b + tns[u] * f for b, f in zip(bounds, fam[chain])]
        row = f"{chain_terms(inst, ((t, 1),), 'T')} " if t else ""
        label = f"wstar-dist({row}eta_k - M_P{n_win} {f'phi{t}' if t else 'psi'})"
        reports.append(make_report(label, ns, vals[t], tol, bounds=bounds))
    return reports, [FunctionalRep(rep) for rep in reps]
