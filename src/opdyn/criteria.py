"""Decay criteria for tuples of elementary operators built from shifts.

The checkers evaluate families of projected norm quantities along a strictly
increasing iterate sequence n_k and classify each family:

* ``decays-below(tol, at k)``: some k exists from which every later value
  stays strictly below tol through k_max;
* ``inconclusive``: no such k, but the fitted log-slope is negative (the
  family looks like it decays, just not yet below tol);
* ``fails``: no such k and no negative trend.

A least-squares slope of log(value) against n_k is attached to every report
so borderline cases can be judged by a human rather than by the verdict enum
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .elementary import ElementaryOp, apply_power
from .errors import HorizonExceeded, OpdynError
from .finmat import (
    DEFAULT_WINDOW_CAP,
    FiniteMatrix,
    MatrixStack,
    op_norm,
    projection_matrix,
    shift_multiply,
    truncate_left,
    truncate_right,
)
from .lattice import (
    DEFAULT_HORIZON,
    PermutationUnitary,
    WeightedShift,
    _exp,
    monomial_product_norm,
)

DEFAULT_TOL = 1e-6
DEFAULT_K_MAX = 50

#: Slack allowed when measured norms are compared with their monomial upper
#: bounds: relative, for values far from 1, plus absolute, for values near 0.
BOUND_RTOL = 1e-12
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class NSeq:
    """Strictly increasing iterate sequence rule n_k, k = 1, 2, ...

    ``all-k`` is n_k = k; ``arithmetic`` is n_k = a + (k-1) b; ``explicit``
    stores the values outright.
    """

    kind: str
    a: int = 1
    b: int = 1
    values: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "all-k":
            return
        if self.kind == "arithmetic":
            if self.a < 1 or self.b < 1:
                raise ValueError("arithmetic rule needs a >= 1 and b >= 1")
            return
        if self.kind == "explicit":
            vals = self.values
            if not vals or any(v < 1 for v in vals):
                raise ValueError("explicit sequence must list positive integers")
            if any(y <= x for x, y in zip(vals, vals[1:])):
                raise ValueError("explicit sequence must be strictly increasing")
            return
        raise ValueError(f"unknown n_seq kind {self.kind!r}")

    @staticmethod
    def all_k() -> "NSeq":
        return NSeq(kind="all-k")

    @staticmethod
    def arithmetic(a: int, b: int) -> "NSeq":
        return NSeq(kind="arithmetic", a=int(a), b=int(b))

    @staticmethod
    def explicit(values) -> "NSeq":
        return NSeq(kind="explicit", values=tuple(int(v) for v in values))

    def value(self, k: int) -> int:
        if k < 1:
            raise ValueError("k is 1-based")
        if self.kind == "all-k":
            return k
        if self.kind == "arithmetic":
            return self.a + (k - 1) * self.b
        if k > len(self.values):
            raise ValueError(f"explicit sequence has no k={k}")
        return self.values[k - 1]


@dataclass(frozen=True)
class CriterionInstance:
    """One concrete decay-check configuration.

    ``shifts`` and ``r_list`` pair up: operator l acts with exponent
    r_l * n_k.  ``m`` selects the window projection P_m.  A single shift is
    allowed so that closed-form one-operator scenarios can reuse the same
    plumbing; the cross-term families are simply empty in that case.
    """

    shifts: tuple[WeightedShift, ...]
    unitary: PermutationUnitary
    r_list: tuple[int, ...]
    n_seq: NSeq
    m: int
    k_max: int = DEFAULT_K_MAX
    horizon: int = DEFAULT_HORIZON
    window_cap: int = DEFAULT_WINDOW_CAP
    orientation: str = "WFU"

    def __post_init__(self):
        if not self.shifts:
            raise ValueError("need at least one shift")
        if len(self.r_list) != len(self.shifts):
            raise ValueError("r_list must pair with shifts")
        if any(r < 1 for r in self.r_list):
            raise ValueError("exponent multipliers must be positive")
        if any(y <= x for x, y in zip(self.r_list, self.r_list[1:])):
            raise ValueError("r_list not strictly increasing")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")

    @property
    def n_ops(self) -> int:
        return len(self.shifts)

    def n_values(self) -> tuple[int, ...]:
        return tuple(self.n_seq.value(k) for k in range(1, self.k_max + 1))

    def star(self) -> "CriterionInstance":
        """The same instance with every shift replaced by its adjoint."""
        return replace(self, shifts=tuple(w.star() for w in self.shifts))

    def elementary_ops(self) -> tuple[ElementaryOp, ...]:
        return tuple(
            ElementaryOp(self.unitary, w, self.orientation) for w in self.shifts
        )


@dataclass(frozen=True)
class Verdict:
    kind: str  # "decays-below" | "fails" | "inconclusive"
    tol: float
    attained_k: int | None = None

    def render(self) -> str:
        if self.kind == "decays-below":
            return f"decays-below({self.tol!r} at k={self.attained_k})"
        return self.kind


@dataclass(frozen=True)
class DecayReport:
    """Values of one quantity along k, with verdict and fitted log-slope."""

    quantity: str
    values: tuple[tuple[int, float], ...]
    n_values: tuple[int, ...]
    verdict: Verdict
    fitted_rate: float | None
    bounds: tuple[tuple[int, float], ...] | None = None


def _fit_rate(ns: Sequence[int], vals: Sequence[float]) -> float | None:
    pts = [(float(n), math.log(v)) for n, v in zip(ns, vals) if v > 0.0]
    if len(pts) < 2:
        return None
    xbar = math.fsum(x for x, _ in pts) / len(pts)
    ybar = math.fsum(y for _, y in pts) / len(pts)
    sxx = math.fsum((x - xbar) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in pts)
    return sxy / sxx


def _verdict_for(vals: Sequence[float], tol: float, rate: float | None) -> Verdict:
    last_at_or_above = 0
    for idx, v in enumerate(vals, start=1):
        if v >= tol:
            last_at_or_above = idx
    if last_at_or_above < len(vals):
        return Verdict("decays-below", tol, attained_k=last_at_or_above + 1)
    if rate is not None and rate < 0.0:
        return Verdict("inconclusive", tol)
    return Verdict("fails", tol)


def make_report(
    quantity: str,
    ns: Sequence[int],
    vals: Sequence[float],
    tol: float,
    bounds: Sequence[float] | None = None,
) -> DecayReport:
    rate = _fit_rate(ns, vals)
    return DecayReport(
        quantity=quantity,
        values=tuple((k, v) for k, v in enumerate(vals, start=1)),
        n_values=tuple(ns),
        verdict=_verdict_for(vals, tol, rate),
        fitted_rate=rate,
        bounds=tuple((k, b) for k, b in enumerate(bounds, start=1))
        if bounds is not None
        else None,
    )


def all_decay(reports: Iterable[DecayReport]) -> bool:
    return all(r.verdict.kind == "decays-below" for r in reports)


#: A decay family as (operator, sign) factors, leftmost outermost.  Operator
#: l (1-based) enters with exponent sign * r_l * n.
Chain = tuple[tuple[int, int], ...]


def family_chain(row: int, term: int) -> Chain:
    """The decay family that bounds approximant term ``term`` in row ``row``
    of the triangle inequality.  Row 0 is the identity and row l the
    operator T_l^{+r_l n}; term 0 is the D_k term and term l the G_k^{(l)}
    term, which enters pulled back by T_l^{-r_l n}.  So row 0 with term l is
    W_l^{-}, row l with term 0 is W_l^{+}, and row l with term s is the
    cross chain W_l^{+} W_s^{-}."""
    return ((row, 1),) * (row > 0) + ((term, -1),) * (term > 0)


def row_families(row: int, n_ops: int) -> list[tuple[int, Chain]]:
    """Every term u other than ``row``, ascending, with family_chain(row, u):
    an approximant check bounds row ``row`` by its own gap plus these."""
    return [(u, family_chain(row, u)) for u in range(n_ops + 1) if u != row]


def family_chains(n_ops: int) -> list[Chain]:
    """The decay families of an n_ops-tuple, in construction order:
    W_l^{+} and W_l^{-} for every l, then the cross term W_l^{+} W_s^{-} for
    every ordered pair l != s.  Reports are sorted by label afterwards."""
    ops = range(1, n_ops + 1)
    singles = [family_chain(*pair) for l in ops for pair in ((l, 0), (0, l))]
    crosses = [family_chain(l, s) for l in ops for s in ops if s != l]
    return singles + crosses


def chain_factors(
    inst: CriterionInstance, chain: Chain, n: int
) -> tuple[tuple[WeightedShift, int], ...]:
    """The (shift, power) factors of a chain at iterate n."""
    return tuple(
        (inst.shifts[l - 1], sign * inst.r_list[l - 1] * n) for l, sign in chain
    )


def chain_apply(inst: CriterionInstance, chain: Chain, n, x, power=None):
    """x under the chain at iterate n, rightmost factor first: factor (l, sign)
    is power(T_l, sign * r_l * n, x).  ``power`` is ``apply_power``, or
    ``duality.dual_apply_power`` for the transposed action on functionals.
    On a stack of copies, n is a tuple with the iterate of each copy, and
    each factor is one call with the list of the copies' powers."""
    # looked up per call, so a rebinding of criteria.apply_power is seen
    power = power or apply_power
    ops = inst.elementary_ops()
    for l, sign in reversed(chain):
        r = sign * inst.r_list[l - 1]
        p = [r * v for v in n] if isinstance(n, tuple) else r * n
        x = power(ops[l - 1], p, x, horizon=inst.horizon, window_cap=inst.window_cap)
    return x


def chain_terms(inst: CriterionInstance, chain: Chain, letter: str = "W") -> str:
    """Label terms of a chain, e.g. ``W1^(+1n) W2^(-2n)``; a factor whose
    shift is adjoint is marked as ``W1^(*+1n)``."""
    return " ".join(
        f"{letter}{l}^({'*' if inst.shifts[l - 1].adjoint else ''}"
        f"{'+' if sign > 0 else '-'}{inst.r_list[l - 1]}n)"
        for l, sign in chain
    )


def witnesses(
    d_seq: Sequence[FiniteMatrix], g_seqs: Sequence[Sequence[FiniteMatrix]]
) -> list[tuple[str, Sequence[FiniteMatrix]]]:
    """The witness of each approximant term with its label: D_k for term 0,
    then G_k^{(l)} for term l."""
    return [("D_k", d_seq)] + [(f"G{l}_k", g) for l, g in enumerate(g_seqs, start=1)]


def chain_witness(
    chain: Chain,
    d_seq: Sequence[FiniteMatrix],
    g_seqs: Sequence[Sequence[FiniteMatrix]],
) -> tuple[str, Sequence[FiniteMatrix]]:
    """Label and sequence of the witness a chain acts on: D_k when the
    innermost sign is +, otherwise G_k^{(l)} of the innermost operator l."""
    l, sign = chain[-1]
    return witnesses(d_seq, g_seqs)[l if sign < 0 else 0]


def equal_runs(seq: Sequence[FiniteMatrix]) -> list[int]:
    """The start of each run of consecutive members that are one object or
    equal matrices (a loaded bundle holds one object per k), and len(seq)."""
    starts = [0] if len(seq) else []
    for k in range(1, len(seq)):
        if not (seq[k] is seq[starts[-1]] or seq[k] == seq[starts[-1]]):
            starts.append(k)
    return starts + [len(seq)]


def _family_norms(inst, ns, d_seq, g_seqs, side) -> dict[Chain, list[float]]:
    """||X A_k|| along k for every family chain, X the chain at n_k and A_k
    the witness it pairs with; on the ``right`` side the mirrored family
    ||A_k X'||, X' the reversed chain.

    Each run of equal witnesses (``equal_runs``) is one ``shift_multiply``
    call, whose products are measured as one stack; an error in it is the
    first error of the least failed k of the run.  The runs go in k order,
    so the first error raised is the one a walk over k meets first."""
    kw = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    norms = {}
    for chain in family_chains(inst.n_ops):
        walk = chain if side == "left" else chain[::-1]
        _, seq = chain_witness(chain, d_seq, g_seqs)
        # each factor's shift, with its power at every iterate
        per_n = zip(*[chain_factors(inst, walk, n) for n in ns])
        factors = [(f[0][0], [p for _, p in f]) for f in per_n]
        vals, runs = [], equal_runs(seq)
        for start, stop in zip(runs, runs[1:]):
            run = [(shift, ps[start:stop]) for shift, ps in factors]
            vals += MatrixStack.of(shift_multiply(seq[start], run, side, **kw)).op_norms()
        norms[chain] = vals
    return norms


def sufficient_label(inst: CriterionInstance, chain: Chain) -> str:
    return f"norm({chain_terms(inst, chain)} P{inst.m})"


def _family_cuts(
    inst: CriterionInstance, ns: Sequence[int]
) -> dict[Chain, list[float]]:
    """The column cut log ||X P_m|| of every family chain X at each iterate
    n, one walk per chain over all its iterates.  On ``inst.star()`` the
    chain is X'* for X' the reversed chain of ``inst``, so this is the
    mirrored family ||P_m X'|| = ||X'* P_m||."""
    h, powers = inst.horizon, {}
    for l, r in enumerate(inst.r_list, start=1):
        for sign in (1, -1):
            ps = [sign * r * n for n in ns]
            # family_chains lists W_l^{+}, W_l^{-} in this order before the
            # cross chains built from them, so a walk one iterate at a time
            # meets an over-horizon power here first; checking the Python
            # ints keeps a huge one from overflowing int64
            over = next((p for p in ps if abs(p) > h), None)
            if over is not None:
                raise HorizonExceeded(f"shift power {over} exceeds horizon {h}")
            powers[l, sign] = np.array(ps, dtype=np.int64)
    cuts = {}
    for chain in family_chains(inst.n_ops):
        factors = [(inst.shifts[l - 1], powers[l, sign]) for l, sign in chain]
        cuts[chain] = monomial_product_norm(factors, inst.m, horizon=h)[0].tolist()
    return cuts


def _cut_reports(walked: CriterionInstance, label, tol: float) -> list[DecayReport]:
    """Reports of the family cuts of ``walked``, each labelled label(chain)."""
    ns = walked.n_values()
    reports = [
        make_report(label(chain), ns, list(map(_exp, logs)), tol)
        for chain, logs in _family_cuts(walked, ns).items()
    ]
    return sorted(reports, key=lambda r: r.quantity)


def sufficient_decay_logs(
    inst: CriterionInstance, n: int
) -> list[tuple[str, float]]:
    """Log-domain values of every sufficient-condition quantity at iterate n."""
    return [
        (sufficient_label(inst, chain), lg)
        for chain, (lg,) in _family_cuts(inst, (n,)).items()
    ]


def check_sufficient_decay(
    inst: CriterionInstance, tol: float = DEFAULT_TOL
) -> list[DecayReport]:
    """Projected weight-product norms whose joint decay is the sufficient
    condition for dense joint approximation: ||W_l^{+r_l n_k} P_m||,
    ||W_l^{-r_l n_k} P_m|| and both ordered cross products."""
    return _cut_reports(inst, lambda chain: sufficient_label(inst, chain), tol)


def check_witness_conditions(
    inst: CriterionInstance,
    d_seq: Sequence[FiniteMatrix],
    g_seqs: Sequence[Sequence[FiniteMatrix]],
    tol: float = DEFAULT_TOL,
) -> list[DecayReport]:
    """Decay conditions on explicit witness sequences D_k, G_k^{(l)}.

    Reports ||D_k - P_m||, ||G_k^{(l)} - P_m||, ||W_l^{+r_l n_k} D_k||,
    ||W_l^{-r_l n_k} G_k^{(l)}|| and the ordered cross family
    ||W_l^{+r_l n_k} W_s^{-r_s n_k} G_k^{(s)}||.  With every witness equal to
    P_m these reduce exactly to the sufficient-decay quantities.
    """
    ns = inst.n_values()
    if len(d_seq) != len(ns):
        raise ValueError("d_seq must have k_max members")
    if len(g_seqs) != inst.n_ops or any(len(g) != len(ns) for g in g_seqs):
        raise ValueError("g_seqs must be n_ops sequences of k_max members")
    pm = projection_matrix(inst.m)
    reports = []
    for name, seq in witnesses(d_seq, g_seqs):
        vals = [op_norm(a - pm) for a in seq]
        reports.append(make_report(f"norm({name} - P{inst.m})", ns, vals, tol))
    for chain, vals in _family_norms(inst, ns, d_seq, g_seqs, "left").items():
        witness, _ = chain_witness(chain, d_seq, g_seqs)
        label = f"norm({chain_terms(inst, chain)} {witness})"
        reports.append(make_report(label, ns, vals, tol))
    return sorted(reports, key=lambda r: r.quantity)


def check_pointwise_decay(
    inst: CriterionInstance,
    seeds: Sequence[FiniteMatrix],
    tol: float = DEFAULT_TOL,
) -> list[DecayReport]:
    """Orbit decay of the operators themselves on truncated seeds.

    For each seed F the families ||T_l^{+r_l n_k}(S)||, ||T_s^{-r_s n_k}(S)||
    and ||T_l^{+r_l n_k} T_s^{-r_s n_k}(S)|| are measured and checked against
    the corresponding projected weight-product bound times ||F||; a violation
    raises, since it would mean the transport and the closed-form norms
    disagree.  Under WFU the shifts multiply the seed S = P_m F on the left,
    and the bound is ||W_l^p W_s^q P_m||; under UFW they multiply S = F P_m
    on the right, and the bound is ||P_m W_s^q W_l^p||.
    """
    ns = inst.n_values()
    ufw = inst.orientation == "UFW"
    # the UFW bound ||P_m W_s^q W_l^p|| is the chain's column cut on inst.star()
    bound_cuts = _family_cuts(inst.star() if ufw else inst, ns)
    reports = []
    for idx, f in enumerate(seeds):
        if ufw:
            f_cut, seed = truncate_right(f, inst.m), f"F{idx} P{inst.m}"
        else:
            f_cut, seed = truncate_left(f, inst.m), f"P{inst.m} F{idx}"
        f_norm = op_norm(f)
        for chain, logs in bound_cuts.items():
            label = f"norm({chain_terms(inst, chain, 'T')} {seed})"
            vals, bounds = [], []
            for n, lg in zip(ns, logs):
                value = op_norm(chain_apply(inst, chain, n, f_cut))
                bound = _exp(lg) * f_norm
                if value > bound * (1.0 + BOUND_RTOL) + BOUND_SLACK:
                    raise OpdynError(
                        f"{label}: measured {value} exceeds bound {bound}"
                    )
                vals.append(value)
                bounds.append(bound)
            reports.append(make_report(label, ns, vals, tol, bounds=bounds))
    return sorted(reports, key=lambda r: r.quantity)


def search_subsequence(
    inst: CriterionInstance,
    candidate_pool: Sequence[int],
    target_count: int,
    tol: float = DEFAULT_TOL,
) -> tuple[int, ...] | None:
    """Greedy pick of iterates whose sufficient-decay quantities beat a
    halving schedule tol * 2^{-k}; None when the pool is exhausted first.

    Comparison happens in the log domain so underflowing quantities still
    qualify.
    """
    if target_count < 1:
        raise ValueError("target_count must be positive")
    chosen: list[int] = []
    log_tol = math.log(tol)
    log2 = math.log(2.0)
    for n in sorted(set(int(v) for v in candidate_pool)):
        if n < 1:
            continue
        k = len(chosen) + 1
        threshold = log_tol - k * log2
        logs = sufficient_decay_logs(inst, n)
        if all(lg < threshold for _, lg in logs):
            chosen.append(n)
            if len(chosen) == target_count:
                return tuple(chosen)
    return None


def write_reports_csv(reports: Sequence[DecayReport], fh) -> None:
    """CSV 'quantity,k,n_k,value,bound,verdict'; 17 significant digits,
    lowercase scientific, no locale dependence."""
    fh.write("quantity,k,n_k,value,bound,verdict\n")
    for rep in reports:
        verdict = rep.verdict.render()
        bound_map = dict(rep.bounds) if rep.bounds is not None else {}
        for (k, v), n in zip(rep.values, rep.n_values):
            bound = f"{bound_map[k]:.16e}" if k in bound_map else ""
            fh.write(f"{rep.quantity},{k},{n},{v:.16e},{bound},{verdict}\n")


def render_summary(reports: Sequence[DecayReport]) -> str:
    lines = []
    for rep in reports:
        rate = "n/a" if rep.fitted_rate is None else f"{rep.fitted_rate:.6e}"
        lines.append(f"{rep.quantity}: {rep.verdict.render()}; fitted_rate={rate}")
    ok = "yes" if all_decay(reports) else "no"
    lines.append(f"all-decays: {ok}")
    return "\n".join(lines) + "\n"
