"""Shared builders and exact-arithmetic oracles for the test suite.

The fraction-based helpers recompute weight products with unbounded
precision so that float results produced by the package can be judged
against an independent route.
"""

import math
import random
from fractions import Fraction

from opdyn import (
    CriterionInstance,
    FiniteMatrix,
    NSeq,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
)


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
