"""Structured operators on the two-sided integer lattice.

A bilateral weighted shift moves the basis vector e_j to w(j) e_{j+1} with a
strictly positive weight w(j); a permutation unitary relabels basis vectors
along a bijection of the index set.  Powers of either act on a single basis
vector as a monomial (one coefficient, one index), so products of shift powers
cut by the projection onto span{e_{-m}, ..., e_m} have operator norms that are
exact maxima of weight products along index paths.  Coefficients are
accumulated in the natural-log domain throughout because the products of
interest routinely span hundreds of orders of magnitude.

Every walk is an array operation, and each layer is one function over an
index array: ``shift_power_apply`` sums log weights for a whole index array
at once, with one power or one power per row, so one ``monomial_product_norm``
walk covers every start and every iterate of a family; a table permutation
indexes its orbits once, so ``unitary_power_apply`` is a lookup.  Indices and
powers are int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HorizonExceeded, WindowExceeded

#: Largest transport power any single operation will walk, unless overridden.
DEFAULT_HORIZON = 10_000


def _index_array(values, what: str) -> np.ndarray:
    """Lattice indices as an int64 array; ValueError when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{what} does not fit int64") from exc


def _exp(log_value: float) -> float:
    """exp into the linear domain, inf on overflow."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class WeightRule:
    """Strictly positive weight w(j) attached to the hop e_j -> e_{j+1}.

    Two flavours: ``piecewise`` takes one constant for negative indices and
    one for nonnegative indices; ``explicit`` takes a finite table of
    exceptions over a constant default.
    """

    kind: str
    neg: float = 1.0
    nonneg: float = 1.0
    table: tuple[tuple[int, float], ...] = ()
    default: float = 1.0

    def __post_init__(self):
        if self.kind not in ("piecewise", "explicit"):
            raise ValueError(f"unknown weight rule kind {self.kind!r}")
        for w in self._all_weights():
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("weights must be finite and strictly positive")
        table_map = dict(self.table)
        if len(table_map) != len(self.table):
            raise ValueError("duplicate index in explicit weight table")
        object.__setattr__(self, "_table_map", table_map)
        # log w(i) is the slope of its side of zero plus, for table entries
        # only, a departure from the default.  Prefix sums of the departures
        # make every log-weight sum O(log table); piecewise rules have no
        # table, so their sums are the two slope terms exactly.
        if self.kind == "piecewise":
            slopes, entries = (math.log(self.neg), math.log(self.nonneg)), []
        else:
            slopes = (math.log(self.default),) * 2
            entries = sorted(table_map.items())
        prefix = [0.0]
        for _, w in entries:
            prefix.append(prefix[-1] + (math.log(w) - slopes[0]))
        object.__setattr__(self, "_slopes", slopes)
        keys = _index_array([j for j, _ in entries], "weight table index")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_prefix", np.array(prefix))

    def _all_weights(self):
        if self.kind == "piecewise":
            return (self.neg, self.nonneg)
        return (self.default,) + tuple(w for _, w in self.table)

    @staticmethod
    def piecewise(neg: float, nonneg: float) -> "WeightRule":
        return WeightRule(kind="piecewise", neg=float(neg), nonneg=float(nonneg))

    @staticmethod
    def explicit(table, default: float = 1.0) -> "WeightRule":
        items = tuple(sorted((int(j), float(w)) for j, w in dict(table).items()))
        return WeightRule(kind="explicit", table=items, default=float(default))

    def weight(self, j: int) -> float:
        if self.kind == "piecewise":
            return self.neg if j < 0 else self.nonneg
        return self._table_map.get(j, self.default)


@dataclass(frozen=True)
class WeightedShift:
    """Bilateral forward weighted shift: e_j -> rule(j) e_{j+1}, or its
    adjoint, the backward shift e_j -> rule(j-1) e_{j-1}, when ``adjoint``.

    The inverse acts as e_j -> rule(j-1)^{-1} e_{j-1}; every signed power of
    either is realized by ``shift_power_apply``.
    """

    rule: WeightRule
    adjoint: bool = False

    def star(self) -> "WeightedShift":
        """The Hilbert adjoint: the same weights, walked the other way."""
        return WeightedShift(self.rule, not self.adjoint)


@dataclass(frozen=True)
class PermutationUnitary:
    """Basis relabeling e_j -> e_{pi(j)} for a bijection pi of the lattice.

    ``translation`` shifts every index by a fixed nonzero step.  ``table``
    stores the bijection explicitly over a declared window; iterating past
    the declared window is an error, never a silent extension.
    """

    kind: str
    t: int = 0
    table: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind == "translation":
            if self.t == 0:
                raise ValueError("translation step must be nonzero")
            _index_array(self.t, "translation step")
        elif self.kind == "table":
            forward = dict(self.table)
            if len(forward) != len(self.table):
                raise ValueError("duplicate source index in permutation table")
            values = list(forward.values())
            if len(set(values)) != len(values):
                raise ValueError("permutation table is not injective")
            nodes, info, seq = _orbits(forward)
            object.__setattr__(self, "_nodes", _index_array(nodes, "permutation table index"))
            object.__setattr__(self, "_info", np.array(info, dtype=np.int64))
            object.__setattr__(self, "_seq", np.array(seq, dtype=np.int64))
        else:
            raise ValueError(f"unknown permutation kind {self.kind!r}")

    @staticmethod
    def translation(t: int) -> "PermutationUnitary":
        return PermutationUnitary(kind="translation", t=int(t))

    @staticmethod
    def from_table(mapping) -> "PermutationUnitary":
        items = tuple(sorted((int(a), int(b)) for a, b in dict(mapping).items()))
        return PermutationUnitary(kind="table", table=items)


#: Modulus of a position on a path: larger than any position a walk can
#: reach, so a path never wraps around.
_PATH = 1 << 62


def _orbits(forward: dict[int, int]):
    """Index the orbits of a table permutation once.

    Returns the sorted indices the table touches, one row (first, modulus,
    length, position) per index, and the orbits laid end to end: the orbit
    starts at ``first`` and has ``length`` members.  A cycle wraps modulo its
    length; a path, from an index without preimage to the first iterate
    outside the table, does not (its modulus is ``_PATH``).
    """
    inverse = {v: k for k, v in forward.items()}
    seq: list[int] = []
    info: dict[int, tuple[int, int, int, int]] = {}

    def record(orbit, cyclic):
        first, length = len(seq), len(orbit)
        seq.extend(orbit)
        for pos, j in enumerate(orbit):
            info[j] = (first, length if cyclic else _PATH, length, pos)

    for j in sorted(forward):
        if j not in inverse:
            path = [j]
            while path[-1] in forward:
                path.append(forward[path[-1]])
            record(path, False)
    for j in sorted(forward):
        if j not in info:
            cycle = [j]
            while forward[cycle[-1]] != j:
                cycle.append(forward[cycle[-1]])
            record(cycle, True)
    nodes = sorted(info)
    return nodes, [info[j] for j in nodes], seq


def _log_weight_sums(rule: WeightRule, starts: np.ndarray, count) -> np.ndarray:
    # Sum of log w(i) over the half-open range [s, s + count) for every
    # start s: the two slope terms, plus the table departures by prefix sums.
    # ``count`` is an int or an array that broadcasts against the starts;
    # a count that is not positive gives +0.0.
    ends = starts + count
    neg = np.maximum(0, np.minimum(ends, 0) - starts)
    log_neg, log_nonneg = rule._slopes
    lg = neg * log_neg + (count - neg) * log_nonneg
    keys, prefix = rule._keys, rule._prefix
    if len(keys):
        # without a table the departure term is +0.0, and lg is never -0.0
        lg += prefix[np.searchsorted(keys, ends)] - prefix[np.searchsorted(keys, starts)]
    return np.where(count > 0, lg, 0.0)


def shift_power_apply(
    shift: WeightedShift, n, idx: np.ndarray, *, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply W^n to e_j for every j in the int64 array ``idx``: the landing
    indices and the log coefficients.

    Positive n walks the forward weights w(j) ... w(j+n-1); negative n walks
    the inverse weights 1/w(j-1) ... 1/w(j-|n|).  For an adjoint shift,
    (W^n)* e_j lands on e_{j-n} with the coefficient W^n picks up from
    e_{j-n}.  ``n`` is one power, checked against the horizon here, or an
    int64 array of powers that broadcasts against ``idx`` and that the
    caller has checked.
    """
    if not isinstance(n, np.ndarray) and abs(n) > horizon:
        raise HorizonExceeded(f"shift power {n} exceeds horizon {horizon}")
    start = idx - n if shift.adjoint else idx
    # a negative power walks [start + n, start) and negates the sum
    lg = _log_weight_sums(shift.rule, start + np.minimum(n, 0), abs(n))
    return (start if shift.adjoint else idx + n), lg * np.sign(n)


def shift_star_power_apply(
    shift: WeightedShift, n, idx: np.ndarray, *, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply (W*)^n to e_j for every j in ``idx``."""
    return shift_power_apply(shift.star(), n, idx, horizon=horizon)


def unitary_power_apply(
    unitary: PermutationUnitary, n: int, idx: np.ndarray, *, horizon: int
) -> np.ndarray:
    """pi^n(j) for every j in the int64 array ``idx``.  A translation adds
    its step n * t modulo 2^64, which is exact whenever the landing fits
    int64 (the caller checks that; ``finmat._move`` does).  A table
    permutation looks the power up on the orbit of j and raises
    WindowExceeded for the first j whose walk leaves the declared window,
    naming the index it left from, as a step-by-step walk would.  ``n`` is
    one power, checked against the horizon here, or an int64 array with one
    power per index that the caller has checked (as ``shift_power_apply``
    takes it)."""
    one = not isinstance(n, np.ndarray)
    if one and abs(n) > horizon:
        raise HorizonExceeded(f"permutation power {n} exceeds horizon {horizon}")
    if unitary.kind == "translation":
        if one:
            step = np.uint64(n * unitary.t % (1 << 64))
        else:
            step = n.view(np.uint64) * np.uint64(unitary.t % (1 << 64))
        return (idx.view(np.uint64) + step).view(np.int64)
    if (one and n == 0) or not len(idx):
        return idx
    nodes = unitary._nodes
    if not len(nodes):
        raise WindowExceeded(f"index {idx[0]} left the declared permutation window")
    at = np.minimum(np.searchsorted(nodes, idx), len(nodes) - 1)
    first, modulus, length, pos = unitary._info[at].T
    pos = (pos + n) % modulus
    bad = (nodes[at] != idx) | (pos >= length)
    if bad.any():
        k = int(np.argmax(bad))
        if nodes[at[k]] != idx[k]:
            gone = idx[k]
        else:
            # a path is left at its start walking back, at its end forward
            back = (n if one else n[k]) < 0
            gone = unitary._seq[first[k] + (0 if back else length[k] - 1)]
        raise WindowExceeded(f"index {gone} left the declared permutation window")
    return unitary._seq[first + pos]


def escape_index(
    unitary: PermutationUnitary, m: int, horizon: int
) -> int | None:
    """Least N <= horizon with pi^n([-m, m]) disjoint from [-m, m] for every
    n in [N, horizon], or None when no such N can be certified.

    A translation moves the window by n t, so its iterates meet the window
    exactly while |n t| <= 2m: the answer is exact for any step, with no
    index walked past int64.  A table permutation is scanned directly: every
    iterate count up to the horizon, then the step after the last one that
    still intersects.  A table permutation whose iterates leave the declared
    window before the horizon cannot be certified, so it also yields None.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if unitary.kind == "translation":
        last_hit = min(2 * m // abs(unitary.t), horizon)
    else:
        current = np.arange(-m, m + 1)
        last_hit = 0
        for n in range(1, horizon + 1):
            try:
                current = unitary_power_apply(unitary, 1, current, horizon=horizon)
            except WindowExceeded:
                return None
            if (np.abs(current) <= m).any():
                last_hit = n
    if last_hit == horizon:
        return None
    return last_hit + 1


def monomial_product_norm(
    factors: Sequence[tuple[WeightedShift, object]], m: int, *, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Norm of (W_1^{p_1} ... W_r^{p_r}) P_m, as log values, and the
    smallest start index attaining each, one per row of powers.

    The product of shift powers maps each basis vector to a single weighted
    basis vector, so the norm is the maximum weight product over the start
    indices j in [-m, m] (rightmost factor first).  A power is an int, for
    one row, or an int64 array with one power per row (see
    ``shift_power_apply``); all rows and starts walk together as one grid,
    one array step per factor.  The log value is exact in the log domain;
    its linear image may underflow to 0.0 or overflow to inf.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    index, lg = np.arange(-m, m + 1), np.zeros((1, 2 * m + 1))
    for shift, p in reversed(list(factors)):
        if isinstance(p, np.ndarray):
            p = p[:, None]
        index, step = shift_power_apply(shift, p, index, horizon=horizon)
        lg = lg + step
    best = np.argmax(lg, axis=1)
    return lg[np.arange(len(lg)), best], best - m


def monomial_product_norm_rowcut(
    factors: Sequence[tuple[WeightedShift, object]], m: int, *, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Norm of P_m (W_1^{p_1} ... W_r^{p_r}): by the mirror identity
    ||P_m X|| = ||X* P_m||, the column cut of the reversed chain of adjoint
    factors, attained at a row in [-m, m]."""
    return monomial_product_norm(
        [(shift.star(), p) for shift, p in reversed(list(factors))], m, horizon=horizon
    )
