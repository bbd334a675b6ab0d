"""Versioned plain-text scenario format and the built-in scenarios.

A scenario file is line-oriented: the first non-blank line must be the
marker ``opdyn-scenario v1``; every following line is ``key = value`` with
``#`` starting a comment.  Numbers accept decimals, scientific notation and
exact fractions like ``1/3``.  Unknown keys are rejected so typos cannot
silently change a run.  Every key has one entry in a table that gives its
converter and the value it takes when absent.

Example::

    opdyn-scenario v1
    name = demo
    mode = corollary
    unitary = translation 1
    weight1 = piecewise 2 1/2
    weight2 = piecewise 3 1/3
    r_list = 1 2
    n_seq = all-k       # or: arithmetic a b | explicit 1 2 4 8
    m = 1
    k_max = 40
    tol = 1e-6
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .criteria import DEFAULT_K_MAX, DEFAULT_TOL, CriterionInstance, NSeq
from .errors import ScenarioError
from .finmat import DEFAULT_WINDOW_CAP, read_text
from .lattice import (
    DEFAULT_HORIZON,
    PermutationUnitary,
    WeightRule,
    WeightedShift,
)

SCENARIO_HEADER = "opdyn-scenario v1"

#: Largest horizon, window half-width m and window cap: a walk reaches at
#: most m + 2 * horizon from the origin, and the cap lets through only
#: indices that fit int64.
_WALK_BOUND = 1 << 61

MODES = (
    "corollary",
    "theorem",
    "criterion-pointwise",
    "construct-phi",
    "orbit",
    "dual-transitivity",
    "example24",
    "example28",
)

@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    orientation: str
    unitary: PermutationUnitary
    weights: tuple[WeightRule, ...]
    r_list: tuple[int, ...]
    n_seq: NSeq
    m: int
    k_max: int
    tol: float
    horizon: int
    window_cap: int
    adjoint_weights: bool
    targets: tuple[str, ...] = ()
    seeds: tuple[str, ...] = ()
    witnesses: str | None = None

    def to_instance(self, m: int | None = None) -> CriterionInstance:
        return CriterionInstance(
            shifts=tuple(WeightedShift(rule) for rule in self.weights),
            unitary=self.unitary,
            r_list=self.r_list,
            n_seq=self.n_seq,
            m=self.m if m is None else m,
            k_max=self.k_max,
            horizon=self.horizon,
            window_cap=self.window_cap,
            orientation=self.orientation,
        )


# Converters: each turns the raw value of one key into its field, or raises
# ValueError with the diagnostic text that follows "<key>: ".


def _number(tok: str) -> float:
    try:
        return float(Fraction(tok)) if "/" in tok else float(tok)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None
    except OverflowError:
        # a fraction past the double range reads as inf, as 1e400 does
        return -math.inf if tok.startswith("-") else math.inf


def _ints(toks, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in toks)
    except ValueError:
        raise ValueError(f"expected integers: {raw!r}") from None


def _integer(minimum: int, maximum: int | None = None):
    def convert(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"not an integer: {raw!r}") from None
        if value < minimum:
            raise ValueError(f"must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be at most {maximum}")
        return value

    return convert


def _tol(raw: str) -> float:
    try:
        value = _number(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not value > 0.0:
        raise ValueError("must be strictly positive")
    if value == math.inf:
        raise ValueError("must be finite")
    return value


def _one_of(choices: dict, message: str):
    """Converter of the keys of choices to their values; message formats
    the raw value it rejects."""

    def convert(raw: str):
        try:
            return choices[raw]
        except KeyError:
            raise ValueError(message.format(raw)) from None

    return convert


def _pairs(toks, value) -> dict:
    """``i:v`` tokens as a table from the integer i to value(v).  A token
    without ``:`` leaves v empty, which neither int nor _number accepts."""
    table = {}
    for tok in toks:
        left, _, right = tok.partition(":")
        try:
            i, v = int(left), value(right)
        except ValueError:
            raise ValueError(f"bad table pair {tok!r}") from None
        if i in table:
            raise ValueError(f"duplicate table index {i}")
        table[i] = v
    return table


def _unitary(raw: str) -> PermutationUnitary:
    form, *args = raw.split()
    if form == "translation":
        if len(args) != 1:
            raise ValueError("translation takes exactly one integer")
        try:
            t = int(args[0])
        except ValueError:
            raise ValueError(f"bad translation step {args[0]!r}") from None
        return PermutationUnitary.translation(t)
    if form == "table":
        mapping = _pairs(args, int)
        if not mapping:
            raise ValueError("table needs at least one pair")
        return PermutationUnitary.from_table(mapping)
    raise ValueError(f"unknown form {form!r}")


def _weight_rule(raw: str) -> WeightRule:
    form, *args = raw.split()
    if form == "piecewise":
        if len(args) != 2:
            raise ValueError("piecewise takes two numbers")
        try:
            neg, nonneg = map(_number, args)
        except ValueError:
            raise ValueError(f"bad piecewise weights {raw!r}") from None
        return WeightRule.piecewise(neg, nonneg)
    if form == "explicit":
        if not args:
            raise ValueError("explicit needs a default weight")
        try:
            default = _number(args[0])
        except ValueError:
            raise ValueError(f"bad default weight {args[0]!r}") from None
        return WeightRule.explicit(_pairs(args[1:], _number), default=default)
    raise ValueError(f"unknown form {form!r}")


def _n_seq(raw: str) -> NSeq:
    rule, *args = raw.split()
    if rule == "all-k":
        if args:
            raise ValueError("all-k takes no arguments")
        return NSeq.all_k()
    if rule == "arithmetic":
        if len(args) != 2:
            raise ValueError("arithmetic takes two integers")
        return NSeq.arithmetic(int(args[0]), int(args[1]))
    if rule == "explicit":
        values = _ints(args, raw)
        if any(y <= x for x, y in zip(values, values[1:])):
            raise ValueError("not strictly increasing")
        return NSeq.explicit(values)
    raise ValueError(f"unknown rule {rule!r}")


#: Every key but the weights: its converter, and its value when absent.
#: None marks a key that must be given (name, mode, and the operator keys
#: outside example24/example28), or adjoint_weights, which example28 fills.
_KEYS = {
    "name": (str, None),
    "mode": (_one_of(dict(zip(MODES, MODES)), "unknown mode {!r}"), None),
    "orientation": (
        _one_of({"WFU": "WFU", "UFW": "UFW"}, "must be WFU or UFW, got {!r}"),
        "WFU",
    ),
    "unitary": (_unitary, None),
    "r_list": (lambda raw: _ints(raw.split(), raw), None),
    "n_seq": (_n_seq, NSeq.all_k()),
    "m": (_integer(0, _WALK_BOUND), None),
    "k_max": (_integer(1), DEFAULT_K_MAX),
    "tol": (_tol, DEFAULT_TOL),
    "horizon": (_integer(1, _WALK_BOUND), DEFAULT_HORIZON),
    "window_cap": (_integer(1, _WALK_BOUND), DEFAULT_WINDOW_CAP),
    "adjoint_weights": (
        _one_of({"true": True, "false": False}, "expected true or false, got {!r}"),
        None,
    ),
    "targets": (str.split, ()),
    "seeds": (str.split, ()),
    "witnesses": (str.split, ()),
}

#: The operator keys every mode but example24/example28 must be given, and
#: what those two fill in when they are not.
_CANONICAL = {
    "unitary": PermutationUnitary.translation(1),
    "weights": (
        WeightRule.piecewise(2.0, 0.5),
        WeightRule.piecewise(3.0, 1.0 / 3.0),
    ),
    "r_list": (1, 2),
    "m": 1,
}

#: The path key a mode cannot run without, and how its diagnostic names it.
_MODE_NEEDS = {
    "criterion-pointwise": ("seeds", "seeds are"),
    "orbit": ("seeds", "seeds are"),
    "construct-phi": ("targets", "targets are"),
    "theorem": ("witnesses", "witnesses directory is"),
}


def _scan(text: str):
    """Split the text into key fields and weight fields by index, with the
    line-level diagnostics."""
    fields: dict[str, str] = {}
    weights: dict[int, str] = {}
    diags: list[str] = []
    body = [
        (no, stripped)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not body:
        return fields, weights, [f"missing header line {SCENARIO_HEADER!r}"]
    first_no, first = body[0]
    if first != SCENARIO_HEADER:
        return fields, weights, [
            f"line {first_no}: first line must be {SCENARIO_HEADER!r}"
        ]
    for no, line in body[1:]:
        if "=" not in line:
            diags.append(f"line {no}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            diags.append(f"line {no}: empty value for {key!r}")
            continue
        if key.startswith("weight") and key[6:].isascii() and key[6:].isdigit():
            table, slot = weights, int(key[6:])
        elif key in _KEYS:
            table, slot = fields, key
        else:
            diags.append(f"line {no}: unknown key {key!r}")
            continue
        if slot in table:
            diags.append(f"line {no}: duplicate key {key!r}")
            continue
        table[slot] = value
    return fields, weights, diags


def _is_canonical(v: dict) -> bool:
    r_list = v["r_list"]
    return (
        v["weights"] == _CANONICAL["weights"]
        and v["unitary"] == _CANONICAL["unitary"]
        and len(r_list) == 2
        and r_list[1] == 2 * r_list[0]
        and v["orientation"] == "WFU"
        and v["n_seq"] == NSeq.all_k()
    )


def analyze_scenario(text: str, base_dir: str = ".") -> tuple[Scenario | None, list[str]]:
    """Parse and cross-check; returns (scenario-or-None, diagnostics).

    The scenario is only returned when the diagnostics list is empty.
    """
    fields, weight_fields, diags = _scan(text)
    if diags:
        return None, diags

    def convert(key, converter, raw):
        try:
            return converter(raw)
        except ValueError as exc:
            diags.append(f"{key}: {exc}")
            return None

    v = {
        key: convert(key, converter, fields[key]) if key in fields else absent
        for key, (converter, absent) in _KEYS.items()
    }
    # weights: None when absent, else the rules that converted
    v["weights"] = None
    if weight_fields:
        indices = sorted(weight_fields)
        if indices != list(range(1, len(indices) + 1)):
            diags.append("weight keys must be weight1..weightN without gaps")
            indices = []
        rules = (
            convert(f"weight{i}", _weight_rule, weight_fields[i]) for i in indices
        )
        v["weights"] = tuple(rule for rule in rules if rule is not None)

    for key in ("name", "mode"):
        if key not in fields:
            diags.append(f"{key} is required")
    mode = v["mode"]
    canonical = mode in ("example24", "example28")
    if canonical:
        # a key that failed to convert is filled too; its diagnostic stands
        fill = {**_CANONICAL, "adjoint_weights": mode == "example28"}
        for key, value in fill.items():
            if v[key] is None:
                v[key] = value
    else:
        for key in _CANONICAL:
            if v[key] is None and key not in fields:
                what = "at least weight1" if key == "weights" else key
                diags.append(f"{what} is required for mode {mode!r}")

    r_list, weights, m = v["r_list"], v["weights"], v["m"]
    if r_list is not None:
        if any(r < 1 for r in r_list):
            diags.append("r_list: entries must be positive")
        elif any(y <= x for x, y in zip(r_list, r_list[1:])):
            diags.append("r_list: not strictly increasing")
        elif weights and len(r_list) != len(weights):
            diags.append("r_list: must pair with weight1..weightN")

    if m is not None and v["window_cap"] is not None and v["window_cap"] < m:
        diags.append("window_cap: smaller than m")

    if len(v["witnesses"]) > 1:
        diags.append("witnesses: expected a single directory")

    if mode in _MODE_NEEDS:
        key, what = _MODE_NEEDS[mode]
        if not v[key]:
            diags.append(f"{what} required for mode {mode!r}")
    if (
        mode == "construct-phi"
        and v["targets"]
        and r_list is not None
        and len(v["targets"]) != len(r_list) + 1
    ):
        diags.append("targets: need one F file plus one E file per operator")

    if canonical and not diags:
        if not _is_canonical(v):
            diags.append(
                f"mode {mode!r} requires the canonical two-shift configuration"
            )
        if mode == "example28" and v["adjoint_weights"] is not True:
            diags.append("mode 'example28' requires adjoint_weights = true")

    if diags:
        return None, sorted(set(diags))

    for key in ("targets", "seeds", "witnesses"):
        v[key] = tuple(
            os.path.normpath(os.path.join(base_dir, tok)) for tok in v[key]
        )
    v["witnesses"] = v["witnesses"][0] if v["witnesses"] else None
    v["adjoint_weights"] = bool(v["adjoint_weights"])
    return Scenario(**v), []


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    scenario, diags = analyze_scenario(text, base_dir)
    if scenario is None:
        raise ScenarioError(diags)
    return scenario


EXAMPLE24_TEXT = """\
opdyn-scenario v1
# Two-shift tuple on the integer lattice with doubled second exponent.
name = example24
mode = example24
unitary = translation 1
weight1 = piecewise 2 1/2
weight2 = piecewise 3 1/3
r_list = 1 2
n_seq = all-k
m = 1
k_max = 40
tol = 1e-6
"""

EXAMPLE28_TEXT = """\
opdyn-scenario v1
# Transposed action of the canonical two-shift tuple via adjoint weights.
name = example28
mode = example28
unitary = translation 1
weight1 = piecewise 2 1/2
weight2 = piecewise 3 1/3
r_list = 1 2
n_seq = all-k
m = 1
k_max = 50
tol = 1e-6
adjoint_weights = true
"""

BUILTIN_SCENARIOS: dict[str, str] = {
    "example24": EXAMPLE24_TEXT,
    "example28": EXAMPLE28_TEXT,
}


def list_builtin() -> list[str]:
    return sorted(BUILTIN_SCENARIOS)


def resolve_scenario(ref) -> tuple[str, str]:
    """Scenario text and base directory of a file path or builtin name; a
    file wins over a builtin of the same name."""
    if os.path.isfile(ref):
        return read_text(ref, "scenario file"), os.path.dirname(os.path.abspath(ref))
    if ref in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[ref], "."
    raise ScenarioError([f"no such scenario file or builtin: {ref}"])


def load_scenario(ref) -> Scenario:
    """The scenario that the file path or builtin name ``ref`` names."""
    return parse_scenario(*resolve_scenario(ref))


def with_overrides(
    scenario: Scenario,
    *,
    tol: float | None = None,
    k_max: int | None = None,
    horizon: int | None = None,
) -> Scenario:
    """The scenario with the given values replaced, each checked by the
    converter of its key, as if the scenario file had given it."""
    changes = {}
    for key, value in (("tol", tol), ("k_max", k_max), ("horizon", horizon)):
        if value is not None:
            try:
                changes[key] = _KEYS[key][0](str(value))
            except ValueError as exc:
                raise ScenarioError([f"{key} override {exc}"]) from None
    return replace(scenario, **changes)
