"""Scenario-file parsing diagnostics and end-to-end command-line runs."""

import math
import os
from dataclasses import replace

import pytest

from _util import canonical_instance, dict_of, dict_shift_chain
from opdyn import (
    FiniteMatrix,
    PermutationUnitary,
    WeightRule,
    op_norm,
    projection_matrix,
    unit,
)
from opdyn import duality
from opdyn.cli import _dual_instance, main
from opdyn.constructor import default_bundle, save_bundle
from opdyn.criteria import chain_factors, family_chains
from opdyn.duality import dual_label
from opdyn.errors import ConvergenceError, ScenarioError
from opdyn.finmat import save_finmat
from test_traced_layers import load
from opdyn.scenario import (
    analyze_scenario,
    list_builtin,
    load_scenario,
    parse_scenario,
    with_overrides,
)

CANONICAL_LINES = """\
unitary = translation 1
weight1 = piecewise 2 1/2
weight2 = piecewise 3 1/3
r_list = 1 2
"""


def corollary_text(m=0, k_max=25, extra="") -> str:
    return (
        "opdyn-scenario v1\n"
        "name = unit-run\n"
        "mode = corollary\n"
        + CANONICAL_LINES
        + f"m = {m}\nk_max = {k_max}\n"
        + extra
    )


# ---------------------------------------------------------------------------
# parsing


def test_builtin_scenarios_parse_to_the_canonical_configuration():
    s24 = load_scenario("example24")
    assert s24.mode == "example24"
    assert s24.r_list == (1, 2)
    assert s24.m == 1 and s24.k_max == 40
    assert s24.tol == 1e-6
    assert not s24.adjoint_weights
    assert s24.weights == (
        WeightRule.piecewise(2.0, 0.5),
        WeightRule.piecewise(3.0, 1.0 / 3.0),
    )
    assert s24.unitary == PermutationUnitary.translation(1)

    s28 = load_scenario("example28")
    assert s28.mode == "example28"
    assert s28.adjoint_weights
    assert s28.k_max == 50

    assert list_builtin() == ["example24", "example28"]
    with pytest.raises(ScenarioError):
        load_scenario("example99")


def test_fraction_tokens_parse_exactly():
    s = parse_scenario(corollary_text(extra="tol = 1/1024\n"))
    assert s.tol == 1.0 / 1024.0
    assert s.weights[0].nonneg == 0.5
    assert s.weights[1].nonneg == 1.0 / 3.0


def test_scenario_to_instance_matches_direct_construction():
    s = parse_scenario(corollary_text(m=1, k_max=12))
    inst = s.to_instance()
    assert inst == canonical_instance(m=1, r1=1, k_max=12)


def test_table_unitary_round_trips():
    text = corollary_text().replace(
        "unitary = translation 1", "unitary = table 0:1 1:0"
    )
    s = parse_scenario(text)
    assert s.unitary == PermutationUnitary.from_table({0: 1, 1: 0})


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("opdyn-scenario v1", "opdyn-scenario v2"),
         "first line must be"),
        (lambda t: t + "name = twice\n", "duplicate key"),
        (lambda t: t + "mystery = 3\n", "unknown key"),
        (lambda t: t.replace("r_list = 1 2", "r_list = 2 1"),
         "not strictly increasing"),
        (lambda t: t + "n_seq = explicit 3 3 5\n", "not strictly increasing"),
        (lambda t: t.replace("mode = corollary", "mode = sideways"), "mode"),
        (lambda t: t + "tol = 0\n", "tol"),
    ],
)
def test_malformed_scenarios_are_diagnosed(mangle, fragment):
    scenario, diags = analyze_scenario(mangle(corollary_text()))
    assert scenario is None
    assert any(fragment in d for d in diags)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(mangle(corollary_text()))
    assert err.value.diagnostics == diags


def with_keys(**keys) -> str:
    """corollary_text() with each given key's line replaced, appended, or
    dropped when its value is None."""
    lines = [
        ln for ln in corollary_text().splitlines()
        if ln.split(" = ")[0] not in keys
    ]
    lines += [f"{k} = {v}" for k, v in keys.items() if v is not None]
    return "\n".join(lines) + "\n"


HEADER = "opdyn-scenario v1\n"

#: A criterion-pointwise run whose seed (written by ``write_window_cap_seed``)
#: has an entry near the top of int64 that translation -1000 moves past it.
WINDOW_CAP_CASE = (
    HEADER + "name = wc\nmode = criterion-pointwise\n"
    "weight1 = piecewise 2 1/2\nr_list = 1\nm = 1\nk_max = 3\n"
    "unitary = translation -1000\nseeds = seed.finmat\n"
)

#: Malformed scenarios and their exact diagnostics: sorted, except that
#: line-level ones come in line order.
PINNED_DIAGNOSTICS = [
    (corollary_text().replace("v1", "v2"),
     ["line 1: first line must be 'opdyn-scenario v1'"]),
    ("# nothing here\n\n", ["missing header line 'opdyn-scenario v1'"]),
    # line-level diagnostics come in line order
    (corollary_text(extra="no equals\nmystery = 1\nname = again\ntol =\n"
                          "weight01 = piecewise 1 1\n"),
     ["line 10: expected 'key = value'", "line 11: unknown key 'mystery'",
      "line 12: duplicate key 'name'", "line 13: empty value for 'tol'",
      "line 14: duplicate key 'weight01'"]),
    (with_keys(weight2=None, weight3="piecewise 3 1/3"),
     ["weight keys must be weight1..weightN without gaps"]),
    (with_keys(weight0="piecewise 1 1"),
     ["weight keys must be weight1..weightN without gaps"]),
    (with_keys(unitary="translation 0", n_seq="all-k 3", tol="0"),
     ["n_seq: all-k takes no arguments", "tol: must be strictly positive",
      "unitary: translation step must be nonzero"]),
    (with_keys(unitary="translation 1 2", n_seq="arithmetic 1",
               tol="1/0"),
     ["n_seq: arithmetic takes two integers", "tol: not a number: '1/0'",
      "unitary: translation takes exactly one integer"]),
    (with_keys(unitary="translation x", n_seq="arithmetic x 1",
               m="x", k_max="0"),
     ["k_max: must be at least 1", "m: not an integer: 'x'",
      "n_seq: invalid literal for int() with base 10: 'x'",
      "unitary: bad translation step 'x'"]),
    (with_keys(unitary="table 0:1 0:2", n_seq="arithmetic 0 1",
               horizon="z", window_cap="0"),
     ["horizon: not an integer: 'z'",
      "n_seq: arithmetic rule needs a >= 1 and b >= 1",
      "unitary: duplicate table index 0", "window_cap: must be at least 1"]),
    (with_keys(unitary="table 0:1 1:1", n_seq="explicit 3 3 5",
               m="-1"),
     ["m: must be at least 0", "n_seq: not strictly increasing",
      "unitary: permutation table is not injective"]),
    (with_keys(unitary="table", n_seq="explicit",
               adjoint_weights="yes"),
     ["adjoint_weights: expected true or false, got 'yes'",
      "n_seq: explicit sequence must list positive integers",
      "unitary: table needs at least one pair"]),
    (with_keys(unitary="table 0-1", n_seq="explicit 1 a",
               orientation="XYZ"),
     ["n_seq: expected integers: 'explicit 1 a'",
      "orientation: must be WFU or UFW, got 'XYZ'",
      "unitary: bad table pair '0-1'"]),
    (with_keys(unitary="rotate 1", n_seq="fibonacci"),
     ["n_seq: unknown rule 'fibonacci'", "unitary: unknown form 'rotate'"]),
    (with_keys(weight1="piecewise 2", weight2="piecewise a 1/0"),
     ["weight1: piecewise takes two numbers",
      "weight2: bad piecewise weights 'piecewise a 1/0'"]),
    # a weight that fails to convert leaves r_list longer than the weights
    (with_keys(weight1="piecewise 0 1"),
     ["r_list: must pair with weight1..weightN",
      "weight1: weights must be finite and strictly positive"]),
    (with_keys(weight1="explicit", weight2="explicit x"),
     ["weight1: explicit needs a default weight",
      "weight2: bad default weight 'x'"]),
    (with_keys(weight1="explicit 1 0:2 0:3",
               weight2="explicit 1 0:b"),
     ["weight1: duplicate table index 0", "weight2: bad table pair '0:b'"]),
    (with_keys(weight2="gaussian 1"),
     ["r_list: must pair with weight1..weightN",
      "weight2: unknown form 'gaussian'"]),
    (with_keys(r_list="a b"), ["r_list: expected integers: 'a b'"]),
    (with_keys(r_list="2 1"), ["r_list: not strictly increasing"]),
    (with_keys(r_list="0 1"), ["r_list: entries must be positive"]),
    (with_keys(r_list="1"), ["r_list: must pair with weight1..weightN"]),
    (with_keys(m="3", window_cap="2"), ["window_cap: smaller than m"]),
    (HEADER + "m = 1\n",
     ["at least weight1 is required for mode None", "mode is required",
      "name is required", "r_list is required for mode None",
      "unitary is required for mode None"]),
    (with_keys(mode="sideways"), ["mode: unknown mode 'sideways'"]),
    (HEADER + "name = x\nmode = corollary\n",
     ["at least weight1 is required for mode 'corollary'",
      "m is required for mode 'corollary'",
      "r_list is required for mode 'corollary'",
      "unitary is required for mode 'corollary'"]),
    (with_keys(mode="example24", weight1="piecewise 5 1/5"),
     ["mode 'example24' requires the canonical two-shift configuration"]),
    (with_keys(mode="example24", orientation="UFW"),
     ["mode 'example24' requires the canonical two-shift configuration"]),
    # example24 pairs a failed r_list with its canonical (1, 2)
    (HEADER + "name = x\nmode = example24\nweight1 = piecewise 2 1/2\nr_list = x\n",
     ["r_list: expected integers: 'x'", "r_list: must pair with weight1..weightN"]),
    (with_keys(mode="example28", adjoint_weights="false"),
     ["mode 'example28' requires adjoint_weights = true"]),
    (with_keys(mode="construct-phi", targets="f e1"),
     ["targets: need one F file plus one E file per operator"]),
    (with_keys(mode="construct-phi"),
     ["targets are required for mode 'construct-phi'"]),
    (with_keys(mode="orbit"), ["seeds are required for mode 'orbit'"]),
    (with_keys(mode="criterion-pointwise"),
     ["seeds are required for mode 'criterion-pointwise'"]),
    (with_keys(mode="theorem", witnesses="a b"),
     ["witnesses: expected a single directory"]),
    (with_keys(mode="theorem"), ["witnesses directory is required for mode 'theorem'"]),
    # numbers past the double range read as inf, fractions as decimals do
    (with_keys(tol="1e400"), ["tol: must be finite"]),
    (with_keys(tol="1" + "0" * 400 + "/1"), ["tol: must be finite"]),
    (with_keys(weight2="piecewise 1" + "0" * 400 + "/1 1/3"),
     ["r_list: must pair with weight1..weightN",
      "weight2: weights must be finite and strictly positive"]),
    # a weight key takes ASCII digits only
    (corollary_text(extra="weight\u00b2 = piecewise 1 1\n"),
     ["line 10: unknown key 'weight\u00b2'"]),
    # m + 2 * horizon must fit int64: past it an iterate raised OverflowError
    # (exit 6), or a wrapped index printed inf and a wrong verdict (exit 1)
    (with_keys(horizon=str(10**30), n_seq="explicit 1 2 5000000000000000000"),
     ["horizon: must be at most 2305843009213693952"]),
    (with_keys(weight1="piecewise 2 1/2", weight2=None, r_list="1", m="2",
               k_max="2", n_seq="explicit 1 9223372036854775806",
               horizon="9223372036854775807"),
     ["horizon: must be at most 2305843009213693952"]),
    (with_keys(m=str(2**61 + 1), window_cap=str(2**62)),
     ["m: must be at most 2305843009213693952",
      "window_cap: must be at most 2305843009213693952"]),
    # a cap past int64 let wrapped indices through: exit 1, no diagnostic
    (WINDOW_CAP_CASE + "window_cap = " + str(10**30) + "\n",
     ["window_cap: must be at most 2305843009213693952"]),
]


@pytest.mark.parametrize(
    "text, want",
    PINNED_DIAGNOSTICS,
    ids=[f"case{i}" for i in range(len(PINNED_DIAGNOSTICS))],
)
def test_malformed_scenarios_give_exactly_these_diagnostics(text, want):
    assert analyze_scenario(text) == (None, want)


def test_missing_required_keys_are_diagnosed():
    text = "opdyn-scenario v1\nname = t\nmode = corollary\n"
    scenario, diags = analyze_scenario(text)
    assert scenario is None
    assert diags


def test_example_modes_insist_on_their_configuration():
    text = load_scenario("example24")
    raw = (
        "opdyn-scenario v1\nname = x\nmode = example24\n"
        + CANONICAL_LINES.replace("piecewise 2 1/2", "piecewise 5 1/5")
        + "m = 1\n"
    )
    scenario, diags = analyze_scenario(raw)
    assert scenario is None and diags
    raw28 = (
        "opdyn-scenario v1\nname = x\nmode = example28\n"
        + CANONICAL_LINES
        + "m = 1\nadjoint_weights = false\n"
    )
    scenario, diags = analyze_scenario(raw28)
    assert scenario is None and any("adjoint_weights" in d for d in diags)
    assert text is not None


def test_with_overrides_replaces_only_what_is_given():
    s = load_scenario("example24")
    t = with_overrides(s, tol=1e-3, k_max=7)
    assert (t.tol, t.k_max, t.horizon) == (1e-3, 7, s.horizon)
    assert with_overrides(s, horizon=2**61).horizon == 2**61


@pytest.mark.parametrize(
    "override, diag",
    [
        ({"k_max": 0}, "k_max override must be at least 1"),
        ({"horizon": 0}, "horizon override must be at least 1"),
        ({"horizon": 2**61 + 1},
         "horizon override must be at most 2305843009213693952"),
        ({"tol": 0.0}, "tol override must be strictly positive"),
        ({"tol": -1.0}, "tol override must be strictly positive"),
        ({"tol": math.nan}, "tol override must be strictly positive"),
        ({"tol": math.inf}, "tol override must be finite"),
    ],
)
def test_with_overrides_gives_exactly_these_diagnostics(override, diag):
    with pytest.raises(ScenarioError) as info:
        with_overrides(load_scenario("example24"), **override)
    assert info.value.diagnostics == [diag]


def test_load_scenario_resolves_paths_against_its_directory(tmp_path):
    save_finmat(projection_matrix(0), tmp_path / "seed.finmat")
    text = (
        "opdyn-scenario v1\nname = o\nmode = orbit\n"
        + CANONICAL_LINES
        + "m = 0\nk_max = 3\nseeds = seed.finmat\n"
    )
    (tmp_path / "run.scenario").write_text(text)
    s = load_scenario(tmp_path / "run.scenario")
    assert s.seeds == (os.path.join(str(tmp_path), "seed.finmat"),)


# ---------------------------------------------------------------------------
# command line


def run_cli(*argv) -> int:
    return main(list(argv))


def write_scenario(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_builtin_command(capsys):
    assert run_cli("list-builtin") == 0
    assert capsys.readouterr().out == "example24\nexample28\n"


def test_validate_command_accepts_good_files(tmp_path, capsys):
    path = write_scenario(tmp_path, corollary_text())
    assert run_cli("validate", path) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_command_prints_diagnostics(tmp_path, capsys):
    path = write_scenario(tmp_path, corollary_text() + "mystery = 1\n")
    assert run_cli("validate", path) == 2
    assert "unknown key" in capsys.readouterr().out


def test_validate_missing_file_is_a_scenario_error(tmp_path, capsys):
    assert run_cli("validate", str(tmp_path / "absent.scenario")) == 2
    assert "error:" in capsys.readouterr().err


def test_run_writes_reports_and_exits_zero_on_decay(tmp_path, capsys):
    path = write_scenario(tmp_path, corollary_text(m=0, k_max=30))
    out = tmp_path / "out"
    assert run_cli("run", path, "--out", str(out)) == 0
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "quantity,k,n_k,value,bound,verdict"
    assert "all-decays: yes" in (out / "summary.txt").read_text()


def test_run_exits_one_when_a_family_fails(tmp_path):
    text = corollary_text().replace("piecewise 2 1/2", "piecewise 1 1")
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 1


def test_run_missing_scenario_exits_two(tmp_path, capsys):
    assert run_cli("run", str(tmp_path / "nope.scenario")) == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path, corollary_text() + "mystery = 1\n")
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2


def test_run_horizon_exhaustion_exits_three(tmp_path):
    path = write_scenario(tmp_path, corollary_text(m=0, k_max=10))
    code = run_cli(
        "run", path, "--out", str(tmp_path / "o"), "--horizon", "5"
    )
    assert code == 3


def test_run_iterate_past_int64_exits_three_over_the_horizon(tmp_path, capsys):
    # the power is over the horizon before it is too large for int64
    huge = 10**23
    path = write_scenario(
        tmp_path, with_keys(m="2", k_max="3", n_seq=f"explicit 1 2 {huge}")
    )
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == f"error: shift power {huge} exceeds horizon 10000\n"


def test_run_convergence_failure_exits_four(tmp_path, monkeypatch):
    import opdyn.cli as cli

    def explode(scenario):
        raise ConvergenceError("stalled")

    monkeypatch.setitem(cli._MODE_HANDLERS, "corollary", explode)
    path = write_scenario(tmp_path, corollary_text())
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 4


def test_run_overflowing_orbit_exits_five(tmp_path, capsys):
    # W^n e_0 = 2^n overflows past n = 1023: a numeric failure, not a
    # family that failed to decay
    save_finmat(projection_matrix(0), tmp_path / "seed.finmat")
    text = (
        "opdyn-scenario v1\nname = o\nmode = orbit\n"
        "unitary = translation 1\nweight1 = piecewise 1/2 2\nr_list = 1\n"
        "m = 0\nk_max = 1100\nseeds = seed.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 5
    assert "non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_run_non_finite_matrix_file_exits_two(tmp_path, capsys, value):
    (tmp_path / "seed.finmat").write_text(f"finmat v1\n0 0 {value}\n")
    text = (
        "opdyn-scenario v1\nname = o\nmode = orbit\n"
        + CANONICAL_LINES
        + "m = 0\nk_max = 4\nseeds = seed.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2
    assert "line 2: non-finite value" in capsys.readouterr().err


def test_run_matrix_file_index_beyond_int64_exits_two(tmp_path, capsys):
    (tmp_path / "seed.finmat").write_text("finmat v1\n0 0 1.0\n0 9223372036854775808 1.0\n")
    text = (
        "opdyn-scenario v1\nname = o\nmode = orbit\n"
        + CANONICAL_LINES
        + "m = 0\nk_max = 4\nseeds = seed.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2
    assert "line 3: index does not fit int64" in capsys.readouterr().err


def write_window_cap_seed(tmp_path, entries):
    (tmp_path / "seed.finmat").write_text("finmat v1\n" + "".join(
        f"{i} {j} 1\n" for i, j in entries
    ))


def test_run_transport_past_int64_names_the_exact_position(tmp_path, capsys):
    # column 9223372036854775000 moves by +1000: the int64 add used to wrap
    # it round to -9223372036854775616 before the window cap named it
    write_window_cap_seed(tmp_path, [(0, 9223372036854775000), (0, 0)])
    path = write_scenario(tmp_path, WINDOW_CAP_CASE + "window_cap = 1000000\n")
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == (
        "error: transported index (1, 9223372036854776000) exceeds window cap 1000000\n"
    )


def test_run_translation_step_past_int64_exits_three(tmp_path, capsys):
    # the column step -2^70 does not fit int64: it raised OverflowError (exit 6)
    write_window_cap_seed(tmp_path, [(0, 0), (1, 1)])
    text = WINDOW_CAP_CASE.replace("translation -1000", "translation 1073741824") + (
        f"n_seq = explicit 1 2 1099511627776\nhorizon = {2**61}\nwindow_cap = {2**61}\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == (
        "error: transported index (1099511627776, -1180591620717411303424) "
        "exceeds window cap 2305843009213693952\n"
    )


#: A seed column 1000 above the bottom of int64, and a translation step of
#: -2^62: U^2 on the right moves the column by 2^63, which does not fit
#: int64, to column 1000.
HUGE_STEP_SEED = [(0, -(1 << 63) + 1000)]
HUGE_STEP = "translation -4611686018427387904"


def test_run_translation_step_past_int64_with_landings_inside(tmp_path):
    # T^2 moves the seed to (2, 1000); the step was added as a Python int
    # and raised OverflowError (exit 6)
    write_window_cap_seed(tmp_path, HUGE_STEP_SEED)
    text = WINDOW_CAP_CASE.replace("criterion-pointwise", "orbit").replace(
        "r_list = 1", "r_list = 2"
    )
    path = write_scenario(
        tmp_path, text.replace("translation -1000", HUGE_STEP).replace("k_max = 3", "k_max = 1")
    )
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "orbit.csv").read_text().splitlines()[1:] == [
        "0,1,1.0000000000000000e+00",
        "1,1,2.5000000000000000e-01",
    ]


def test_run_translation_step_past_int64_landing_past_it_exits_three(tmp_path, capsys):
    # T1^(-2) moves the column by -2^63, past int64: named, not wrapped
    write_window_cap_seed(tmp_path, HUGE_STEP_SEED)
    text = WINDOW_CAP_CASE.replace("translation -1000", HUGE_STEP).replace(
        "k_max = 3", "k_max = 1\nn_seq = explicit 2"
    ).replace("m = 1", "m = 0")
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == (
        "error: transported index (-2, -18446744073709550616) "
        "exceeds window cap 1048576\n"
    )


def test_run_input_seed_past_the_cap_still_moves_inward(tmp_path):
    # input indices outside the cap are not rejected: only landings are
    # (orbit mode walks the forward powers only; n = 0 moves nothing)
    write_window_cap_seed(tmp_path, [(0, -2500)])
    text = WINDOW_CAP_CASE.replace("criterion-pointwise", "orbit")
    path = write_scenario(tmp_path, text + "window_cap = 2000\n")
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 0
    rows = (tmp_path / "o" / "orbit.csv").read_text().splitlines()
    assert len(rows) == 1 + 4


def undecodable(path):
    """Rewrite the file at path with a 0xff byte at the end of its first
    line: not UTF-8 any more."""
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"\n", b"\xff\n", 1))
    return str(path)


def test_run_and_validate_undecodable_scenario_exit_two(tmp_path, capsys):
    write_scenario(tmp_path, corollary_text())
    path = undecodable(tmp_path / "case.scenario")
    for argv in (("validate", path), ("run", path, "--out", str(tmp_path / "o"))):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario file: ")
        assert err.endswith(f"invalid start byte: {path!r}\n")
        assert err.count("\n") == 1


def test_run_undecodable_seed_exits_two(tmp_path, capsys):
    write_window_cap_seed(tmp_path, [(0, 0)])
    seed = undecodable(tmp_path / "seed.finmat")
    path = write_scenario(tmp_path, WINDOW_CAP_CASE)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read matrix file: ")
    assert err.endswith(f"invalid start byte: {seed!r}\n")
    assert err.count("\n") == 1


def test_run_undecodable_bundle_manifest_exits_two(tmp_path, capsys):
    inst = canonical_instance(m=1, r1=1, k_max=4)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "wit")
    manifest = undecodable(tmp_path / "wit" / "manifest.txt")
    path = write_scenario(
        tmp_path,
        "opdyn-scenario v1\nname = t\nmode = theorem\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 4\nwitnesses = wit\n",
    )
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read bundle manifest: ")
    assert err.endswith(f"invalid start byte: {manifest!r}\n")
    assert err.count("\n") == 1


def test_run_missing_seed_keeps_its_diagnostic(tmp_path, capsys):
    path = write_scenario(tmp_path, WINDOW_CAP_CASE)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2
    seed = tmp_path / "seed.finmat"
    assert capsys.readouterr().err == (
        "error: cannot read matrix file: [Errno 2] No such file or directory: "
        f"{str(seed)!r}\n"
    )


def test_run_horizon_override_past_the_walk_bound_exits_two(tmp_path, capsys):
    # the iterate fits the horizon, so the walk used to reach int64 overflow
    text = with_keys(n_seq="explicit 1 2 5000000000000000000")
    path = write_scenario(tmp_path, text)
    argv = ("run", path, "--out", str(tmp_path / "o"), "--horizon", str(10**30))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        "error: horizon override must be at most 2305843009213693952\n"
    )


def test_run_infinite_tol_override_exits_two(tmp_path, capsys):
    # every family is below an infinite tolerance: it would certify anything
    assert run_cli("run", "example24", "--out", str(tmp_path / "o"), "--tol", "inf") == 2
    assert capsys.readouterr().err == "error: tol override must be finite\n"


@pytest.mark.parametrize(
    "text, diag",
    [
        (with_keys(tol="1e400"), "tol: must be finite"),
        (with_keys(tol="1" + "0" * 400 + "/1"), "tol: must be finite"),
        (corollary_text(extra="weight\u00b2 = piecewise 1 1\n"),
         "line 10: unknown key 'weight\u00b2'"),
    ],
    ids=["decimal-tol", "fraction-tol", "superscript-key"],
)
def test_validate_and_run_diagnose_what_used_to_pass_or_escape(
    tmp_path, capsys, text, diag
):
    # an infinite tol certified every family; the other two raised (exit 6)
    path = tmp_path / "case.scenario"
    path.write_text(text, encoding="utf-8")
    assert run_cli("validate", str(path)) == 2
    assert capsys.readouterr().out == diag + "\n"
    assert run_cli("run", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {diag}\n"


def test_run_internal_error_exits_six_with_traceback(tmp_path, monkeypatch, capsys):
    import opdyn.cli as cli

    def explode(scenario):
        raise KeyError("bug")

    monkeypatch.setitem(cli._MODE_HANDLERS, "corollary", explode)
    path = write_scenario(tmp_path, corollary_text())
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 6
    assert "Traceback" in capsys.readouterr().err


def test_run_tol_and_kmax_overrides(tmp_path):
    path = write_scenario(tmp_path, corollary_text(m=0, k_max=30))
    out = tmp_path / "o"
    assert run_cli("run", path, "--out", str(out), "--kmax", "4") == 1
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 4  # six families, four rows each

    assert run_cli(
        "run", path, "--out", str(out), "--kmax", "4", "--tol", "0.75"
    ) == 0


def test_run_defaults_to_a_runs_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, corollary_text(m=0, k_max=10))
    assert run_cli("run", path, "--tol", "0.5") == 0
    assert (tmp_path / "runs" / "unit-run" / "report.csv").exists()


def test_run_builtin_example24(tmp_path):
    out = tmp_path / "e24"
    assert run_cli("run", "example24", "--out", str(out)) == 0
    text = (out / "report.csv").read_text()
    assert "norm(W1^(+1n) W2^(-2n) P0)" in text
    assert "all-decays: yes" in (out / "summary.txt").read_text()


def test_run_builtin_example24_cross_bounds_are_the_closed_forms(tmp_path):
    # 9^m (2/9)^n and 9^m 2^-n hold on every row and are attained for m <= 1.
    out = tmp_path / "e24"
    assert run_cli("run", "example24", "--out", str(out)) == 0
    rows = [
        line.split(",")
        for line in (out / "report.csv").read_text().splitlines()[1:]
    ]
    bounded = [row for row in rows if row[4]]
    assert len(bounded) == 5 * 2 * 40  # windows 0..4, two cross families
    for quantity, k, n, value, bound, _ in bounded:
        value, bound, m = float(value), float(bound), int(quantity[-2])
        pair = quantity.split()[0]
        want = 9.0**m * (2 / 9 if pair == "norm(W1^(+1n)" else 1 / 2) ** int(n)
        assert bound == pytest.approx(want, rel=1e-12), (quantity, k)
        assert value <= bound * (1 + 1e-12), (quantity, k)
        if m <= 1:
            assert value == pytest.approx(bound, rel=1e-12), (quantity, k)


def test_run_builtin_example24_bounds_underflow_instead_of_overflowing(tmp_path):
    # 3.0 ** 647 overflowed in the bound column and crashed the run.
    out = tmp_path / "e24"
    assert run_cli("run", "example24", "--out", str(out), "--kmax", "650") == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    assert sum(1 for row in rows[1:] if row[4]) == 5 * 2 * 650


def test_run_builtin_example28_emits_eta_artifacts(tmp_path):
    out = tmp_path / "e28"
    assert run_cli("run", "example28", "--out", str(out)) == 0
    names = sorted(os.listdir(out))
    assert "eta_k0001.finmat" in names
    assert "eta_k0050.finmat" in names
    assert "wstar-dist(eta_k - M_P1 psi)" in (out / "report.csv").read_text()


def test_run_builtin_example28_dual_rows_match_the_dense_transport_route(tmp_path):
    # An independent route to every adjoint-side row: P_mm multiplied on the
    # right by the reversed chain through per-entry transport, measured by
    # op_norm, instead of the column cut of the chain on the plain shifts.
    out = tmp_path / "e28"
    assert run_cli("run", "example28", "--out", str(out)) == 0
    values = {
        (quantity, int(k)): float(value)
        for quantity, k, _, value, _, _ in (
            line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]
        )
        if quantity.startswith("norm(P")
    }
    scenario = load_scenario("example28")
    assert scenario.adjoint_weights
    checked = 0
    for mm in range(5):
        adj = scenario.to_instance(m=mm).star()
        kw = dict(horizon=adj.horizon, window_cap=adj.window_cap)
        for chain in family_chains(adj.n_ops):
            for k, n in enumerate(adj.n_values(), start=1):
                factors = chain_factors(adj, chain[::-1], n)
                moved = dict_shift_chain(dict_of(projection_matrix(mm)), factors, "right", **kw)
                dense = op_norm(FiniteMatrix(moved))
                value = values[dual_label(adj, chain), k]
                assert math.isclose(value, dense, rel_tol=1e-12), (mm, chain, k)
                checked += 1
    assert checked == len(values) == 5 * 6 * 50


def wstar_rows(outdir):
    """(value, bound) of every weak-* distance row of a run's report."""
    lines = (outdir / "report.csv").read_text().splitlines()[1:]
    return [
        (float(value), float(bound))
        for quantity, _, _, value, bound, _ in (line.split(",") for line in lines)
        if quantity.startswith("wstar-dist(")
    ]


@pytest.mark.parametrize("scenario", ["dual-0", "dual-1", "dual-2", "example28"])
def test_run_weak_star_distances_stay_within_their_bounds(tmp_path, scenario):
    # each bound majorizes its distance: the trace-norm route of the
    # witness families, checked here since make_report does not check it
    if scenario.startswith("dual-"):
        seed = int(scenario.split("-")[1])
        scenario = load("workloads").generate("dual", seed, str(tmp_path / "in")).scenario
    assert run_cli("run", scenario, "--out", str(tmp_path / "o")) in (0, 1)
    rows = wstar_rows(tmp_path / "o")
    assert len(rows) == 3 * 60 or (len(rows) == 3 * 50 and scenario == "example28")
    assert all(value <= bound for value, bound in rows)


def test_run_orbit_mode_writes_orbit_rows(tmp_path):
    save_finmat(projection_matrix(0), tmp_path / "seed.finmat")
    text = (
        "opdyn-scenario v1\nname = o\nmode = orbit\n"
        + CANONICAL_LINES
        + "m = 0\nk_max = 4\nseeds = seed.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli("run", path, "--out", str(out)) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert lines[0] == "n,l,norm_distance"
    assert len(lines) == 1 + 5 * 2  # n = 0..4 for each of the two operators
    assert (out / "report.csv").read_text() == "quantity,k,n_k,value,bound,verdict\n"
    assert "orbit rows: 10" in (out / "summary.txt").read_text()


def test_run_construct_phi_mode_saves_approximants(tmp_path):
    pm = projection_matrix(1)
    for name in ("f.finmat", "e1.finmat", "e2.finmat"):
        save_finmat(pm, tmp_path / name)
    text = (
        "opdyn-scenario v1\nname = phi\nmode = construct-phi\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 40\ntargets = f.finmat e1.finmat e2.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli("run", path, "--out", str(out)) == 0
    assert (out / "approximant_k0001.finmat").exists()
    assert (out / "approximant_k0040.finmat").exists()


def test_run_construct_past_the_horizon_names_the_first_power_of_the_walk_over_k(
    tmp_path, capsys
):
    # the walk over k builds phi_16 before any later k moves: its S2 pull-back
    # at -2 * 16 is the first power past the horizon, not S1's at k = 31
    scenario = load("workloads").generate("construct", 0, str(tmp_path / "in")).scenario
    argv = ("run", scenario, "--out", str(tmp_path / "o"), "--horizon", "30")
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == "error: shift power -32 exceeds horizon 30\n"


def test_run_construct_phi_rejects_oversized_targets(tmp_path):
    save_finmat(projection_matrix(1), tmp_path / "f.finmat")
    save_finmat(unit(2, 0), tmp_path / "e1.finmat")
    save_finmat(projection_matrix(1), tmp_path / "e2.finmat")
    text = (
        "opdyn-scenario v1\nname = phi\nmode = construct-phi\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 5\ntargets = f.finmat e1.finmat e2.finmat\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2


def test_run_theorem_mode_with_saved_witnesses(tmp_path):
    inst = canonical_instance(m=1, r1=1, k_max=40)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "bundle")
    text = (
        "opdyn-scenario v1\nname = th\nmode = theorem\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 40\nwitnesses = bundle\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 0


def test_run_theorem_mode_rejects_mismatched_witnesses(tmp_path):
    inst = canonical_instance(m=1, r1=1, k_max=10)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "bundle")
    text = (
        "opdyn-scenario v1\nname = th\nmode = theorem\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 40\nwitnesses = bundle\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 2


def test_run_dual_transitivity_mode(tmp_path):
    text = (
        "opdyn-scenario v1\nname = du\nmode = dual-transitivity\n"
        + CANONICAL_LINES
        + "m = 1\nk_max = 40\nadjoint_weights = true\n"
    )
    path = write_scenario(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli("run", path, "--out", str(out)) == 0
    assert "eta_k0001.finmat" in os.listdir(out)


def test_run_dual_transitivity_rows_do_not_depend_on_witness_sharing(tmp_path):
    # the default bundle shares one P_m object over all k; a loaded bundle
    # holds one object per k, equal matrices that the witness families
    # still move in one shift_multiply call for all k
    inst = canonical_instance(m=3, r1=1, k_max=30)
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "bundle")
    text = (
        "opdyn-scenario v1\nname = du\nmode = dual-transitivity\n"
        + CANONICAL_LINES
        + "m = 3\nk_max = 30\nadjoint_weights = true\n"
    )
    runs = {}
    for name, extra in (("shared", ""), ("loaded", "witnesses = bundle\n")):
        path = write_scenario(tmp_path, text + extra, f"{name}.scenario")
        out = tmp_path / name
        assert run_cli("run", path, "--out", str(out)) in (0, 1)
        lines = (out / "report.csv").read_text().splitlines()
        rows = [line for line in lines if line.startswith("wstar-dist(")]
        etas = {p.name: p.read_bytes() for p in sorted(out.glob("eta_k*.finmat"))}
        runs[name] = rows, etas
    assert len(runs["shared"][0]) == 3 * 30 and len(runs["shared"][1]) == 30
    assert runs["loaded"] == runs["shared"]


def test_dual_transitivity_with_a_saved_bundle_walks_the_witness_families_once(
    tmp_path, monkeypatch
):
    # the saved default bundle of the dual workload: every witness has its
    # rows in [-n, n], so the bound column takes the families that the
    # witness conditions measured, and the outputs are those of a second walk
    spec = load("workloads").generate("dual", 0, str(tmp_path))
    inst = _dual_instance(load_scenario(spec.scenario))
    save_bundle(default_bundle(inst), inst.r_list, tmp_path / "bundle")
    with open(spec.scenario) as fh:
        path = write_scenario(tmp_path, fh.read() + "witnesses = bundle\n", "saved.scenario")
    family_norms, majorant_norms, calls = duality._family_norms, duality._majorant_norms, []
    monkeypatch.setattr(
        duality, "_family_norms", lambda *args: calls.append(1) or family_norms(*args)
    )
    runs = {}
    for name in ("once", "twice"):
        if name == "twice":
            monkeypatch.setattr(
                duality, "_majorant_norms", lambda inst, bundle, _: majorant_norms(inst, bundle)
            )
        calls.clear()
        out = tmp_path / name
        code = run_cli("run", path, "--out", str(out))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs[name] = code, len(calls), files
    assert [calls for _, calls, _ in runs.values()] == [1, 2]
    assert {"report.csv", "summary.txt", "eta_k0060.finmat"} <= set(runs["once"][2])
    assert runs["once"][::2] == runs["twice"][::2]


def test_run_dual_transitivity_overflowing_probe_sum_exits_five(tmp_path, capsys):
    # witnesses near the float maximum: a probe pairing of eta_k sums past
    # the float range, which is a non-finite value, not a crash
    inst = canonical_instance(m=2, r1=1, k_max=30)
    bundle = default_bundle(inst)

    def big(a):
        return FiniteMatrix({**dict(a.items()), (0, 0): 1.5e308})

    bundle = replace(
        bundle,
        d_seq=tuple(map(big, bundle.d_seq)),
        g_seqs=tuple(tuple(map(big, seq)) for seq in bundle.g_seqs),
    )
    save_bundle(bundle, inst.r_list, tmp_path / "bundle")
    text = (
        "opdyn-scenario v1\nname = du\nmode = dual-transitivity\n"
        + CANONICAL_LINES
        + "m = 2\nk_max = 30\nadjoint_weights = true\nwitnesses = bundle\n"
    )
    path = write_scenario(tmp_path, text)
    assert run_cli("run", path, "--out", str(tmp_path / "o")) == 5
    assert capsys.readouterr().err == "error: non-finite trace pairing with probe 1\n"


#: Three operators on a table unitary of the window [-6, 6], the third
#: weight an explicit table.
THREE_TABLE_LINES = """\
unitary = table -6:2 -5:-6 -4:5 -3:-4 -2:-5 -1:6 0:0 1:-3 2:1 3:-1 4:4 5:-2 6:3
weight1 = piecewise 2 1/2
weight2 = piecewise 3 1/3
weight3 = explicit 1.5 -3:2 0:0.25 4:3
r_list = 1 2 3
"""


@pytest.mark.parametrize("orientation", ["WFU", "UFW"])
@pytest.mark.parametrize("horizon, power", [(40, 42), (50, 51)])
def test_run_three_operator_dual_transitivity_past_the_horizon_exits_three(
    tmp_path, capsys, orientation, horizon, power
):
    # check_dual_sufficient meets the first over-horizon power, W3 at k = 14
    # or W3 at k = 17, before the eta_k are built
    text = (
        "opdyn-scenario v1\nname = three\nmode = dual-transitivity\n"
        + THREE_TABLE_LINES
        + f"orientation = {orientation}\nm = 2\nk_max = 20\nadjoint_weights = false\n"
    )
    path = write_scenario(tmp_path, text)
    argv = ("run", path, "--out", str(tmp_path / "o"), "--horizon", str(horizon))
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == f"error: shift power {power} exceeds horizon {horizon}\n"


def test_repeated_runs_are_byte_identical(tmp_path):
    path = write_scenario(tmp_path, corollary_text(m=1, k_max=35))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", path, "--out", str(out_a)) == 0
    assert run_cli("run", path, "--out", str(out_b)) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()
