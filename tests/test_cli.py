"""End-to-end CLI behaviour: outputs, JSON mode, exit codes."""

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbk3
from orbk3 import cli, inertia
from orbk3.cli import main
from orbk3.cyclotomic import ExactnessError
from orbk3.hrr import BUILTIN_CLASSES, tangent_bundle_class
from orbk3.inertia import MAX_SYMPLECTIC_ORDER, IdentityError, K3GModel, ModelError, SectorEntry
from orbk3.inertia import load_model, preset_cyclic
from orbk3.polyring import ConsistencyError, InputError
from orbk3.toystacks import GroupRingElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_points(capsys):
    code, out, _ = run(capsys, "fixed-points", "--order", "5")
    assert code == 0
    assert "f_5 = 4" in out


def test_fixed_points_json(capsys):
    code, out, _ = run(capsys, "fixed-points", "--order", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fixed_points"] == 2
    assert data["identity_residual"] == "1"


def test_fixed_points_out_of_range(capsys):
    code, _, err = run(capsys, "fixed-points", "--order", "9")
    assert code == 2
    assert "error" in err


def test_dim_presets(capsys):
    code, out, _ = run(capsys, "dim", "--preset", "cyclic:2", "--class", "TX")
    assert code == 0
    assert "-40" in out and "42" in out

    code, out, _ = run(capsys, "dim", "--preset", "trivial", "--class", "TX", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"pairing": "-88", "dimension": "90"}


def test_dim_builtin_classes(capsys):
    for name, pairing, dim in (("OX", "2", "0"), ("Op", "0", "2")):
        code, out, _ = run(
            capsys, "dim", "--preset", "cyclic:3", "--class", name, "--json"
        )
        assert code == 0
        assert json.loads(out) == {"pairing": pairing, "dimension": dim}


def test_dim_class_from_file(capsys, tmp_path):
    model = preset_cyclic(2)
    from orbk3.hrr import tangent_bundle_class

    path = tmp_path / "tx.json"
    path.write_text(json.dumps(tangent_bundle_class(model).to_json()))
    code, out, _ = run(
        capsys, "dim", "--preset", "cyclic:2", "--class", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == "42"


def test_dim_missing_class_file(capsys):
    code, _, err = run(capsys, "dim", "--preset", "trivial", "--class", "/nonexistent.json")
    assert code == 2


def test_hilb_enum(capsys):
    code, out, _ = run(capsys, "hilb-enum", "--length", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["count"]) for r in rows] == [(1, 8), (2, 8), (3, 56)]


def test_verify_identity_preset(capsys):
    code, out, _ = run(capsys, "verify-identity", "--preset", "cyclic:6")
    assert code == 0
    assert "1 (exact)" in out


# The unit identity is evaluated once, where the model is built: fixed-points inverts once
# per divisor of 8 in the solver (3), and the identity of preset_cyclic(8) takes one inverse
# per eigenvalue order, its Galois conjugates summed by one `galois_sum` (3).
@pytest.mark.parametrize(
    "argv, inverses",
    [(["fixed-points", "--order", "8"], 6), (["verify-identity", "--preset", "cyclic:8"], 3)],
)
def test_unit_identity_is_evaluated_once(capsys, inverse_calls, argv, inverses):
    code, _, _ = run(capsys, *argv)
    assert (code, len(inverse_calls)) == (0, inverses)


def _bad_model_file(tmp_path) -> str:
    """A model file whose unit identity fails: cyclic:2 with one orbit dropped."""
    good = preset_cyclic(2)
    sectors = list(good.sectors)[:-1]  # drop one orbit: identity now < 1
    model = K3GModel(good.group, sectors, good.lattice, validate=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model.to_json()))
    return str(path)


def test_verify_identity_bad_model(capsys, tmp_path):
    code, _, err = run(capsys, "verify-identity", "--model", _bad_model_file(tmp_path))
    assert code == 3
    assert "FAILED" in err


def test_model_load_validation_exit_code(capsys, tmp_path):
    path = _bad_model_file(tmp_path)
    # dim validates the model on load unless --no-validate is passed
    code, _, err = run(capsys, "dim", "--model", path, "--class", "Op")
    assert code == 3
    code, out, _ = run(capsys, "dim", "--model", path, "--class", "Op", "--no-validate", "--json")
    assert code == 0


def test_schema_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"group": {"cayley": [[0]]}}))
    code, _, err = run(capsys, "verify-identity", "--model", str(path))
    assert code == 2


MALFORMED_FILES = {
    "cayley-not-a-group": ("--model", "group", {"cayley": [[0, 1], [1, 1]]}),
    "too-few-twisted": ("--class", "twisted", ["1"]),
    "zero-field-order": ("--class", "twisted", ["c[0]: 1"] * 8),
    "non-string-entry": ("--class", "twisted", [5] * 8),
    "zero-denominator": ("--class", "twisted", ["1/0"] * 8),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_model_and_class_files_exit_2(capsys, tmp_path, case):
    from orbk3.hrr import tangent_bundle_class

    flag, key, value = MALFORMED_FILES[case]
    model = preset_cyclic(2)
    data = model.to_json() if flag == "--model" else tangent_bundle_class(model).to_json()
    assert len(model.sectors) == 8
    data[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    other = ["--class", "OX"] if flag == "--model" else ["--preset", "cyclic:2"]
    code, _, err = run(capsys, "dim", flag, str(path), *other)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


# Malformed inputs, each of which must exit 2 with an `error:` line.  A file case replaces
# the value at a key path in the cyclic:2 model or in its TX class (the empty path
# replaces the whole document); an argv case that starts with an option is appended to
# `check-hypotheses --r 1 --s 1`, and one that starts with a command is the whole argv.
MALFORMED_INPUTS = {
    "sector-class-string": ("--model", ("sectors", 0, "class"), "x"),
    "sectors-int": ("--model", ("sectors",), 5),
    "sector-entry-int": ("--model", ("sectors", 0), 5),
    "cayley-int": ("--model", ("group", "cayley"), 5),
    "cayley-entry-string": ("--model", ("group", "cayley", 0, 0), "a"),
    "labels-string": ("--model", ("group", "labels"), "ab"),
    "labels-nested": ("--model", ("group", "labels"), [[1], [2]]),
    "gram-int": ("--model", ("lattice", "gram"), 5),
    "model-is-a-list": ("--model", (), [1, 2]),
    "sector-class-infinite": ("--model", ("sectors", 0, "class"), float("inf")),
    "mukai-int": ("--class", ("mukai",), 5),
    "c1-int": ("--class", ("mukai", "c1"), 5),
    "rank-string": ("--class", ("mukai", "r"), "x"),
    "rank-infinite": ("--class", ("mukai", "r"), float("inf")),
    "field-order-100000": ("--class", ("twisted", 0), "c[100000]: 1"),
    "gram-not-json": ["--gram", "x"],
    "gram-not-a-matrix": ["--gram", "5"],
    "gram-object": ["--gram", "{}"],
    "gram-string": ["--gram", '""'],
    "gram-row-object": ["--gram", "[{}]"],
    "lattice-objects": ("--model", ("lattice",), {"gram": {}, "ample": {}}),
    "gram-entry-string": ["--gram", '[["a"]]'],
    "gram-entry-infinite": ["--gram", "[[1e400]]"],
    "ample-not-integers": ["--gram", "[[2]]", "--ample", "x"],
    "c1-not-integers-with-gram": ["--gram", "[[2]]", "--c1", "x"],
    "c1-not-integers-without-gram": ["--c1", "x"],
    # numbers past 1000 digits, whose products would pass Python's 4300-digit limit on printing
    "twisted-exponent-notation": ("--class", ("twisted", 0), "1e3000"),
    "twisted-2200-digits": ("--class", ("twisted", 0), "c[2]: " + "9" * 2200),
    "mukai-2500-digits": ("--class", ("mukai",), {"r": int("9" * 2500), "c1": [0], "s": int("9" * 2500)}),
    "ample-and-c1-2500-digits": ["--gram", "[[2]]", "--ample", "9" * 2500, "--c1", "9" * 2500],
    "gram-entry-1001-digits": ["--gram", f"[[{'8' * 1001}]]"],
    "gram-not-square": ["check-hypotheses", "--r", "1", "--s", "0", "--gram", "[[2,0]]"],
    "wps-nine-weights": ["wps-euler", "--weights", "1,1,1,1,1,1,1,1,1"],
    "wps-weight-sum-65": ["wps-euler", "--weights", "32,33"],
    # eight entries 1/q with distinct 1000-digit q: the pairing has a denominator of ~16000 digits
    "pairing-beyond-4000-digits": (
        "--class", ("twisted",), [f"1/{random.Random(i).randrange(10**999, 10**1000)}" for i in range(8)]
    ),
}


def _malformed_argv(case, tmp_path):
    if isinstance(case, list):
        return ["check-hypotheses", "--r", "1", "--s", "1", *case] if case[0].startswith("-") else case
    flag, path, value = case
    model = preset_cyclic(2)
    data = model.to_json() if flag == "--model" else tangent_bundle_class(model).to_json()
    if path:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        data = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(data))
    other = ["--class", "OX"] if flag == "--model" else ["--preset", "cyclic:2"]
    return ["dim", flag, str(file), *other]


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_exit_2_without_traceback(capsys, tmp_path, case):
    code, _, err = run(capsys, *_malformed_argv(MALFORMED_INPUTS[case], tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["wps-nine-weights", "wps-weight-sum-65"])
def test_wps_limits_are_named(capsys, tmp_path, case):
    code, _, err = run(capsys, *_malformed_argv(MALFORMED_INPUTS[case], tmp_path))
    assert (code, err) == (2, "error: at most 8 weights with sum at most 64\n")


_LONG_ORDER_MODEL = preset_cyclic(2).to_json()
_LONG_ORDER_MODEL["group"]["order"] = int("9" * 1001)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[" * 100000, json.dumps(_LONG_ORDER_MODEL).encode()],
    ids=["not-utf8", "too-deep", "order-1001-digits"],
)
def test_undecodable_model_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "dim", "--model", str(path), "--class", "OX")
    assert code == 2
    assert err.startswith("error: cannot read model")
    # `dim --model` reads the file through `load_model`, so both stop at the same ModelError
    with pytest.raises(ModelError, match="^cannot read model: ") as info:
        load_model(str(path))
    assert isinstance(info.value.__cause__, (RecursionError, ValueError))
    assert err == f"error: {info.value}\n"
    if content[:1] == b"{":
        assert str(info.value) == "cannot read model: integer of more than 1000 digits"


@pytest.mark.parametrize(
    "case", sorted(case for case, value in MALFORMED_INPUTS.items() if isinstance(value, tuple) and value[0] == "--model")
)
def test_malformed_model_files_raise_input_error_on_load(capsys, tmp_path, case):
    # the library's loader rejects each model file that `dim --model` rejects
    argv = _malformed_argv(MALFORMED_INPUTS[case], tmp_path)
    assert run(capsys, *argv)[0] == 2
    with pytest.raises(InputError):
        load_model(argv[2])


def test_dimension_cross_check_failure_exits_4(capsys, monkeypatch):
    # zero sector weights drop the twisted sum, so the pairing misses every dimension of the table
    monkeypatch.setattr(K3GModel, "sector_weights", lambda model: (0,) * len(model.sectors))
    code, _, err = run(capsys, "hilb-enum", "--length", "2")
    assert code == 4
    assert err.startswith("internal consistency failure: dimension mismatch")


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("orbk3 ")]


def test_readme_cli_block_is_not_empty():
    assert len(_readme_commands()) >= 9


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out and "Traceback" not in err


def test_parseval_cli(capsys):
    code, out, _ = run(capsys, "parseval", "--n", "8", "--trials", "20", "--seed", "1")
    assert code == 0
    assert "seed = 1" in out
    code, out, _ = run(capsys, "parseval", "--n", "5", "--json")
    assert json.loads(out)["failures"] == 0


def test_wps_euler_cli(capsys):
    code, out, _ = run(capsys, "wps-euler", "--weights", "1,1,2", "--json")
    assert code == 0
    assert json.loads(out)["relation_zero"] is True
    code, _, err = run(capsys, "wps-euler", "--weights", "1,x")
    assert code == 2


def test_bg_count_cli(capsys):
    code, out, _ = run(capsys, "bg-count", "--n", "2", "--degree", "3", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_check_hypotheses_cli(capsys):
    code, out, _ = run(
        capsys,
        "check-hypotheses", "--r", "2", "--s", "-22", "--d", "0", "--generic", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["primitive"] is False
    assert data["main_theorem_hypotheses"] is False

    code, out, _ = run(
        capsys,
        "check-hypotheses", "--r", "1", "--s", "-1", "--d", "0", "--generic", "--json",
    )
    data = json.loads(out)
    assert data["main_theorem_hypotheses"] is True

    code, out, _ = run(
        capsys,
        "check-hypotheses", "--r", "1", "--s", "0", "--gram", "[[16]]",
        "--ample", "1", "--c1", "1", "--generic", "--json",
    )
    data = json.loads(out)
    assert data["degree"] == 16
    assert data["main_theorem_hypotheses"] is True

    # --d without a lattice at nonzero degree, with and without --generic
    for d, generic, expected in (
        ("3", False, {
            "degree": 3, "gcd_r_d_is_one": True, "gcd_r_d_s_is_one": True,
            "generic_polarization": False, "main_theorem_hypotheses": False,
            "positive_degree": True, "positive_rank": True, "primitive": True,
            "smoothness_hypotheses": True,
        }),
        ("3", True, {
            "degree": 3, "gcd_r_d_is_one": True, "gcd_r_d_s_is_one": True,
            "generic_polarization": True, "main_theorem_hypotheses": True,
            "positive_degree": True, "positive_rank": True, "primitive": True,
            "smoothness_hypotheses": True,
        }),
        ("-2", False, {
            "degree": -2, "gcd_r_d_is_one": False, "gcd_r_d_s_is_one": True,
            "generic_polarization": False, "main_theorem_hypotheses": False,
            "positive_degree": False, "positive_rank": True, "primitive": True,
            "smoothness_hypotheses": True,
        }),
        ("-2", True, {
            "degree": -2, "gcd_r_d_is_one": False, "gcd_r_d_s_is_one": True,
            "generic_polarization": True, "main_theorem_hypotheses": False,
            "positive_degree": False, "positive_rank": True, "primitive": True,
            "smoothness_hypotheses": True,
        }),
    ):
        argv = ["check-hypotheses", "--r", "2", "--s", "1", "--d", d, "--json"]
        code, out, _ = run(capsys, *argv + (["--generic"] if generic else []))
        assert code == 0
        assert json.loads(out) == expected


def test_check_hypotheses_usage_errors(capsys):
    code, _, err = run(capsys, "check-hypotheses", "--r", "1", "--s", "0")
    assert code == 2
    code, _, err = run(
        capsys, "check-hypotheses", "--r", "1", "--s", "0", "--d", "1", "--c1", "1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["wps-euler", "--weights", "0,1"],
        ["bg-count", "--n", "0", "--degree", "1"],
        ["bg-count", "--n", "2", "--degree", "-1"],
        ["parseval", "--n", "0"],
        ["parseval", "--n", "3", "--trials", "-3"],
    ],
)
def test_domain_errors_exit_2(argv):
    src = str(Path(orbk3.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "orbk3.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_json_output_is_stable(capsys):
    code, first, _ = run(capsys, "fixed-points", "--order", "3", "--json")
    code, second, _ = run(capsys, "fixed-points", "--order", "3", "--json")
    assert first == second


def _ints(limit):
    """Integers across a documented limit and far beyond it, both signs."""
    return st.one_of(st.integers(-2, limit + 2), st.integers(-(10**30), 10**30))


# Comma-list tokens and flag values, valid and malformed, for the string-valued flags.
NON_INTEGERS = ["x", "", " ", "1.5", "1e3", "0x10", "--", "9" * 5000]
INT_LISTS = ["1", "0", "1,0", "2,-1", "16", "3,3,3", "x", "", "1,,2", "1.5", "9" * 5000]
GRAMS = [
    "[[16]]", "[[2]]", "[[-2, 1], [1, 0]]", "[[2, 1], [1, 2]]", "[]", "[[1]]", "[[2, 1], [0, 2]]",
    "[[2], [2]]", "x", "5", "null", '"ab"', '{"a": 1}', '[["a"]]', "[[1e400]]", "[[2.5]]", "[[2]", "[" * 5000,
]


def _optional(flag, values):
    """Either no flag at all, or the flag with one of the values."""
    return st.sampled_from([()] + [(flag, v) for v in values])


ARGV = st.one_of(
    st.tuples(st.just("fixed-points"), st.just("--order"), _ints(MAX_SYMPLECTIC_ORDER).map(str)),
    st.tuples(
        st.just("dim"), st.just("--preset"), _ints(MAX_SYMPLECTIC_ORDER).map("cyclic:{}".format),
        st.just("--class"), st.sampled_from(["OX", "Op", "TX"]),
    ),
    st.tuples(st.just("verify-identity"), st.just("--preset"), _ints(MAX_SYMPLECTIC_ORDER).map("cyclic:{}".format)),
    st.tuples(st.just("hilb-enum"), st.just("--length"), _ints(cli.HILB_MAX_LENGTH).map(str)),
    st.tuples(
        st.just("parseval"), st.just("--n"), _ints(cli.PARSEVAL_MAX_N).map(str),
        st.just("--trials"), _ints(cli.PARSEVAL_MAX_TRIALS).map(str),
        st.just("--seed"), _ints(0).map(str),
    ),
    st.tuples(
        st.just("wps-euler"), st.just("--weights"),
        st.lists(
            st.one_of(_ints(cli.WPS_MAX_WEIGHT_SUM // 4).map(str), st.sampled_from(NON_INTEGERS)),
            min_size=1, max_size=cli.WPS_MAX_WEIGHTS + 2,
        ).map(",".join),
    ),
    st.tuples(
        st.just("bg-count"), st.just("--n"), _ints(cli.BG_MAX_N).map(str),
        st.just("--degree"), _ints(cli.BG_MAX_DEGREE).map(str),
    ),
    st.tuples(
        st.just("check-hypotheses"), st.just("--r"), _ints(3).map(str),
        st.just("--s"), _ints(3).map(str), st.just("--d"), _ints(3).map(str),
    ),
    st.tuples(
        st.just(("check-hypotheses", "--r")), _ints(3).map(lambda r: (str(r),)),
        st.just(("--s",)), _ints(3).map(lambda s: (str(s),)),
        _optional("--d", [str(d) for d in range(-3, 4)]),
        _optional("--gram", GRAMS), _optional("--ample", INT_LISTS), _optional("--c1", INT_LISTS),
    ).map(lambda parts: sum(parts, ())),
)


@settings(max_examples=150, deadline=None)
@given(ARGV, st.booleans())
def test_argv_fuzz_exit_codes(argv, as_json):
    argv = list(argv) + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()


def _raise_exactness(*args):
    raise ExactnessError("not a rational element")


def _scaled_weight(lam, inverse=inertia.inverse_one_minus_re):
    """3/2 times the sector weight 1/(1 - Re lambda), so the fixed-point solve is not integral."""
    return inverse(lam) * Fraction(3, 2)


def _one_class_past_the_norm_bound(total, norm_bound, slots):
    """The one vector (total, 0, ..., 0) whatever the bound: for n = 0 and total 1, sum m_i^2 > n."""
    return [(total,) + (0,) * (slots - 1)]


# A failed self-check in a subcommand: (dotted name patched where the check calls it,
# replacement, argv, exit code, stderr prefix).  The unit identity runs where the model
# is built, so verify-identity fails through `inertia.validate_identity`.
CONSISTENCY = "internal consistency failure: "
FAILURE_BRANCHES = {
    "fixed-points": (
        "orbk3.cli.fixed_points_closed_form", lambda n: -1, ["fixed-points", "--order", "5"], 4, CONSISTENCY,
    ),
    "verify-identity": (
        "orbk3.inertia.validate_identity", lambda model: Fraction(7, 8), ["verify-identity", "--preset", "cyclic:2"],
        3, "model integrity failure: unit identity FAILED",
    ),
    "parseval": (
        "orbk3.cli.parseval_check", lambda f, g: False, ["parseval", "--n", "3", "--trials", "2"], 4, CONSISTENCY,
    ),
    "wps-euler": (
        "orbk3.cli._wps_euler_and_relation", lambda weights: (GroupRingElement(1, ()), GroupRingElement(1, (1,))),
        ["wps-euler", "--weights", "1,2"], 4, CONSISTENCY,
    ),
    "dim-preset-builtin-irrational": (
        "orbk3.cli.euler_pairing", _raise_exactness, ["dim", "--preset", "cyclic:2", "--class", "TX"], 4, CONSISTENCY,
    ),
    # an order in range whose solve is not integral: the solver, not the argument, is at fault
    "fixed-points-solve": (
        "orbk3.inertia.inverse_one_minus_re", _scaled_weight, ["fixed-points", "--order", "4"],
        4, CONSISTENCY + "fixed point solve for n=2 gave non-integer 16/3",
    ),
    # a class of negative dimension in the table, on which the pairing and dim_ade agree
    "hilb-enum-negative-dimension": (
        "orbk3.hilbert._vectors_with_sum_and_norm", _one_class_past_the_norm_bound, ["hilb-enum", "--length", "1"],
        4, CONSISTENCY + "dimension -2 of the class n = 0, m = (1, 0, 0, 0, 0, 0, 0, 0) is negative or odd",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURE_BRANCHES))
@pytest.mark.parametrize("as_json", [False, True])
def test_failed_self_check_prints_one_stderr_line(capsys, monkeypatch, case, as_json):
    target, replacement, argv, want_code, prefix = FAILURE_BRANCHES[case]
    monkeypatch.setattr(target, replacement)
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == want_code
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_json_prints_one_document(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


def test_readme_has_an_example_of_each_subcommand():
    assert len({argv[0] for argv in _readme_commands()}) == 8


@pytest.mark.parametrize("command", [["dim", "--class", "OX"], ["verify-identity"]])
def test_model_and_preset_are_exclusive(capsys, tmp_path, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(preset_cyclic(2).to_json()))
    code, out, err = run(capsys, *command, "--model", str(path), "--preset", "cyclic:2")
    assert code == 2
    assert out == "" and "error: argument --preset: not allowed with argument --model" in err


# A built-in class written to a file with its first twisted entries replaced:
# (cyclic order, class, entries, exit code).  The pairing computes in Q(zeta_lcm) of the
# weight orders and the orders of all the entries; that order may not exceed 840,
# although each entry alone may stay below it.
CLASS_ENTRIES = {
    "lcm-1678": (2, "TX", ["c[839]: 1"], 2),
    "lcm-840": (8, "OX", ["c[105]: 1"], 0),
    "lcm-34034": (2, "OX", ["c[7]: 1", "c[11]: 1", "c[13]: 1", "c[17]: 1"], 2),
    "irrational-pairing": (5, "OX", ["c[5]: 1 + 1*z"], 2),
}


@pytest.mark.parametrize("case", sorted(CLASS_ENTRIES))
def test_class_entry_exit_codes(capsys, tmp_path, case):
    n, klass, entries, want_code = CLASS_ENTRIES[case]
    data = BUILTIN_CLASSES[klass](preset_cyclic(n)).to_json()
    data["twisted"][: len(entries)] = entries
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "dim", "--preset", f"cyclic:{n}", "--class", str(path), "--json")
    assert code == want_code, err
    if want_code:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


# cyclic:5 with one eigenvalue replaced by another primitive root: the unit identity is
# irrational, a failed integrity check of the model file, not of the library
@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command", [["verify-identity"], ["dim", "--class", "OX"]], ids=" ".join)
def test_irrational_unit_identity_exits_3(capsys, tmp_path, command, as_json):
    data = preset_cyclic(5).to_json()
    data["sectors"][0]["eig_exp"] = 2
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    argv = [*command, "--model", str(path), *(["--json"] if as_json else [])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("model integrity failure: unit identity FAILED: value c[5]: 51/50 + ")
    assert err.count("\n") == 1
    if command[0] == "dim":  # unchecked, the same model gives an irrational pairing
        code, out, err = run(capsys, *argv, "--no-validate")
        assert (code, out) == (2, "") and err.startswith("error: the pairing of this model and class")


# main builds its parser on the first call and reuses it: the top level, the --json parent
# and the eight subcommands are ten ArgumentParsers.
def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    calls = [
        ["fixed-points", "--order", "5"],
        ["fixed-points", "--order", "9"],
        ["fixed-points", "--bogus"],
        ["bg-count", "--n", "2", "--degree", "3", "--json"],
        ["fixed-points", "--order", "5"],
    ]
    seen = []
    for argv in calls:
        before = len(built)
        code, _, _ = run(capsys, *argv)
        seen.append((code, len(built) - before))
    assert seen == [(0, 10), (2, 0), (2, 0), (0, 0), (0, 0)]


# Sequences on the shared parser, each call next to the same argv on a freshly built one:
# a flag, a --json switch or an exclusive-group conflict of one call must not reach the next.
SHARED_PARSER_SEQUENCES = {
    "no-validate": [
        (["dim", "--model", "{bad}", "--no-validate", "--class", "OX"], 0),
        (["dim", "--model", "{bad}", "--class", "OX"], 3),
    ],
    "json": [
        (["dim", "--preset", "cyclic:3", "--class", "TX", "--json"], 0),
        (["dim", "--preset", "cyclic:3", "--class", "TX"], 0),
    ],
    "exclusive-group": [
        (["dim", "--model", "{bad}", "--preset", "cyclic:2", "--class", "OX"], 2),
        (["dim", "--preset", "cyclic:2", "--class", "OX"], 0),
    ],
    "usage-error": [
        (["fixed-points", "--order", "9"], 2),
        (["fixed-points", "--order", "5"], 0),
    ],
}


@pytest.mark.parametrize("case", sorted(SHARED_PARSER_SEQUENCES))
def test_no_state_leaks_between_calls(capsys, tmp_path, case):
    bad = _bad_model_file(tmp_path)
    sequence = [([a.format(bad=bad) for a in argv], code) for argv, code in SHARED_PARSER_SEQUENCES[case]]
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv, _ in sequence]
    fresh = []
    for argv, _ in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [code for _, code in sequence]


def _error_classes() -> dict:
    """module.Class -> class: every exception class that a module of orbk3 defines."""
    classes = {}
    for info in pkgutil.iter_modules(orbk3.__path__):
        module = importlib.import_module(f"orbk3.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__:
                classes[f"{info.name}.{value.__name__}"] = value
    return classes


def test_every_error_class_derives_from_a_mapped_base():
    # `main` maps IdentityError, the two bases and ExactnessError to exit codes 3, 4 and 2, so
    # an error class that derives from none of them would escape it as a traceback
    mapped = (InputError, ConsistencyError, ExactnessError)
    assert {name for name, cls in _error_classes().items() if not issubclass(cls, mapped)} == set()


# The exit code and stderr line of each error class of the library, raised by a subcommand.
ERROR_EXITS = {
    "cli.UsageError": 2,
    "cyclotomic.AmbientFieldError": 2,
    "cyclotomic.ExactnessError": 4,
    "groups.GroupError": 2,
    "hilbert.CrossCheckError": 4,
    "hilbert.HilbertError": 2,
    "hrr.SectorMismatchError": 2,
    "inertia.IdentityError": 3,
    "inertia.ModelError": 2,
    "lattice.LatticeError": 2,
    "polyring.ConsistencyError": 4,
    "polyring.InputError": 2,
    "toystacks.ToyStackError": 2,
}
ERROR_LINES = {
    2: "error: raised {}\n",
    3: "model integrity failure: unit identity FAILED: value 7/8, residual -1/8\n",
    4: "internal consistency failure: raised {}\n",
}


def test_error_exits_cover_every_error_class():
    assert set(ERROR_EXITS) == set(_error_classes())


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
@pytest.mark.parametrize("as_json", [False, True])
def test_exception_type_alone_sets_the_exit_code(capsys, monkeypatch, name, as_json):
    cls = _error_classes()[name]
    exc = cls(Fraction(7, 8)) if issubclass(cls, IdentityError) else cls(f"raised {name}")

    def raising(n, degree):
        raise exc

    monkeypatch.setattr("orbk3.cli.bg_moduli_count", raising)
    code, out, err = run(capsys, "bg-count", "--n", "2", "--degree", "3", *(["--json"] if as_json else []))
    assert (code, out) == (ERROR_EXITS[name], "")
    assert err == ERROR_LINES[code].format(name)
