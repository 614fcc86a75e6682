"""Command-line frontend.

Every number is printed exactly: rationals as p/q, cyclotomic values in the
`c[L]: ...` format.  Each subcommand returns (JSON payload, text) and `main`
prints one of them.  A subcommand fails by raising, and the exception's type
alone sets the exit code and the one stderr line: 0 success; 2 an `InputError`,
a usage or schema error ("error: ..."), also for model or class files whose
pairing is not rational or is too long to print; 3 an `IdentityError`, a unit
identity that is not 1, rational or not ("model integrity failure: ..."); 4 a
`ConsistencyError` or `ExactnessError` ("internal consistency failure: ...").
The two bases are `polyring`'s, and every error class of the library derives
from one of them or is `ExactnessError`.

--model and --preset are exclusive.  Values of field orders L1, ..., Lk meet
in Q(zeta_M), M = lcm(L1, ..., Lk); a computation that would build a field of
order M > 840 that none of its operands lives in exits 2 (`AmbientFieldError`).
The rule holds wherever values meet: a class paired with itself (`dim`), two
classes each fine alone (`euler_pairing(model, x, y)`), a character table.

`main(argv)` may be called repeatedly in one process.  The parser is built on
the first call and reused (`build_parser` is cached); argparse keeps all parse
state local to each `parse_args` call.  The subcommand functions are bound
once, when the parser is built, so rebinding a `cmd_*` name later does not
reach `main`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

from . import __version__
from .cyclotomic import ExactnessError, _bounded_int, _read_json
from .hilbert import enumerate_mu2
from .hrr import BUILTIN_CLASSES, EquivariantClass, euler_pairing
from .inertia import (
    MAX_SYMPLECTIC_ORDER,
    IdentityError,
    fixed_points_closed_form,
    load_model,
    preset_cyclic,
    solve_fixed_points_cyclic,
    trivial_model,
)
from .lattice import MukaiVector, PicardLattice, check_hypotheses, hypotheses_at_degree
from .polyring import ConsistencyError, InputError, format_poly
from .toystacks import GroupRingElement, _wps_euler_and_relation, bg_moduli_count, parseval_check

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4

# Size limits on integer arguments, so that every accepted argv has a bounded cost.  Whole-process
# `python -m orbk3.cli` wall time at the limits (2-vCPU x86-64, Python 3.11.7; `--version` takes
# 0.14 s): parseval 0.2-0.35 s, hilb-enum 0.14-0.19 s (median of nine 0.17 s, 499 classes at
# `--length 6`); wps-euler 0.1 s on 8,8,8,8,8,8,8,8 and 0.6-1.1 s on 5,6,7,8,9,9,10,10.
PARSEVAL_MAX_N = 12
PARSEVAL_MAX_TRIALS = 100
HILB_MAX_LENGTH = 6
BG_MAX_N = 1000
BG_MAX_DEGREE = 1000
WPS_MAX_WEIGHTS = 8
WPS_MAX_WEIGHT_SUM = 64
# Digits of the numerator or denominator of a printed pairing; 2 - pairing has at most one more,
# so both print within Python's limit.
_MAX_PRINTED_DIGITS = 4000


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """A comma-separated list of integers; UsageError otherwise."""
    try:
        return tuple(map(_bounded_int, text.split(",")))
    except ValueError as exc:
        raise UsageError(f"{flag} must be comma-separated integers, got {text!r}: {exc}") from exc


def _load_preset_or_model(args, validate: bool):
    """The model of --model or --preset; presets check the unit identity always."""
    if args.model:
        return load_model(args.model, validate=validate)
    spec = args.preset or "cyclic:2"
    if spec == "trivial":
        return trivial_model()
    if spec.startswith("cyclic:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad preset {spec!r}") from exc
        return preset_cyclic(n)
    raise UsageError(f"unknown preset {spec!r}; use trivial or cyclic:N")


class UsageError(InputError):
    pass


def _check_range(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise UsageError(f"{flag} must be between {low} and {high}, got {value}")


def cmd_fixed_points(args):
    n = args.order
    _check_range("--order", n, 2, MAX_SYMPLECTIC_ORDER)
    count = solve_fixed_points_cyclic(n)
    closed = fixed_points_closed_form(n)
    if count != closed:
        raise ConsistencyError(f"solver {count} != closed form {closed}")
    preset_cyclic(n)  # raises IdentityError unless the unit identity evaluates to 1
    return (
        {"order": n, "fixed_points": count, "identity_residual": "1"},
        f"f_{n} = {count} (unit identity evaluates to 1)",
    )


def cmd_dim(args):
    model = _load_preset_or_model(args, validate=not args.no_validate)
    builtin = args.klass in BUILTIN_CLASSES
    if builtin:
        cls = BUILTIN_CLASSES[args.klass](model)
    else:
        cls = EquivariantClass.from_json(_read_json(args.klass, "class", UsageError))
    try:
        pairing = euler_pairing(model, cls, cls)
    except ExactnessError as exc:
        if builtin and not args.model:
            raise  # a preset with a built-in class is rational by construction
        raise UsageError(f"the pairing of this model and class is not rational: {exc}") from exc
    if max(abs(pairing.numerator), pairing.denominator) >= 10**_MAX_PRINTED_DIGITS:
        raise UsageError(
            f"the pairing has a numerator or denominator of more than {_MAX_PRINTED_DIGITS} digits"
        )
    dim = 2 - pairing
    return (
        {"pairing": str(pairing), "dimension": str(dim)},
        f"<v~^2> = {pairing}\ndim = 2 - <v~^2> = {dim}",
    )


def cmd_hilb_enum(args):
    _check_range("--length", args.length, 0, HILB_MAX_LENGTH)
    rows = enumerate_mu2(args.length)
    lines = [f"l = {args.length}"]
    for r in rows:
        dims = ", ".join(map(str, r.dims))
        lines.append(f"  n = {r.n}: count = {r.count}, dims = [{dims}]")
    return [r.to_json() for r in rows], "\n".join(lines)


def cmd_verify_identity(args):
    _load_preset_or_model(args, validate=True)  # raises IdentityError unless the identity is 1
    return {"identity": "1", "exact": True}, "1 (exact)"


def cmd_parseval(args):
    _check_range("--n", args.n, 1, PARSEVAL_MAX_N)
    _check_range("--trials", args.trials, 0, PARSEVAL_MAX_TRIALS)
    rng = random.Random(args.seed)
    n = args.n
    failures = 0
    for _ in range(args.trials):
        f = GroupRingElement(n, tuple(rng.randint(-9, 9) for _ in range(n)))
        g = GroupRingElement(n, tuple(rng.randint(-9, 9) for _ in range(n)))
        if not parseval_check(f, g):
            failures += 1
    if failures:
        raise ConsistencyError(
            f"Parseval failed in {failures} of {args.trials} trials (n = {n}, seed = {args.seed})"
        )
    return (
        {"n": n, "trials": args.trials, "seed": args.seed, "failures": failures},
        f"pass ({args.trials} trials, n = {n}, seed = {args.seed})",
    )


def cmd_wps_euler(args):
    weights = _int_list("--weights", args.weights)
    if len(weights) > WPS_MAX_WEIGHTS or sum(weights) > WPS_MAX_WEIGHT_SUM:
        raise UsageError(
            f"at most {WPS_MAX_WEIGHTS} weights with sum at most {WPS_MAX_WEIGHT_SUM}"
        )
    euler, relation = _wps_euler_and_relation(weights)
    euler_class = format_poly(euler.coeffs)
    if not relation.is_zero():
        raise ConsistencyError(f"relation element nonzero: {relation}")
    return (
        {"weights": list(weights), "euler_class": euler_class, "relation_zero": True},
        f"e^K(T) = {euler_class}\nrelation prod(1 - x^-a_i) = 0 (exact)",
    )


def cmd_bg_count(args):
    _check_range("--n", args.n, 1, BG_MAX_N)
    _check_range("--degree", args.degree, 0, BG_MAX_DEGREE)
    count = bg_moduli_count(args.n, args.degree)
    return {"n": args.n, "degree": args.degree, "count": count}, f"l_({args.n},{args.degree}) = {count}"


def cmd_check_hypotheses(args):
    if args.gram is not None:
        if args.d is not None:
            raise UsageError("--d excludes --gram: the lattice determines the degree")
        try:
            gram = json.loads(args.gram, parse_int=_bounded_int)
            rank = len(gram)
        except (RecursionError, TypeError, ValueError) as exc:
            raise UsageError(f"--gram must be a JSON matrix, got {args.gram!r}: {exc}") from exc
        ample = _int_list("--ample", args.ample) if args.ample is not None else (1,) * rank
        lattice = PicardLattice.from_json({"gram": gram, "ample": ample})
        c1 = _int_list("--c1", args.c1) if args.c1 is not None else lattice.zero_class()
        report = check_hypotheses(lattice, MukaiVector(args.r, c1, args.s), generic=args.generic)
    else:
        # degree supplied directly: c1 is unknown, so primitivity is that of (r, s)
        if args.d is None:
            raise UsageError("give either --gram/--ample/--c1 or --d")
        if args.c1 is not None or args.ample is not None:
            raise UsageError("--c1 and --ample require --gram")
        report = hypotheses_at_degree(MukaiVector(args.r, (), args.s), args.d, args.generic)
    payload = report.to_json()
    return payload, "\n".join(f"{key} = {value}" for key, value in payload.items())


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbk3",
        description="Exact orbifold Riemann-Roch invariants for [K3/G].",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="print one JSON document")

    def command(name, func, help):
        p = sub.add_parser(name, help=help, parents=[json_flag])
        p.set_defaults(func=func)
        return p

    def add_model_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--model", help="path to a JSON model file")
        source.add_argument("--preset", help="trivial or cyclic:N (2 <= N <= 8)")

    p = command("fixed-points", cmd_fixed_points, "solve for the fixed-point count f_n")
    p.add_argument("--order", type=int, required=True)

    p = command("dim", cmd_dim, "orbifold pairing and moduli dimension of a class")
    add_model_args(p)
    p.add_argument("--no-validate", action="store_true", help="skip the unit-identity check on load")
    p.add_argument("--class", dest="klass", required=True, help="OX, Op, TX, or a JSON class file")

    p = command("hilb-enum", cmd_hilb_enum, "enumerate mu_2 equivariant Hilbert classes by length")
    p.add_argument("--length", type=int, required=True, help=f"0 <= LENGTH <= {HILB_MAX_LENGTH}")

    p = command("verify-identity", cmd_verify_identity, "evaluate the unit identity for a model")
    add_model_args(p)

    p = command("parseval", cmd_parseval, "randomized Parseval property check")
    p.add_argument("--n", type=int, required=True, help=f"group order, 1 <= N <= {PARSEVAL_MAX_N}")
    p.add_argument(
        "--trials", type=int, default=100, help=f"0 <= TRIALS <= {PARSEVAL_MAX_TRIALS} (default 100)"
    )
    p.add_argument("--seed", type=int, default=0)

    p = command("wps-euler", cmd_wps_euler, "tangent Euler class of a weighted projective stack")
    p.add_argument(
        "--weights",
        required=True,
        help=f"comma-separated positive weights, at most {WPS_MAX_WEIGHTS}, sum <= {WPS_MAX_WEIGHT_SUM}",
    )

    p = command("bg-count", cmd_bg_count, "count classes of given degree on B(mu_n)")
    p.add_argument("--n", type=int, required=True, help=f"1 <= N <= {BG_MAX_N}")
    p.add_argument("--degree", type=int, required=True, help=f"0 <= DEGREE <= {BG_MAX_DEGREE}")

    p = command(
        "check-hypotheses", cmd_check_hypotheses, "theorem-hypothesis predicates for a Mukai vector"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, help="degree (c1 . h), if no lattice is given")
    p.add_argument("--c1", help="comma-separated coordinates (requires --gram)")
    p.add_argument("--gram", help="Gram matrix as JSON of integers, e.g. [[16]]; excludes --d")
    p.add_argument("--ample", help="comma-separated ample class coordinates (requires --gram)")
    p.add_argument("--generic", action="store_true", help="assert the polarization is generic")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; print its result or one stderr line, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        payload, text = args.func(args)
    except IdentityError as exc:  # an InputError too, so caught first
        print(
            f"model integrity failure: unit identity FAILED: value {exc.value}, residual {exc.value - 1}",
            file=sys.stderr,
        )
        return EXIT_MODEL
    except (ConsistencyError, ExactnessError) as exc:  # before InputError: CrossCheckError is both
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except InputError as exc:  # bad argument values, out-of-range presets and malformed descriptors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
