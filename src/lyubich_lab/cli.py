"""Config-driven experiment runner.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (root finder or eigensolver).
"""

import argparse
import json
import sys
import time

import numpy as np

from . import bimodule_basis, lyubich_measure, operator_lab, test_functions
from .errors import (BudgetExceeded, CoverFailure, DegenerateSample,
                     EigSolverFailure, ExceptionalRoot, InvalidMapError,
                     LyubichLabError, RootFindingFailure)
from .preimage_solver import DEFAULT_BUDGET, iterated_preimages, preimages, sampled_tree
from .rational_map import RationalMap, builtin_map
from .sphere import INFINITY, SpherePoint
from .transfer_operator import transfer_power

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_IDENTITIES = sorted(operator_lab.TOLERANCES)


class ConfigError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        raise ConfigError("infinity is not a valid finite input here")
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad complex entry {text!r}") from exc


def _parse_point(text: str) -> SpherePoint:
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    return SpherePoint(_parse_complex(text))


def _parse_coeff_list(tokens) -> list:
    entries = []
    for token in tokens:
        entries.extend(t for t in token.split(";") if t.strip())
    return [_parse_complex(t) for t in entries]


_NAMED_FUNCTIONS = {
    "1": test_functions.ONE,
    "one": test_functions.ONE,
    "z": test_functions.Z,
    "zbar": test_functions.ZBAR,
    "rez": test_functions.RE,
    "imz": test_functions.IM,
    "abs": test_functions.ABS,
    "abs2": test_functions.ABS2,
    "x2": test_functions.RE2,
    "rez2": test_functions.RE2,
    "x4": test_functions.RE4,
    "rez4": test_functions.RE4,
}


def parse_test_function(spec: str):
    """Named forms, 'poly:j,k,re,im;...', or 'absdist:re,im'."""
    spec = spec.strip()
    if spec.lower() in _NAMED_FUNCTIONS:
        return _NAMED_FUNCTIONS[spec.lower()]
    if spec.startswith("poly:"):
        coeffs = {}
        for term in spec[5:].split(";"):
            if not term.strip():
                continue
            fields = term.split(",")
            if len(fields) != 4:
                raise ConfigError(f"bad poly term {term!r}; expected j,k,re,im")
            j, k = int(fields[0]), int(fields[1])
            coeffs[(j, k)] = complex(float(fields[2]), float(fields[3]))
        return test_functions.TestFunction.polynomial(coeffs, name=spec)
    if spec.startswith("absdist:"):
        return test_functions.abs_distance(_parse_complex(spec[8:]), name=spec)
    raise ConfigError(f"unknown test function spec {spec!r}; "
                      f"named forms: {sorted(_NAMED_FUNCTIONS)}")


def _build_map(args) -> RationalMap:
    if args.map:
        if args.num or args.den:
            raise ConfigError("give either --map or --num/--den, not both")
        return builtin_map(args.map)
    if not args.num or not args.den:
        raise ConfigError("a map requires --map NAME or both --num and --den")
    return RationalMap(_parse_coeff_list(args.num), _parse_coeff_list(args.den),
                       name="custom")


def _emit(payload: dict, args) -> None:
    payload = dict(payload)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, indent=2, default=_json_default)
    if args.out and not str(args.out).endswith(".csv"):
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.json or not args.out:
        print(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _point_json(p: SpherePoint):
    return "inf" if p.infinite else [p.value.real, p.value.imag]


# ----------------------------------------------------------------------
# commands


def _cmd_preimages(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    fib = preimages(rmap, w)
    _emit({
        "command": "preimages",
        "map": rmap.describe(),
        "w": _point_json(w),
        "atoms": [{"point": _point_json(p), "mult": m} for p, m in fib.atoms],
    }, args)
    return EXIT_OK


def _make_tree(args, rmap, w):
    if args.branches is not None:
        return sampled_tree(rmap, w, args.depth, args.branches,
                            seed=args.seed, budget=args.budget)
    return iterated_preimages(rmap, w, args.depth, budget=args.budget)


def _cmd_tree(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    tree = _make_tree(args, rmap, w)
    if args.out and str(args.out).endswith(".csv"):
        tree.to_csv(args.out)
    _emit({
        "command": "tree",
        "map": rmap.describe(),
        "w": _point_json(w),
        "depth": tree.depth,
        "weight_base": tree.weight_base,
        "level_sizes": [tree.atom_count(k) for k in range(tree.depth + 1)],
        "csv": str(args.out) if args.out else None,
    }, args)
    return EXIT_OK


def _cmd_julia(args) -> int:
    rmap = _build_map(args)
    sample = bimodule_basis.julia_sample(rmap, args.size, args.seed)
    if args.out and str(args.out).endswith(".csv"):
        import csv
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["re", "im"])
            for i in range(sample.size):
                if sample.inf_mask[i]:
                    writer.writerow(["inf", "inf"])
                else:
                    writer.writerow([repr(float(sample.points[i].real)),
                                     repr(float(sample.points[i].imag))])
    _emit({
        "command": "julia",
        "map": rmap.describe(),
        "size": sample.size,
        "method": sample.method,
        "seed": sample.seed,
        "csv": str(args.out) if args.out else None,
    }, args)
    return EXIT_OK


def _cmd_measure(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    tree = _make_tree(args, rmap, w)
    mu = lyubich_measure.measure_from_tree(tree)
    if args.out and str(args.out).endswith(".csv"):
        mu.to_csv(args.out)
    values = {}
    for spec in args.f or []:
        f = parse_test_function(spec)
        values[spec] = lyubich_measure.integrate(mu, f)
    _emit({
        "command": "measure",
        "map": rmap.describe(),
        "w": _point_json(w),
        "m": tree.depth,
        "weight_base": mu.base,
        "atoms": mu.size,
        "integrals": values,
        "csv": str(args.out) if args.out else None,
    }, args)
    return EXIT_OK


def _cmd_converge(args) -> int:
    rmap = _build_map(args)
    roots = ([_parse_point(t) for t in args.roots]
             if args.roots else [lyubich_measure.default_root(rmap)])
    depths = args.depths or [4, 8, args.depth]
    fs = [parse_test_function(s) for s in (args.f or ["x2"])]
    report = lyubich_measure.convergence_report(rmap, roots, depths, fs)
    report["command"] = "converge"
    report["map"] = rmap.describe()
    _emit(report, args)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    f = parse_test_function(args.f or "one")
    power = args.power if args.power is not None else 1
    value = transfer_power(rmap, f, power, w)
    _emit({
        "command": "transfer",
        "map": rmap.describe(),
        "w": _point_json(w),
        "f": f.name,
        "power": power,
        "value": value,
    }, args)
    return EXIT_OK


def _cmd_basis(args) -> int:
    rmap = _build_map(args)
    sample = bimodule_basis.julia_sample(rmap, args.size, args.seed)
    if args.radius is not None:
        basis = bimodule_basis.build_basis(rmap, sample, args.radius,
                                           count_cap=args.count_cap)
    else:
        basis = operator_lab.default_basis(rmap, sample, count=args.basis_count,
                                           count_cap=args.count_cap)
    destination = args.out
    bimodule_basis.basis_to_json(basis, destination if destination else None)
    args.out = None                    # the report goes to stdout only
    _emit({
        "command": "basis",
        "map": rmap.describe(),
        "elements": len(basis),
        "sectors": sum(1 for el in basis if el.is_sector),
        "json": str(destination) if destination else None,
    }, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rmap = _build_map(args)
    if args.identity == "all":
        identities = None
    elif args.identity in _IDENTITIES:
        identities = [args.identity]
    else:
        raise ConfigError(
            f"unknown identity {args.identity!r}; choose 'all' or one of {_IDENTITIES}")
    w = _parse_point(args.w) if args.w else None
    report = operator_lab.verification_suite(
        rmap, w=w, m=args.depth, seed=args.seed, trials=args.trials,
        pairs=args.pairs, basis_count=args.basis_count,
        sample_size=args.sample_size, identities=identities)
    report["command"] = "verify"
    _emit(report, args)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


# ----------------------------------------------------------------------
# argument wiring


def _add_map_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", help="built-in map name: quad, basilica, chebyshev")
    parser.add_argument("--num", nargs="+",
                        help="numerator coefficients, ascending, entries 're,im' "
                             "(separate with spaces or ';')")
    parser.add_argument("--den", nargs="+", help="denominator coefficients")
    parser.add_argument("--w", help="root point 're,im' (or 'inf')")
    parser.add_argument("--depth", type=int, default=8, help="tree depth m")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--out", help="output path (.csv for data, else JSON)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout as well")
    parser.add_argument("--config", help="JSON config file; flags override its keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyubich-lab",
        description="Numerical laboratory for preimage trees, the balanced "
                    "measure, and transfer/composition operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "preimages": ("solve one fiber", _cmd_preimages),
        "tree": ("build an iterated preimage tree", _cmd_tree),
        "julia": ("sample the Julia set", _cmd_julia),
        "measure": ("integrate test functions against the depth-m measure", _cmd_measure),
        "converge": ("convergence diagnostics across depths and roots", _cmd_converge),
        "transfer": ("apply the transfer operator", _cmd_transfer),
        "basis": ("build and export a bimodule basis", _cmd_basis),
        "verify": ("check operator identities", _cmd_verify),
    }
    parsers = {}
    for name, (help_text, _) in specs.items():
        p = sub.add_parser(name, help=help_text)
        _add_map_arguments(p)
        parsers[name] = p

    parsers["tree"].add_argument("--branches", type=int, default=None,
                                 help="sampled tree with this many branches per node")
    parsers["measure"].add_argument("--branches", type=int, default=None)
    parsers["measure"].add_argument("--f", nargs="+", help="test function specs")
    parsers["julia"].add_argument("--size", type=int, default=512)
    parsers["converge"].add_argument("--roots", nargs="+",
                                     help="root points 're,im'")
    parsers["converge"].add_argument("--depths", nargs="+", type=int)
    parsers["converge"].add_argument("--f", nargs="+")
    parsers["transfer"].add_argument("--f", help="test function spec")
    parsers["transfer"].add_argument("--power", type=int, default=None)
    parsers["basis"].add_argument("--size", type=int, default=384)
    parsers["basis"].add_argument("--radius", type=float, default=None)
    parsers["basis"].add_argument("--count-cap", dest="count_cap", type=int, default=256)
    parsers["basis"].add_argument("--basis-count", dest="basis_count", type=int, default=32)
    parsers["verify"].add_argument("identity", nargs="?", default="all",
                                   help=f"'all' or one of {_IDENTITIES}")
    parsers["verify"].add_argument("--trials", type=int, default=100)
    parsers["verify"].add_argument("--pairs", type=int, default=50)
    parsers["verify"].add_argument("--basis-count", dest="basis_count",
                                   type=int, default=32)
    parsers["verify"].add_argument("--sample-size", dest="sample_size",
                                   type=int, default=384)

    parser._command_table = {name: fn for name, (_, fn) in specs.items()}
    return parser


def _apply_config(args: argparse.Namespace, argv: list) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    given = {token.split("=")[0].lstrip("-").replace("-", "_")
             for token in argv if token.startswith("--")}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if attr in given:
            continue
        if attr == "map" and isinstance(value, dict):
            args.num = [f"{c[0]},{c[1]}" for c in value["num"]]
            args.den = [f"{c[0]},{c[1]}" for c in value["den"]]
            args.map = None
            continue
        if attr in ("num", "den") and isinstance(value, list):
            value = [f"{c[0]},{c[1]}" if isinstance(c, (list, tuple)) else str(c)
                     for c in value]
        if attr == "w" and isinstance(value, (list, tuple)):
            value = f"{value[0]},{value[1]}"
        setattr(args, attr, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        _apply_config(args, argv)
        handler = parser._command_table[args.command]
        return handler(args)
    except (ConfigError, InvalidMapError, ExceptionalRoot, DegenerateSample,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RootFindingFailure, EigSolverFailure, BudgetExceeded,
            CoverFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LyubichLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
