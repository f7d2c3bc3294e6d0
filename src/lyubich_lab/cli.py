"""Config-driven experiment runner.

Each command takes only the flags it reads; any other, given as a flag
or as a --config key, exits 2.

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
from .sphere import INFINITY, SpherePoint, point_json
from .transfer_operator import transfer_power

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_IDENTITIES = sorted(operator_lab.TOLERANCES)

# Commands that write their data to a --out whose suffix is .csv in any
# case; basis writes its JSON export to --out whatever the name.
_CSV_EXPORTS = ("tree", "julia", "measure")


def _writes_csv(args) -> bool:
    return str(args.out or "").lower().endswith(".csv")


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
            c = complex(float(fields[2]), float(fields[3]))
            coeffs[(j, k)] = coeffs[(j, k)] + c if (j, k) in coeffs else c
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


def _report(payload: dict) -> str:
    """The JSON text of a report, stamped with the time it is made."""
    payload = dict(payload, generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"))
    return json.dumps(payload, indent=2, default=_json_default)


def _emit(payload: dict, args, export=None) -> None:
    """Print the JSON report or write it to --out; a .csv --out, which main
    lets only commands with a CSV ``export`` keep, receives the export."""
    if export is not None:
        payload = dict(payload, csv=str(args.out) if args.out else None)
    text = _report(payload)
    if _writes_csv(args):
        export.to_csv(args.out)
    elif args.out:
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


# ----------------------------------------------------------------------
# commands


def _cmd_preimages(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    fib = preimages(rmap, w)
    _emit({
        "command": "preimages",
        "map": rmap.describe(),
        "w": point_json(w),
        "atoms": [{"point": point_json(p), "mult": m} for p, m in fib.atoms],
    }, args)
    return EXIT_OK


def _make_tree(args, rmap):
    if args.branches is None and args.seed is not None:
        raise ConfigError("--seed needs --branches: only a sampled tree is drawn at random")
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    if args.branches is None:
        return w, iterated_preimages(rmap, w, args.depth, budget=args.budget)
    return w, sampled_tree(rmap, w, args.depth, args.branches,
                           seed=args.seed or 0, budget=args.budget)


def _cmd_tree(args) -> int:
    rmap = _build_map(args)
    w, tree = _make_tree(args, rmap)
    _emit({
        "command": "tree",
        "map": rmap.describe(),
        "w": point_json(w),
        "depth": tree.depth,
        "weight_base": tree.weight_base,
        "level_sizes": [tree.atom_count(k) for k in range(tree.depth + 1)],
    }, args, export=tree)
    return EXIT_OK


def _cmd_julia(args) -> int:
    rmap = _build_map(args)
    sample = bimodule_basis.julia_sample(rmap, args.size, args.seed)
    _emit({
        "command": "julia",
        "map": rmap.describe(),
        "size": sample.size,
        "method": sample.method,
        "seed": sample.seed,
    }, args, export=sample)
    return EXIT_OK


def _cmd_measure(args) -> int:
    rmap = _build_map(args)
    w, tree = _make_tree(args, rmap)
    mu = lyubich_measure.measure_from_tree(tree)
    values = {}
    for spec in args.f:
        f = parse_test_function(spec)
        values[spec] = lyubich_measure.integrate(mu, f)
    _emit({
        "command": "measure",
        "map": rmap.describe(),
        "w": point_json(w),
        "m": tree.depth,
        "weight_base": mu.base,
        "atoms": mu.size,
        "integrals": values,
    }, args, export=mu)
    return EXIT_OK


def _cmd_converge(args) -> int:
    rmap = _build_map(args)
    roots = ([_parse_point(t) for t in args.roots]
             if args.roots else [lyubich_measure.default_root(rmap)])
    fs = [parse_test_function(s) for s in args.f]
    report = lyubich_measure.convergence_report(rmap, roots, args.depths, fs)
    report["command"] = "converge"
    report["map"] = rmap.describe()
    _emit(report, args)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    rmap = _build_map(args)
    w = _parse_point(args.w) if args.w else lyubich_measure.default_root(rmap)
    f = parse_test_function(args.f)
    value = transfer_power(rmap, f, args.power, w)
    _emit({
        "command": "transfer",
        "map": rmap.describe(),
        "w": point_json(w),
        "f": f.name,
        "power": args.power,
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
    bimodule_basis.basis_to_json(basis, args.out or None)
    print(_report({                    # the export goes to --out, the report to stdout
        "command": "basis",
        "map": rmap.describe(),
        "elements": len(basis),
        "sectors": sum(1 for bump in basis.bumps if bump.sector is not None),
        "json": args.out or None,
    }))
    return EXIT_OK


def _cmd_verify(args) -> int:
    rmap = _build_map(args)
    identities = None if args.identity == "all" else [args.identity]
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
        # converge takes flags whole: --depth, which it lacks, is no abbreviation of --depths.
        parsers[name] = p = sub.add_parser(
            name, help=help_text, allow_abbrev=name != "converge",
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        add = p.add_argument
        add("--map", help="built-in map name: quad, basilica, chebyshev")
        add("--num", nargs="+", help="numerator coefficients, ascending, entries 're,im' "
                                     "(separate with spaces or ';')")
        add("--den", nargs="+", help="denominator coefficients")
        add("--out", help="output path (.csv for data, else JSON)")
        if name != "basis":                # basis prints its report always
            add("--json", action="store_true", help="print the report as well")
        add("--config", help="JSON config file; flags override its keys")
        if name in ("preimages", "tree", "measure", "transfer", "verify"):
            add("--w", help="root point 're,im' (or 'inf'); None: a default root")
        if name in ("tree", "measure", "verify"):
            add("--depth", type=int, default=8, help="tree depth m")
        if name in ("tree", "measure"):
            add("--budget", type=int, default=DEFAULT_BUDGET, help="most atoms at depth m")
            add("--branches", type=int, help="sampled tree, branches kept per node")
            add("--seed", type=int, help="sampled tree's seed, None: 0; needs --branches")
        elif name in ("julia", "basis", "verify"):
            add("--seed", type=int, default=0, help="seed of the random draws")
    parsers["measure"].add_argument("--f", nargs="+", default=[], help="test function specs")
    parsers["julia"].add_argument("--size", type=int, default=512, help="sample points")
    add = parsers["converge"].add_argument
    add("--roots", nargs="+", help="root points 're,im'; None: a default root")
    add("--depths", nargs="+", type=int, default=[4, 8], help="tree depths m")
    add("--f", nargs="+", default=["x2"], help="test function specs")
    parsers["transfer"].add_argument("--f", default="one", help="test function spec")
    parsers["transfer"].add_argument("--power", type=int, default=1, help="power n of L^n")
    add = parsers["basis"].add_argument
    add("--size", type=int, default=384, help="Julia sample points")
    add("--count-cap", dest="count_cap", type=int, default=256, help="most net bumps")
    sizes = parsers["basis"].add_mutually_exclusive_group()
    sizes.add_argument("--radius", type=float, help="net radius, in place of --basis-count")
    # A str default is parsed as given values are, so a given 32 still conflicts with --radius.
    sizes.add_argument("--basis-count", dest="basis_count", type=int, default="32",
                       help="about this many net bumps")
    add = parsers["verify"].add_argument
    add("identity", nargs="?", default="all", help=f"'all' or one of {_IDENTITIES}")
    add("--trials", type=int, default=100, help="random trials per identity")
    add("--pairs", type=int, default=50, help="random pairs for representation")
    add("--basis-count", dest="basis_count", type=int, default=32, help="about this many bumps")
    add("--sample-size", dest="sample_size", type=int, default=384, help="Julia sample points")

    parser._command_table = {name: fn for name, (_, fn) in specs.items()}
    parser._command_parsers = parsers
    return parser


def _config_argv(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list) -> list:
    """argv followed by the tokens of the flag of each --config key that no
    flag in argv sets, so that one parse checks a config value as it checks
    the flag; a report's ``map`` block gives --num and --den."""
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    # A flag is given as itself or, as argparse reads it, by a unique prefix.
    actions = parser._command_parsers[args.command]._option_string_actions
    heads = {token.split("=")[0] for token in argv if token.startswith("--")}
    given = {flag for flag in actions for head in heads
             if flag == head or head not in actions and flag.startswith(head)}
    if isinstance(config.get("map"), dict) and "--map" not in given:
        block = config.pop("map")
        config.update((key, block[key]) for key in ("num", "den") if key in block)
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if flag not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        if flag in given:
            continue
        # A point [re, im] is one item.  argparse reads an item that starts
        # with '-' as a flag; the parsers of these flags strip the space put
        # before it.
        nargs = actions[flag].nargs
        items = value if nargs == "+" and isinstance(value, list) else [value]
        texts = [",".join(map(str, v)) if isinstance(v, list) else str(v) for v in items]
        if nargs == 0 and isinstance(value, bool):
            tokens += [flag] * value
        elif nargs is None:
            tokens.append(f"{flag}={texts[0]}")
        else:
            tokens += [flag] + [" " + t if t.startswith("-") else t for t in texts]
    return argv + tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(parser, args, argv))
        if _writes_csv(args) and args.command not in _CSV_EXPORTS + ("basis",):
            raise ConfigError(f"{args.command} has no CSV export; "
                              f"only {', '.join(_CSV_EXPORTS)} write --out *.csv")
        handler = parser._command_table[args.command]
        return handler(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (ConfigError, InvalidMapError, ExceptionalRoot, DegenerateSample,
            ValueError, OSError) as exc:
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
