"""Batch command-line front end.

Commands
--------
  bracket --spec FILE A B        bracket of two element literals
  apply-der --spec FILE --der E A   apply a derivation expression
  iso decide --spec A --spec2 B  isomorphism decision (exit 1 on negative)
  iso apply --spec A --spec2 B --a RAT --b RAT U   apply the induced map
  iso key --spec FILE            structure-space key (i, descriptor)
  check SUITE --spec FILE --seed N   run a verification suite (exit 1 on failure)
  canon --spec FILE [--group G1|G2]  canonical lattice descriptor
  enumerate --spec FILE [--K n] [--L n]  list window basis monomials

Spec files are JSON:
    {"gamma": {"generators": [["2","3"],["0","5"]]}, "J": ["N","0"], "mode": "auto"}
with rationals written as strings ("1/2") to keep the pipeline exact.

Exit codes: 0 success / positive decision, 1 negative decision or suite
failure, 2 usage, parse, or spec errors.  Randomized commands require an
explicit --seed; there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .lattice import LatticeError, canonical_form, lattice_new, vec
from .core import AlgebraError, AlgebraSpec, JSpec, enumerate_window, bracket, monomial, spec_validate
from . import derivations as dv
from . import isomorphism as iso
from . import harness
from .literals import ParseError, fmt_element, parse_derivation, parse_element, parse_rat


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 2."""


def load_spec_file(path: str) -> AlgebraSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read spec file {path!r}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"spec file {path!r} is not valid JSON: {e}")
    try:
        gens = data["gamma"]["generators"]
        jpair = data["J"]
    except (KeyError, TypeError):
        raise CliError(f"spec file {path!r} needs gamma.generators and J")
    mode = data.get("mode", "auto")
    if mode != "auto":
        raise CliError(f"spec file {path!r}: unsupported mode {mode!r}")
    if not isinstance(jpair, (list, tuple)) or len(jpair) != 2:
        raise CliError(f"spec file {path!r}: J must be a pair of \"0\"|\"N\"")
    try:
        lat = lattice_new([vec(parse_rat(str(a)), parse_rat(str(b))) for a, b in gens])
        return spec_validate(lat, JSpec(str(jpair[0]), str(jpair[1])))
    except (ParseError, ValueError) as e:
        raise CliError(f"spec file {path!r}: {e}")


def _cmd_bracket(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    u = parse_element(spec, args.elem_a)
    v = parse_element(spec, args.elem_b)
    print(fmt_element(bracket(u, v)))
    return 0


def _cmd_apply_der(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    d = parse_derivation(spec, args.der, permissive=args.permissive_zero)
    v = parse_element(spec, args.elem)
    print(fmt_element(dv.apply(d, v)))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    spec_a = load_spec_file(args.spec)
    if args.iso_cmd == "key":
        i, desc = iso.moduli_key(spec_a)
        print(f"({i}, {desc})")
        return 0
    spec_b = load_spec_file(args.spec2)
    if args.iso_cmd == "decide":
        verdict = iso.decide_iso(spec_a, spec_b)
        print(json.dumps(iso.verdict_as_dict(verdict)))
        return 0 if isinstance(verdict, iso.Found) else 1
    # apply
    params = iso.IsoParams(parse_rat(args.a), parse_rat(args.b))
    u = parse_element(spec_a, args.elem)
    print(fmt_element(iso.psi_apply(params, spec_a, spec_b, u)))
    return 0


def _require_at_least(args: argparse.Namespace, least: int, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < least:
            raise CliError(f"--{name} must be at least {least}, got {value}")


def _cmd_check(args: argparse.Namespace) -> int:
    _require_at_least(args, 1, "trials", "cap")
    _require_at_least(args, 0, "K", "L", "depth")
    spec = load_spec_file(args.spec)
    report = harness.run_suite(
        args.suite,
        spec,
        seed=args.seed,
        trials=args.trials,
        k_bound=args.K,
        level_cap=args.L,
        depth=args.depth,
        cap=args.cap,
    )
    print(report.text())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        except OSError as e:
            raise CliError(f"cannot write report to {args.out!r}: {e}")
    return 0 if report.ok else 1


def _cmd_canon(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    group = args.group
    if group is None:
        group = "G2" if spec.j.j1 == "N" and spec.j.j2 == "0" else "G1"
    print(str(canonical_form(spec.gamma, group)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _require_at_least(args, 0, "K", "L")
    spec = load_spec_file(args.spec)
    for b in enumerate_window(spec, args.K, args.L):
        print(fmt_element(monomial(spec, *b)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blockalg",
        description="Exact computations in generalized Block Lie algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_spec(sp, helptext="algebra spec file (JSON)"):
        sp.add_argument("--spec", required=True, metavar="FILE", help=helptext)

    sp = sub.add_parser("bracket", help="bracket of two element literals")
    add_spec(sp)
    sp.add_argument("elem_a", metavar="A", help="element literal")
    sp.add_argument("elem_b", metavar="B", help="element literal")
    sp.set_defaults(fn=_cmd_bracket)

    sp = sub.add_parser("apply-der", help="apply a derivation expression")
    add_spec(sp)
    sp.add_argument("--der", required=True, metavar="EXPR",
                    help="e.g. 'ad(x[0,0;1,0]) + 2*dt2 - dmu(1,0)'")
    sp.add_argument("--permissive-zero", action="store_true",
                    help="treat derivations undefined on this algebra as zero")
    sp.add_argument("elem", metavar="A", help="element literal")
    sp.set_defaults(fn=_cmd_apply_der)

    sp = sub.add_parser("iso", help="isomorphism decision, map application, key")
    isosub = sp.add_subparsers(dest="iso_cmd", required=True, metavar="SUBCOMMAND")
    d = isosub.add_parser("decide", help="decide isomorphism of two spec files")
    add_spec(d)
    d.add_argument("--spec2", required=True, metavar="FILE", help="second spec file")
    d.set_defaults(fn=_cmd_iso)
    a = isosub.add_parser("apply", help="apply the (a,b)-induced isomorphism")
    add_spec(a)
    a.add_argument("--spec2", required=True, metavar="FILE", help="target spec file")
    a.add_argument("--a", required=True, metavar="RAT", help="scale parameter, nonzero")
    a.add_argument("--b", required=True, metavar="RAT", help="shear parameter")
    a.add_argument("elem", metavar="U", help="element literal in the source algebra")
    a.set_defaults(fn=_cmd_iso)
    k = isosub.add_parser("key", help="structure-space key of a spec")
    add_spec(k)
    k.set_defaults(fn=_cmd_iso)

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("suite", choices=harness.SUITES, metavar="SUITE",
                    help="one of: " + ", ".join(harness.SUITES))
    add_spec(sp)
    sp.add_argument("--seed", required=True, type=int, help="PRNG seed (required)")
    sp.add_argument("--trials", type=int, default=200,
                    help="sampled trials (default 200; every suite but "
                    "locality); the simplicity suite runs at most "
                    f"{harness.SIMPLICITY_MAX_TRIALS} probes")
    sp.add_argument("--K", type=int, default=2,
                    help="coefficient box bound (jacobi, bracket, derivations, "
                    "simplicity; iso fixes it at 2)")
    sp.add_argument("--L", type=int, default=3,
                    help="multi-index level cap (jacobi, bracket, derivations, "
                    "simplicity; iso fixes it at 2)")
    sp.add_argument("--depth", type=int, default=6, help="closure rounds (simplicity only)")
    sp.add_argument("--cap", type=int, default=8, help="iteration cap (locality only)")
    sp.add_argument("--out", metavar="FILE", help="also write the JSON report here")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("canon", help="canonical lattice descriptor")
    add_spec(sp)
    sp.add_argument("--group", choices=("G1", "G2"),
                    help="acting group (default: inferred from J)")
    sp.set_defaults(fn=_cmd_canon)

    sp = sub.add_parser("enumerate", help="list window basis monomials")
    add_spec(sp)
    sp.add_argument("--K", type=int, default=2, help="coefficient box bound")
    sp.add_argument("--L", type=int, default=3, help="multi-index level cap")
    sp.set_defaults(fn=_cmd_enumerate)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.set_int_max_str_digits(0)  # exact numbers of any size, in full
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, AlgebraError, LatticeError) as e:
        print(f"blockalg: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
