"""Command-line front end with stable text/JSON output.

Exit codes: 0 success (all scored equations pass), 1 verification failure,
2 input errors.  FROBPAIR_AXIOMS overrides the shipped axiom manifest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import pair as pair_mod
from .pair import load_pair, pair_to_json, verify
from .ring import COEFFS, INTEGERS, MOD2, RATIONALS, FrobpairError, RingError, ring
from .theory import GROUPS, TheoryError, read_manifest


class InputError(FrobpairError):
    """User input problems; mapped to exit code 2."""


def parse_params(values) -> dict:
    out = {}
    for chunk in values or []:
        for item in chunk.split(","):
            if not item:
                continue
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise InputError(f"bad parameter {item!r}: expected KEY=VAL")
            if key in out:
                raise InputError(f"parameter {key!r} given more than once")
            out[key] = val.strip()
    return out


RANK2_KEYS = {"a": "a", "cYY": "c_yy", "cYZ": "c_yz", "cZZ": "c_zz",
              "dYY": "d_yy", "dYZ": "d_yz", "dZZ": "d_zz",
              "eY": "e_y", "eZ": "e_z", "fY": "f_y", "fZ": "f_z"}


#: the most rows or columns `snf` takes: it prints U (rows x rows) and V (cols x cols)
MAX_SNF_SIDE = 512

#: the double algebras k[X]/(X^2 - hX - t): domain, h, t and the inverse of
#: the handle element as {label: coefficient}
DOUBLE_ALGEBRAS = {"q1": (RATIONALS, 0, 1, {"X": Fraction(1, 2)}),
                   "z2h1": (MOD2, 1, 0, {"1": 1})}


def _integer(name, key, val):
    try:
        return int(val)
    except ValueError:
        raise InputError(f"{name} parameter {key} must be an integer") from None


def _build_rank2(params, strict_partial):
    kw = {field: 0 for field in RANK2_KEYS.values()}
    kw.update({RANK2_KEYS[key]: _integer("rank2", key, val) for key, val in params.items()})
    return pair_mod.build_rank2(pair_mod.Rank2Params.over(ring(INTEGERS), **kw))


def _build_double(params, strict_partial):
    exps = tuple(_integer("double", key, params[key]) if key in params else default
                 for key, default in zip(pair_mod.DOUBLE_KEYS, pair_mod.DOUBLE_EXPONENTS))
    algebra = params.get("algebra", "q1")
    if algebra not in DOUBLE_ALGEBRAS:
        raise InputError(f"unknown double algebra {algebra!r} (use q1 or z2h1)")
    domain, h, t, phi_inv = DOUBLE_ALGEBRAS[algebra]
    decl = ring(domain)
    return pair_mod.build_double(pair_mod.universal_algebra(decl, decl.const(h), decl.const(t)),
                                 phi_inv, exps)


#: every --builtin pair: name -> (the --params keys it takes, its builder
#: (params, strict_partial)); each builder looks its constructor up in the pair
#: module when called, so that rebinding it there reaches CLI builds too
BUILTINS = {
    "aps": ((), lambda params, strict_partial: pair_mod.build_aps()),
    "tt": ((), lambda params, strict_partial: pair_mod.build_tt()),
    "it": ((), lambda params, strict_partial: pair_mod.build_it(strict_partial=strict_partial)),
    "sqrt": ((), lambda params, strict_partial: pair_mod.build_laurent_sqrt()),
    "rank2": (tuple(RANK2_KEYS), _build_rank2),
    "double": (("algebra",) + pair_mod.DOUBLE_KEYS, _build_double),
}


def build_builtin(name, params, strict_partial=False):
    if strict_partial and name != "it":
        raise InputError(f"--strict-partial applies to --builtin it, not to {name}")
    accepted, builder = BUILTINS.get(name, ((), None))
    for key in params:
        if key not in accepted:
            takes = f"takes {', '.join(accepted)}" if accepted else "takes no parameters"
            raise InputError(f"unknown {name} parameter {key!r}: {name} {takes}")
    if builder is None:
        raise InputError(f"unknown builtin {name!r}")
    return builder(params, strict_partial)


def get_pair(args, params=None):
    if getattr(args, "pair", None):
        if params:
            raise InputError("--params applies to --builtin, not to --pair")
        if getattr(args, "strict_partial", False):
            raise InputError("--strict-partial applies to --builtin it, not to --pair")
        try:
            return load_pair(args.pair)
        except OSError as exc:
            raise InputError(str(exc)) from None
    if getattr(args, "builtin", None):
        return build_builtin(args.builtin, params if params is not None else {},
                             strict_partial=getattr(args, "strict_partial", False))
    raise InputError("need --pair FILE or --builtin NAME")


def get_axioms(args):
    path = getattr(args, "axioms", None) or os.environ.get("FROBPAIR_AXIOMS")
    try:
        return read_manifest(path)
    except (OSError, TheoryError) as exc:
        raise InputError(f"cannot load axioms: {exc}") from None


def _tuple_str(t):
    return "&".join(t) if t else "()"


def _witness_obj(witness):
    if witness is None:
        return None
    if witness[0] == "shape":
        return {"kind": "shape", "lhs": str(witness[1]), "rhs": str(witness[2])}
    t, lhs_col, rhs_col = witness
    return {
        "input": _tuple_str(t),
        "lhs": [[_tuple_str(o), str(c)] for o, c in sorted(lhs_col.items())],
        "rhs": [[_tuple_str(o), str(c)] for o, c in sorted(rhs_col.items())],
    }


def report_json(report, version) -> str:
    summary = report.summary()
    obj = {
        **({"manifest_version": version} if version is not None else {}),
        "pair": report.pair_name,
        "ok": report.ok(),
        "summary": {g: summary[g] for g in sorted(summary)},
        "meta": {k: report.meta[k] for k in sorted(report.meta)},
        "equations": [
            {
                "name": r.name,
                "group": r.group,
                "provenance": r.provenance,
                "status": r.status,
                **({"witness": _witness_obj(r.witness)} if r.status == "fail" else {}),
                **({"missing": list(r.missing)} if r.status == "skip" else {}),
            }
            for r in report.records
        ],
    }
    return json.dumps(obj, indent=2)


def report_text(report) -> str:
    lines = []
    for r in report.records:
        if r.status == "pass":
            lines.append(f"PASS {r.name} [{r.group}]")
        elif r.status == "skip":
            lines.append(f"SKIP {r.name} [{r.group}] missing: {', '.join(r.missing)}")
        else:
            w = _witness_obj(r.witness)
            if w and "input" in w:
                detail = (f"input={w['input']} lhs={w['lhs']} rhs={w['rhs']}")
            else:
                detail = str(w)
            lines.append(f"FAIL {r.name} [{r.group}] ({r.provenance}) {detail}")
    summary = report.summary()
    for group in sorted(summary):
        c = summary[group]
        lines.append(f"group {group}: {c['pass']} pass, {c['fail']} fail, {c['skip']} skip")
    lines.append("RESULT: " + ("ok" if report.ok() else "FAILED"))
    return "\n".join(lines)


def cmd_verify(args) -> int:
    params = parse_params(args.params)
    pair = get_pair(args, params)
    equations, version = get_axioms(args)
    groups = None if args.groups is None else set(args.groups.split(","))
    if groups is not None and not groups <= set(GROUPS):
        raise InputError(f"unknown group(s) {', '.join(map(repr, sorted(groups - set(GROUPS))))}; "
                         f"known groups: {', '.join(GROUPS)}")
    report = verify(pair, equations, groups)
    if not any(r.status != "skip" and r.group != "quarantine" for r in report.records):
        raise InputError("no equation outside the quarantine group could be scored: "
                         "the pair lacks their generators or the filter excludes them")
    print(report_json(report, version) if args.report == "json" else report_text(report))
    return 0 if report.ok() else 1


def cmd_construct(args) -> int:
    params = parse_params(args.params)
    pair = build_builtin(args.builtin, params, strict_partial=args.strict_partial)
    text = pair_to_json(pair)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    from .cobordism import evaluate, parse_cobordism
    pair = get_pair(args)
    try:
        with open(args.cobordism, encoding="utf-8") as fh:
            cob = parse_cobordism(fh.read())
    except OSError as exc:
        raise InputError(str(exc)) from None
    m = evaluate(cob, pair)
    if m.dom == () and m.cod == ():
        print(str(m.column(()).get((), pair.ring.zero())))
        return 0
    lines = [f"map: {_tuple_str(m.dom)} -> {_tuple_str(m.cod)}"]  # printed once all are text
    for t in pair.spec.tuples(m.dom):
        col = m.column(t)
        body = " + ".join(f"({c})*{_tuple_str(o)}" for o, c in sorted(col.items())) or "0"
        lines.append(f"{_tuple_str(t)} -> {body}")
    print("\n".join(lines))
    return 0


def cmd_diamond(args) -> int:
    from .cobordism import diamond_exchange_suite
    pair = get_pair(args)
    report = diamond_exchange_suite(pair)
    failures = report.failures()
    for r in report.records:
        if r.status == "fail":
            print(f"FAIL {r.name}")
    print(f"diamond: {len(report.records) - len(failures)} pass, {len(failures)} fail")
    return 0 if not failures else 1


def cmd_cube(args) -> int:
    from . import cube as cube_mod
    pair = get_pair(args)
    try:
        cube = cube_mod.load_cube(args.cube)
    except OSError as exc:
        raise InputError(str(exc)) from None
    if args.specialize:
        assignment = {}
        for key, val in parse_params([args.specialize]).items():
            try:
                assignment[key] = pair.ring.parse(val)
            except RingError as exc:
                raise InputError(str(exc)) from None
        pair = cube_mod.specialize_pair(pair, assignment)
    report = cube_mod.homology(cube, pair, args.coeff)
    failed = any(s["betti"] < 0 for s in report)  # proves d^2 != 0: name a square
    if failed:
        _ok, (b, k, l, _t) = cube_mod.check_d_squared(cube, pair)
        print(f"FAIL square at {b} (bits {k},{l})")
    else:
        print("betti: " + " ".join(str(s["betti"]) for s in report))
        if args.coeff == "z":
            print("torsion: " + " ".join(
                ",".join(str(x) for x in s["torsion"]) or "-" for s in report))
    print("sign: (-1)^(ones before flipped index)")
    return 1 if failed else 0


def cmd_degree(args) -> int:
    from .cobordism import pole_degree
    degrees = [pole_degree(w) for w in args.poles]
    total = sum(degrees)
    label = "essential" if total > 0 else "inessential"
    print(" ".join(str(d) for d in degrees) +
          (" " if degrees else "") + f"total={total} {label}")
    return 0


def cmd_snf(args) -> int:
    from .cube import smith_normal_form
    try:
        with open(args.matrix, encoding="utf-8") as fh:
            m = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or an over-long integer
        raise InputError(str(exc)) from None
    if (not isinstance(m, list) or not all(isinstance(r, list) for r in m)
            or len({len(r) for r in m}) > 1 or any(type(x) is not int for r in m for x in r)):
        raise InputError("matrix file must hold a JSON list of equal-length rows of integers")
    for side, size in (("rows", len(m)), ("columns", len(m[0]) if m else 0)):
        if size > MAX_SNF_SIDE:
            raise InputError(f"the matrix has {size} {side}, over the limit of {MAX_SNF_SIDE}")
    d, u, v = smith_normal_form(m)
    for name, mat in (("D", d), ("U", u), ("V", v)):
        print(name + ":")
        for row in mat:
            print("  " + " ".join(str(x) for x in row))
    return 0


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="frobpair",
        description="Exact verifier and evaluator for commutative Frobenius "
                    "pairs with Mobius maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(p, with_params=True):
        p.add_argument("--pair", help="structure file")
        p.add_argument("--builtin", choices=BUILTINS)
        if with_params:
            p.add_argument("--params", action="append", default=[],
                           help="builtin parameters KEY=VAL[,KEY=VAL...]")
        p.add_argument("--strict-partial", action="store_true",
                       help="leave undefined generators absent (builtin it)")

    p = sub.add_parser("verify", help="check the axiom manifest against a pair")
    add_pair_args(p)
    p.add_argument("--axioms", help="equation manifest path (or FROBPAIR_AXIOMS)")
    p.add_argument("--groups", help="comma-separated group filter")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build a builtin pair and write its file")
    p.add_argument("--builtin", required=True, choices=BUILTINS)
    p.add_argument("--params", action="append", default=[])
    p.add_argument("--strict-partial", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("eval", help="evaluate a cobordism word file")
    add_pair_args(p, with_params=False)
    p.add_argument("cobordism")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diamond", help="run the saddle-exchange suite")
    add_pair_args(p, with_params=False)
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser("cube", help="homology of a state cube")
    add_pair_args(p, with_params=False)
    p.add_argument("cube")
    p.add_argument("--coeff", choices=list(COEFFS), default="q")
    p.add_argument("--specialize", help="ring assignment KEY=VAL[,...]")
    p.set_defaults(func=cmd_cube)

    p = sub.add_parser("degree", help="pole degrees of virtual circles")
    p.add_argument("poles", nargs="*", help="words over +/- (or L/R)")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_snf)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FrobpairError as exc:  # InputError and every library error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
