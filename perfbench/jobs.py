"""The three workloads as fixed job lists built from a seed.

A job is one call into frobpair's public API, or one `frobpair.cli.main`
call with stdout captured.  Every job carries a check of its output; the
inputs (cube files, pair files, parameter sets) are generated here, before
any timing, into a working directory that the run removes at the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from frobpair import cli, cube, pair, theory
from frobpair.ring import INTEGERS, MOD2, RATIONALS, ring

from cubegen import random_cube_json
import reference

BUILTINS = ("aps", "tt", "it", "sqrt", "rank2", "double")
RANK2_KEYS = ("c_yy", "c_yz", "c_zz", "d_yy", "d_yz", "d_zz", "e_y", "e_z", "f_y", "f_z")
RANK2_A1 = dict(a=1, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                e_y=1, e_z=1, f_y=1, f_z=1)
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Job:
    """One timed call and the check of its result (None when it is right)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fixed: bool = False  # output recorded in expected.json
    repeat: int = 1  # runs per pass, at separate places in the shuffled order


@dataclass
class Workload:
    name: str
    jobs: list
    notes: dict = field(default_factory=dict)


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(result):
    """A comparable summary of a job result, used to compare passes."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        return (result[0], digest(result[1]))
    return repr(result)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _expect_recorded(name, expected):
    def check(result):
        want = expected.get(name)
        if want is None:
            return "no recorded output"
        got = [result[0], digest(result[1])]
        return None if got == want else f"exit/digest {got} != recorded {want}"
    return check


def _cli_job(name, argv, expected, repeat=1):
    return Job(name, lambda: run_cli(argv), _expect_recorded(name, expected), fixed=True,
               repeat=repeat)


def _parse_cube_report(stdout):
    """{'betti': [...], 'torsion': [...] or None} from `frobpair cube` output."""
    fields = dict(line.split(": ", 1) for line in stdout.splitlines())
    betti = [int(x) for x in fields["betti"].split()]
    torsion = None
    if "torsion" in fields:
        torsion = [[int(x) for x in slot.split(",")] if slot != "-" else []
                   for slot in fields["torsion"].split()]
    return {"betti": betti, "torsion": torsion}


def _homology_check(euler, betti):
    """Exit 0, Betti numbers equal to the reference `betti`, their Euler
    characteristic equal to the vertex count, and torsion coefficients
    above 1."""
    def check(result):
        code, stdout = result
        if code != 0:
            return f"exit {code}"
        try:
            rep = _parse_cube_report(stdout)
        except (KeyError, ValueError) as exc:
            return f"unreadable report: {exc!r}"
        if rep["betti"] != betti:
            return f"betti {rep['betti']} != reference {betti}"
        got = sum((-1) ** i * b for i, b in enumerate(rep["betti"]))
        if got != euler:
            return f"Euler characteristic {got} != vertex count {euler}"
        if rep["torsion"] is not None and any(t <= 1 for slot in rep["torsion"] for t in slot):
            return f"torsion coefficients must exceed 1: {rep['torsion']}"
        return None
    return check


def _d_squared_check(result):
    ok, witness = result
    return None if ok else f"d^2 != 0 at {witness}"


def write_pair_files(workdir: Path) -> dict:
    """Pair files for the pairs no CLI builtin spells: rank-2 at a=1 and the
    double construction over Z/2 with handle 1."""
    z = ring(INTEGERS)
    z2 = ring(MOD2)
    alg = pair.universal_algebra(z2, z2.one(), z2.zero())
    pairs = {
        "rank2-a1": pair.build_rank2(pair.Rank2Params.over(z, **RANK2_A1)),
        "double-z2": pair.build_double(alg, {"1": z2.one()}, name="double-z2"),
    }
    paths = {}
    for name, p in pairs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(pair.pair_to_json(p), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


# Bounds on dense_cells / 4^n of generated cubes (see `cubegen.dense_cells`).
# For 800 cubes per n from the generator without bounds, the quartiles of
# dense_cells / 4^n were 9.6 / 14.9 / 28.8 at n = 4, 8.6 / 20.5 / 47.7 at
# n = 5 and 10.3 / 18.6 / 32.5 at n = 6.  At n = 4 the values are few and far
# apart, and 23.1 alone holds 21% of cubes.  Each window keeps cubes next to
# the median: 22% of cubes at n = 4, 10% at n = 5 and 12% at n = 6.
CELL_WINDOWS = {4: (21, 25), 5: (18, 22), 6: (18, 22)}


def cell_window(n):
    lo, hi = CELL_WINDOWS[n]
    return (lo << 2 * n, hi << 2 * n)


def write_cubes(rng, workdir, plan, tag):
    """[(n, path, StateCube)] for each n in plan, with plan[n] cubes each."""
    out = []
    for n, count in plan:
        for k in range(count):
            text = random_cube_json(rng, n, cell_window(n))
            path = workdir / f"{tag}-n{n}-{k}.cube"
            path.write_text(text, encoding="utf-8")
            out.append((n, str(path), cube.cube_from_json(text)))
    return out


# -- workloads ---------------------------------------------------------------------------


# Runs per pass of the algebra jobs under 0.1 s (every verify but double's,
# the rank-2 sweep, eval).  Their single times spread the most, and they set
# the median and the tail.
SHORT_REPEAT = 2


def algebra(seed, root: Path, workdir: Path, expected) -> Workload:
    data = root / "src" / "frobpair" / "data"
    files = write_pair_files(workdir)
    jobs = []
    for b in BUILTINS:
        for report in ("text", "json"):
            jobs.append(_cli_job(f"verify {b} {report}",
                                 ["verify", "--builtin", b, "--report", report], expected,
                                 repeat=1 if b == "double" else SHORT_REPEAT))

    z = ring(INTEGERS)
    eqs = theory.load_axioms()
    rng = random.Random(seed)
    sweep = [dict(a=rng.randint(-2, 2), **{k: rng.randint(-3, 3) for k in RANK2_KEYS})
             for _ in range(40)]
    for a in (-2, -1, 0, 1, 2):
        for s in (1, -1):
            sweep.append(dict(a=a, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                              e_y=s, e_z=s, f_y=s, f_z=s))
        sweep.append(dict(a=a, c_yy=1, c_yz=0, c_zz=1, d_yy=1, d_yz=0, d_zz=1,
                          e_y=1, e_z=1, f_y=1, f_z=1))
    for k, kw in enumerate(sweep):
        admissible = not pair.check_rank2_constraints(pair.Rank2Params.over(z, **kw))

        def run(kw=kw):
            return pair.verify(pair.build_rank2(pair.Rank2Params.over(z, **kw)), eqs).ok()

        def check(ok, admissible=admissible, kw=kw):
            return None if ok == admissible else f"verify {ok} != constraints {admissible} at {kw}"

        jobs.append(Job(f"rank2 sweep {k}", run, check, repeat=SHORT_REPEAT))

    for b in ("aps", "tt", "it", "sqrt"):
        jobs.append(_cli_job(f"diamond {b}", ["diamond", "--builtin", b], expected))
    for name in ("rank2-a1", "double-z2"):
        jobs.append(_cli_job(f"diamond {name}", ["diamond", "--pair", files[name]], expected))
    jobs.append(_cli_job("diamond double-q1", ["diamond", "--builtin", "double"], expected))

    q = ring(RATIONALS)
    alg = pair.universal_algebra(q, q.zero(), q.one())
    phi_inv = {"X": q.const(Fraction(1, 2))}
    jobs.append(Job(
        "double exponent search", lambda: pair.search_double_exponents(alg, phi_inv),
        lambda found: None if found == [pair.DOUBLE_EXPONENTS] else f"found {found}"))
    jobs.append(_cli_job("eval torus", ["eval", "--pair", str(data / "aps.json"),
                                        str(data / "torus.cob")], expected,
                         repeat=SHORT_REPEAT))
    return Workload("algebra", jobs)


# (n, cubes): many small cubes, since the cost of elimination over Q varies
# with a cube's structure even at a fixed cell count
CUBE_FIELD_PLAN = ((4, 12), (5, 10))


def cube_field(seed, root: Path, workdir: Path, expected) -> Workload:
    files = write_pair_files(workdir)
    symbolic = {"tt": pair.build_tt(), "sqrt": pair.build_laurent_sqrt()}
    aps = pair.build_aps()
    pairs = {
        "aps": aps,
        "rank2-a1": pair.pair_from_json(Path(files["rank2-a1"]).read_text(encoding="utf-8")),
        "tt-flat": _specialize(pair.build_tt(), l="1"),
        "sqrt-flat": _specialize(pair.build_laurent_sqrt(), a="1", b="1"),
    }
    # (coefficients, pair, the CLI arguments that name that pair)
    runs = [("q", "aps", ["--builtin", "aps"]),
            ("q", "rank2-a1", ["--pair", files["rank2-a1"]]),
            ("z2", "aps", ["--builtin", "aps"]),
            ("z2", "tt-flat", ["--builtin", "tt", "--specialize", "l=1"]),
            ("q", "sqrt-flat", ["--builtin", "sqrt", "--specialize", "a=1,b=1"])]
    wanted = {}
    for coeff, name, _args in runs:
        wanted.setdefault(name, []).append(coeff)
    cubes = write_cubes(random.Random(seed), workdir, CUBE_FIELD_PLAN, "field")
    jobs = []
    for k, (n, path, c) in enumerate(cubes):
        # every pair here has two basis labels per sort, so one vertex count serves
        euler = cube.vertex_euler(c, aps)
        ref = {name: reference.betti(c, pairs[name], coeffs) for name, coeffs in wanted.items()}
        for name, p in symbolic.items():
            jobs.append(Job(f"d2 {name} n{n} #{k}",
                            lambda p=p, path=path: cube.check_d_squared(cube.load_cube(path), p),
                            _d_squared_check))
        for coeff, name, args in runs:
            argv = ["cube", path, *args, "--coeff", coeff]
            jobs.append(Job(f"H({coeff}) {name} n{n} #{k}", lambda argv=argv: run_cli(argv),
                            _homology_check(euler, ref[name][coeff])))
    return Workload("cube-field", jobs, notes={"cube_dims": _dims(cubes, aps)})


def _specialize(p, **values):
    """p with each named variable set to a value, as `cube --specialize` does."""
    return cube.specialize_pair(p, {k: p.ring.parse(v) for k, v in values.items()})


CUBE_INTEGER_PLAN = ((4, 6), (5, 12), (6, 6))
SHIPPED_CUBES = ("fig13", "split1", "merge1")


def cube_integer(seed, root: Path, workdir: Path, expected) -> Workload:
    data = root / "src" / "frobpair" / "data"
    aps = pair.build_aps()
    cubes = write_cubes(random.Random(seed), workdir, CUBE_INTEGER_PLAN, "integer")
    jobs = []
    for k, (n, path, c) in enumerate(cubes):
        argv = ["cube", path, "--builtin", "aps", "--coeff", "z"]
        jobs.append(Job(f"H(z) aps n{n} #{k}", lambda argv=argv: run_cli(argv),
                        _homology_check(cube.vertex_euler(c, aps),
                                        reference.betti(c, aps, ["z"])["z"])))
    for name in SHIPPED_CUBES:
        jobs.append(_cli_job(f"H(z) aps {name}", ["cube", str(data / f"{name}.cube"),
                                                  "--builtin", "aps", "--coeff", "z"],
                             expected))
    return Workload("cube-integer", jobs, notes={"cube_dims": _dims(cubes, aps)})


def _dims(cubes, p):
    return [sum(p.spec.dim(w) for w in c.vertices.values()) for _n, _path, c in cubes]


WORKLOADS = {"algebra": algebra, "cube-field": cube_field, "cube-integer": cube_integer}
