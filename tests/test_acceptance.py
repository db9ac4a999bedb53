"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance here is exact (the structures are
symbolic); the only numeric budgets are the stated runtimes.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import frobpair
from frobpair.cobordism import diamond_exchange_suite, pole_degree
from frobpair.cube import (
    check_d_squared,
    homology,
    specialize_pair,
    vertex_euler,
)
from frobpair.pair import (
    DOUBLE_EXPONENTS,
    Rank2Params,
    build_aps,
    build_double,
    build_it,
    build_laurent_sqrt,
    build_rank2,
    build_tt,
    check_rank2_constraints,
    search_double_exponents,
    universal_algebra,
    verify,
)
from frobpair.ring import INTEGERS, MOD2, RATIONALS, ring
from frobpair.theory import evaluate_term, load_axioms, parse_term

from helpers import (
    brute_force_pole_degrees,
    euler_characteristic,
    lemma_first_conditions,
    random_cube,
)

Z = ring(INTEGERS)
APS_PARAMS = dict(a=0, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                  e_y=1, e_z=1, f_y=1, f_z=1)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


def test_criterion_01_aps_complete_suite():
    with criterion(1, "APS passes the complete axiom suite in under 5 s"):
        start = time.monotonic()
        report = verify(build_aps())
        elapsed = time.monotonic() - start
        assert not [r for r in report.records if r.status == "fail"]
        groups = set(r.group for r in report.records)
        assert {"frobA", "moduleE", "comoduleE", "cancel", "muDeltaE", "EEA",
                "compat", "consistency", "derived", "mobius"} <= groups
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_tt_suite_and_handle():
    with criterion(2, "TT over Z/2[l^+-1] passes; handle element is exactly l^2"):
        tt = build_tt()
        report = verify(tt)
        assert not [r for r in report.records if r.status == "fail"]
        handle = evaluate_term(parse_term("eta ; Delta_A ; mu_A"), tt.generator_table(), tt.spec)
        assert handle.column(()) == {("1",): tt.ring.parse("l^2")}


def test_criterion_03_it_failures_confined():
    with criterion(3, "IT fails only in the consistency group (plus quarantine)"):
        report = verify(build_it())
        scored = report.failures()
        assert scored, "the near-example failure must be reproduced"
        assert all(r.group == "consistency" for r in scored)
        for r in report.records:
            if r.group not in ("consistency", "quarantine"):
                assert r.status in ("pass", "skip"), r.name


def test_criterion_04_rank2_equivalence():
    with criterion(4, ">=200 random rank-2 parameter sets: verify <=> constraints, "
                      "zero discrepancies, under 60 s"):
        start = time.monotonic()
        eqs = load_axioms()
        rng = random.Random(20260809)
        checked = 0
        keys = ("c_yy", "c_yz", "c_zz", "d_yy", "d_yz", "d_zz", "e_y", "e_z", "f_y", "f_z")
        for _ in range(200):
            kw = dict(a=rng.randint(-2, 2), **{k: rng.randint(-3, 3) for k in keys})
            p = Rank2Params.over(Z, **kw)
            ok = verify(build_rank2(p), eqs).ok()
            assert ok == (not check_rank2_constraints(p)), kw
            checked += 1
        # engineered admissible families so the forward direction is exercised
        for a in (-2, -1, 0, 1, 2):
            for s in (1, -1):
                kw = dict(a=a, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                          e_y=s, e_z=s, f_y=s, f_z=s)
                p = Rank2Params.over(Z, **kw)
                assert not check_rank2_constraints(p)
                assert verify(build_rank2(p), eqs).ok()
                checked += 1
            kw = dict(a=a, c_yy=1, c_yz=0, c_zz=1, d_yy=1, d_yz=0, d_zz=1,
                      e_y=1, e_z=1, f_y=1, f_z=1)
            p = Rank2Params.over(Z, **kw)
            assert not check_rank2_constraints(p)
            assert verify(build_rank2(p), eqs).ok()
            checked += 1
        elapsed = time.monotonic() - start
        assert checked >= 200
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_05_laurent_sqrt():
    with criterion(5, "(a+bX)^2 = 2X-h symbolically and the pair passes the suite"):
        decl = ring(INTEGERS, "a^-1", "b^-1")
        a, b = decl.gen("a"), decl.gen("b")
        h = decl.const(-2) * decl.gen("b", -1) * (a - decl.gen("b", -1))
        t = -decl.gen("b", -2) * (a * a + h)
        alg = universal_algebra(decl, h, t)
        xi = {"1": a, "X": b}
        assert alg.mul_vec(xi, xi) == {"X": decl.const(2), "1": -h}
        assert alg.mul_vec(xi, xi) == alg.handle_vec()
        report = verify(build_laurent_sqrt())
        assert not [r for r in report.records if r.status == "fail"]


def test_criterion_06_double_exponent_search():
    with criterion(6, "exhaustive search over [-3,3]^6 finds exactly "
                      "(-1,-2,-2,1,-1,0), under 10 min"):
        start = time.monotonic()
        decl = ring(RATIONALS)
        alg = universal_algebra(decl, decl.zero(), decl.one())
        found = search_double_exponents(alg, {"X": decl.const(Fraction(1, 2))}, -3, 3)
        elapsed = time.monotonic() - start
        assert found == [DOUBLE_EXPONENTS]
        assert elapsed < 600.0, f"took {elapsed:.2f}s"


def test_criterion_07_lemma_residuals():
    with criterion(7, "action residuals vanish identically for the diagonal "
                      "case and are nonzero on 20 violating tuples"):
        decl = ring(INTEGERS, "a")
        a = decl.gen("a")
        res = lemma_first_conditions(a, decl.zero(), decl.zero(), a, a + a, -(a * a))
        assert all(r.is_zero() for r in res)

        def oracle(a0, a1, b0, b1, h, t):
            # independent matrix oracle: entries of M^2 - hM - tI for the
            # X-action matrix M = [[a0, b0], [a1, b1]]
            m = [[a0, b0], [a1, b1]]
            sq = [[m[0][0] * m[0][0] + m[0][1] * m[1][0],
                   m[0][0] * m[0][1] + m[0][1] * m[1][1]],
                  [m[1][0] * m[0][0] + m[1][1] * m[1][0],
                   m[1][0] * m[0][1] + m[1][1] * m[1][1]]]
            return [sq[0][0] - h * a0 - t, sq[1][0] - h * a1,
                    sq[1][1] - h * b1 - t, sq[0][1] - h * b0]

        rng = random.Random(5)
        violating = 0
        while violating < 20:
            vals = [rng.randint(-4, 4) for _ in range(6)]
            res = lemma_first_conditions(*[Z.const(v) for v in vals])
            expect = oracle(*vals)
            assert [r.constant_value() for r in res] == expect
            if any(expect):
                violating += 1


def test_criterion_08_diamond_suite():
    with criterion(8, "diamond suite passes for APS, TT, rank-2, sqrt, double; "
                      "fails for IT"):
        rank2 = build_rank2(Rank2Params.over(Z, **dict(APS_PARAMS, a=1)))
        z2 = ring(MOD2)
        alg = universal_algebra(z2, z2.one(), z2.zero())
        double = build_double(alg, {"1": z2.one()}, name="double-z2")
        for pair in (build_aps(), build_tt(), rank2, build_laurent_sqrt(), double):
            report = diamond_exchange_suite(pair)
            assert not report.failures(), pair.name
        report = diamond_exchange_suite(build_it())
        assert report.failures()


def test_criterion_09_d_squared_and_euler():
    with criterion(9, "d^2=0 on 100 random cubes over each shipped passing pair; "
                      "Euler identity over Q and Z/2"):
        rng = random.Random(31415)
        aps = build_aps()
        tt = build_tt()
        sqrt_pair = build_laurent_sqrt()
        rank2 = build_rank2(Rank2Params.over(Z, **dict(APS_PARAMS, a=1)))
        pairs = (aps, tt, sqrt_pair, rank2)
        tt_flat = specialize_pair(tt, {"l": 1})
        sqrt_flat = specialize_pair(sqrt_pair, {"a": 1, "b": 1})
        for _ in range(100):
            cube = random_cube(rng)
            for pair in pairs:
                ok, witness = check_d_squared(cube, pair)
                assert ok, (pair.name, witness)
            for flat, coeffs in ((aps, ("q", "z2")), (rank2, ("q", "z2")),
                                 (sqrt_flat, ("q", "z2")), (tt_flat, ("z2",))):
                for coeff in coeffs:
                    rep = homology(cube, flat, coeff)
                    assert euler_characteristic(rep) == vertex_euler(cube, flat)


def test_criterion_10_pole_confluence():
    with criterion(10, "pole reduction is confluent on all words up to length 8 "
                       "and rotation invariant"):
        for n in range(0, 9, 2):
            for w in itertools.product("LR", repeat=n):
                d = pole_degree(w)
                assert brute_force_pole_degrees(w) == {d}
                for k in range(n):
                    assert pole_degree(w[k:] + w[:k]) == d


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "two CLI runs of verify --builtin aps --report json are "
                       "byte-identical"):
        outs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("FROBPAIR_AXIOMS", None)
            # the child imports the frobpair this test imported
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.dirname(os.path.dirname(frobpair.__file__)),
                 *filter(None, [env.get("PYTHONPATH")])])
            proc = subprocess.run(
                [sys.executable, "-m", "frobpair.cli", "verify", "--builtin", "aps",
                 "--report", "json"],
                capture_output=True, env=env, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed
