import importlib.resources
import json
import random
import re
from fractions import Fraction

import pytest

from frobpair.pair import (
    DOUBLE_EXPONENTS,
    DOUBLE_SEARCH_EQUATIONS,
    FrobeniusPair,
    PairError,
    Rank2Params,
    VerifyRecord,
    VerifyReport,
    build_aps,
    build_double,
    build_it,
    build_laurent_sqrt,
    build_rank2,
    build_sqrt,
    build_tt,
    check_rank2_constraints,
    load_pair,
    pair_from_json,
    pair_to_json,
    search_double_exponents,
    universal_algebra,
    verify,
    _algebra_maps,
    _times,
    _EXPONENT_OF_GEN,
)
from frobpair.ring import INTEGERS, MAX_POWER, MOD2, RATIONALS, RingDecl, RingError, ring
from frobpair.tensor import BasisSpec, LinMap, act, compose, equal
from frobpair.theory import evaluate_side, evaluate_term, load_axioms, parse_term, parse_theory
from helpers import (TableAlgebra, exponent_generators, lemma_first_conditions, rank2_at_a1,
                     rank2_by_hand, search_by_box, twice_bad_coefficient_pair)

Z = ring(INTEGERS)
APS_PARAMS = dict(a=0, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                  e_y=1, e_z=1, f_y=1, f_z=1)
RANK2_TABLES = ("c_yy", "c_yz", "c_zz", "d_yy", "d_yz", "d_zz", "e_y", "e_z", "f_y", "f_z")


def universal_pair():
    decl = ring(INTEGERS, "h", "t")
    alg = universal_algebra(decl, decl.gen("h"), decl.gen("t"))
    spec = BasisSpec(("1", "X"), ("1", "X"), decl)
    return FrobeniusPair(decl, spec, _algebra_maps(alg, spec), name="universal")


def evaluate(pair, text):
    """The LinMap of a term over a pair's generator table."""
    return evaluate_term(parse_term(text), pair.generator_table(), pair.spec)


def handle_element(pair):
    """mu_A(Delta_A(eta(1))) as a vector over the A basis."""
    return evaluate(pair, "eta ; Delta_A ; mu_A").column(())


# -- handle element -------------------------------------------------------------


def test_handle_universal_is_2x_minus_h():
    pair = universal_pair()
    decl = pair.ring
    assert handle_element(pair) == {("X",): decl.const(2), ("1",): -decl.gen("h")}


def test_handle_aps():
    assert handle_element(build_aps()) == {("X",): Z.const(2)}


def test_handle_tt_is_lambda_squared():
    tt = build_tt()
    assert handle_element(tt) == {("1",): tt.ring.parse("l^2")}


# -- APS --------------------------------------------------------------------------


def test_aps_table_examples():
    aps = build_aps()
    one = Z.one()
    assert aps.maps["mu_EEA"].column(("Y", "Z")) == {("X",): one}
    assert aps.maps["Delta_AE"].column(("Y",)) == {("X", "Y"): one}
    assert aps.maps["nu_AE"].column(("1",)) == {("Y",): one, ("Z",): one}
    assert aps.maps["mu_AE"].column(("1", "Y")) == {("Y",): one}
    assert aps.maps["mu_AE"].column(("X", "Y")) == {}


def test_aps_passes_complete_suite():
    report = verify(build_aps())
    assert report.ok()
    assert not [r for r in report.records if r.status == "fail"]


def test_aps_nu_roundtrip_value():
    aps = build_aps()
    m = evaluate(aps, "nu_AE ; nu_EA")
    assert m.column(("1",)) == {("X",): Z.const(2)}


# -- TT ---------------------------------------------------------------------------


def test_tt_passes_complete_suite():
    report = verify(build_tt())
    assert report.ok()
    assert not [r for r in report.records if r.status == "fail"]


def test_tt_table_examples():
    tt = build_tt()
    lam = tt.ring.gen("l")
    assert tt.maps["mu_A"].column(("X", "X")) == {("X",): lam * lam}
    assert tt.maps["nu_EE"].column(("X",)) == {("X",): lam}


def test_tt_equals_sqrt_construction():
    tt = build_tt()
    lam = tt.ring.gen("l")
    alg = universal_algebra(tt.ring, lam * lam, tt.ring.zero())
    again = build_sqrt(alg, {"1": lam})
    assert set(tt.maps) == set(again.maps)
    for name in tt.maps:
        assert equal(tt.maps[name], again.maps[name])[0], name


# -- sqrt -------------------------------------------------------------------------


def test_sqrt_rejects_wrong_xi():
    decl = ring(INTEGERS, "h", "t")
    alg = universal_algebra(decl, decl.gen("h"), decl.gen("t"))
    with pytest.raises(PairError, match="xi\\^2 != handle"):
        build_sqrt(alg, {"1": 1})


def test_sqrt_nuee_square_is_mu_delta():
    # (nu_EE)^2 = mu_E Delta_E as LinMaps, on sqrt outputs
    for pair in (build_tt(), build_laurent_sqrt()):
        lhs = evaluate(pair, "nu_EE ; nu_EE")
        rhs = evaluate(pair, "Delta_E ; mu_E")
        assert equal(lhs, rhs)[0]


def test_laurent_sqrt_symbolic_identity():
    # xi^2 = 2X - h in normal form, i.e. mul(xi, xi) == handle element
    decl = ring(INTEGERS, "a^-1", "b^-1")
    a, b = decl.gen("a"), decl.gen("b")
    h = decl.const(-2) * decl.gen("b", -1) * (a - decl.gen("b", -1))
    t = -decl.gen("b", -2) * (a * a + h)
    alg = universal_algebra(decl, h, t)
    xi = {"1": a, "X": b}
    assert alg.mul_vec(xi, xi) == alg.handle_vec()
    # and the handle element is 2X - h
    assert alg.handle_vec() == {"X": decl.const(2), "1": -h}


def test_laurent_sqrt_specialization_example():
    # a=1, b=1: h=0, t=-1, xi=1+X, xi^2 = 1+2X+X^2 = 2X
    decl = ring(INTEGERS)
    alg = universal_algebra(decl, decl.zero(), decl.const(-1))
    xi = {"1": decl.one(), "X": decl.one()}
    assert alg.mul_vec(xi, xi) == {"X": decl.const(2)}


def _random_scalar(rng, decl):
    c = rng.randint(-3, 3)
    return decl.const(Fraction(c, rng.randint(1, 3)) if decl.domain == RATIONALS else c)


def _random_poly(rng, decl):
    """A random element of Z[h, t]: up to three terms of degree at most 2."""
    out = decl.zero()
    for _ in range(rng.randint(0, 3)):
        out = out + decl.const(rng.randint(-3, 3)) * decl.gen("h", rng.randint(0, 2)) \
            * decl.gen("t", rng.randint(0, 2))
    return out


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS, MOD2, "symbolic"])
def test_algebra_arithmetic_matches_structure_constants(domain):
    # mu_A acting on the elements as maps () -> A agrees with multiplying out
    # the structure constants, at random h, t and random elements; over Z[h, t]
    # h and t are the variables and the coefficients are random polynomials
    rng = random.Random(f"algebra-{domain}")
    if domain == "symbolic":
        decl = ring(INTEGERS, "h", "t")
        draw = _random_poly
        params = [(decl.gen("h"), decl.gen("t"))]
    else:
        decl = ring(domain)
        draw = _random_scalar
        params = [(draw(rng, decl), draw(rng, decl)) for _ in range(8)]
    for h, t in params:
        alg, oracle = universal_algebra(decl, h, t), TableAlgebra(decl, h, t)
        assert alg.handle_vec() == oracle.handle()
        for _ in range(12):
            v, w = ({label: draw(rng, decl) for label in rng.sample(("1", "X"), rng.randint(0, 2))}
                    for _ in range(2))
            assert alg.mul_vec(v, w) == oracle.mul(v, w)
            for k in range(-3, 4):
                assert alg.power_vec(v, k, w) == oracle.power(v, k, w)


def test_algebra_arithmetic_takes_int_coefficients():
    decl = ring(INTEGERS)
    alg = universal_algebra(decl, decl.const(2), decl.const(3))
    assert alg.mul_vec({"X": 2, "1": 0}, {"X": 1}) == {"X": decl.const(4), "1": decl.const(6)}
    assert alg.power_vec({"X": 1}, 0, {}) == {"1": decl.one()}


def test_laurent_sqrt_passes_suite():
    report = verify(build_laurent_sqrt())
    assert report.ok()
    assert not [r for r in report.records if r.status == "fail"]


# -- IT ---------------------------------------------------------------------------


def test_it_table_examples():
    it = build_it()
    # mu_EEA(X&X) = phi^{-1} * t = X/2
    assert it.maps["mu_EEA"].column(("X", "X")) == {("X",): it.ring.const(Fraction(1, 2))}
    assert it.maps["nu_AE"].column(("1",)) == {("X",): it.ring.const(2)}


def test_it_fails_exactly_in_consistency_plus_quarantine():
    report = verify(build_it())
    scored = sorted(r.name for r in report.failures())
    assert scored == ["cons_1"]
    assert all(r.group == "consistency" for r in report.failures())
    quarantined = sorted(r.name for r in report.records
                         if r.status == "fail" and r.group == "quarantine")
    assert quarantined == ["q_dup_l5", "q_l6", "q_nuEE_square"]


def test_it_strict_partial_skips():
    report = verify(build_it(strict_partial=True))
    assert report.ok()
    skipped = {r.name for r in report.records if r.status == "skip"}
    assert "cons_1" in skipped and "me_assoc" in skipped
    for r in report.records:
        if r.status == "skip":
            assert set(r.missing) <= {"mu_E", "Delta_E"}


# -- rank 2 ------------------------------------------------------------------------


def test_rank2_params_take_fields_by_name_or_place():
    p = Rank2Params.over(Z, **APS_PARAMS)
    assert p.a == Z.zero() and p.c_yz == Z.one() and p.a.ring is Z
    assert p == Rank2Params(**{k: Z.const(v) for k, v in APS_PARAMS.items()})
    assert p == Rank2Params(*(Z.const(APS_PARAMS[k]) for k in ("a",) + RANK2_TABLES))
    with pytest.raises(TypeError):
        Rank2Params.over(Z, a=0)


def test_rank2_params_refuse_a_float():
    # a=0.5 over Z was truncated to a=0, which builds aps
    with pytest.raises(RingError, match="^constant 0.5 is neither an int nor a Fraction$"):
        Rank2Params.over(ring(INTEGERS), **dict(APS_PARAMS, a=0.5))


def test_rank2_aps_parameters_reproduce_aps():
    # against the shipped file, since build_aps is the same construction
    pair = build_rank2(Rank2Params.over(Z, **APS_PARAMS))
    aps = pair_from_json(importlib.resources.files("frobpair").joinpath("data/aps.json")
                         .read_text())
    assert set(pair.maps) == set(aps.maps)
    for name in aps.maps:
        assert equal(pair.maps[name], aps.maps[name])[0], name


def test_rank2_table_examples():
    decl = ring(INTEGERS, "a")
    a = decl.gen("a")
    params = {k: decl.const(v) for k, v in APS_PARAMS.items()}
    params["a"] = a
    pair = build_rank2(Rank2Params(**params))
    one = decl.one()
    assert pair.maps["mu_AE"].column(("X", "Y")) == {("Y",): a}
    # nu_EA(Y) = e_Y (X - a) with e_Y = 1
    assert pair.maps["nu_EA"].column(("Y",)) == {("X",): one, ("1",): -a}


def rank2_oracle_params():
    """The parameter sets on which build_rank2 is checked against rank2_by_hand:
    240 seeded integer sets with a in -2..2 and table entries in -3..3, so with
    zero entries; all zero; rationals; all 11 parameters symbolic over Z, Q and
    Z/2; and a Laurent a = b^-1 beside symbolic and zero entries."""
    rng = random.Random(43)
    sets = [Rank2Params.over(Z, a=rng.randint(-2, 2),
                             **{k: rng.randint(-3, 3) for k in RANK2_TABLES})
            for _ in range(240)]
    sets.append(Rank2Params.over(Z, **{k: 0 for k in APS_PARAMS}))
    sets.append(Rank2Params.over(ring(RATIONALS), a=Fraction(-1, 2),
                                 **{k: Fraction(i - 4, 3) for i, k in enumerate(RANK2_TABLES)}))
    for domain in (INTEGERS, RATIONALS, MOD2):
        decl = ring(domain, "a", *RANK2_TABLES)
        sets.append(Rank2Params(**{k: decl.gen(k) for k in ("a",) + RANK2_TABLES}))
    laurent = ring(INTEGERS, "b^-1", "c")
    sets.append(Rank2Params(**dict({k: laurent.const(v) for k, v in APS_PARAMS.items()},
                                   a=laurent.gen("b", -1), c_yy=laurent.gen("c"),
                                   e_y=laurent.gen("b") + laurent.const(2), f_z=laurent.zero())))
    return sets


def assert_table_by_hand(pair, p):
    """pair, built at p, has rank2_by_hand(p)'s file text and generator table."""
    want = rank2_by_hand(p, pair.name)
    want.notes.update(pair.notes)
    assert pair_to_json(pair) == pair_to_json(want)
    table, want_table = pair.generator_table(), want.generator_table()
    assert table.keys() == want_table.keys()
    for name in want_table:
        assert equal(table[name], want_table[name])[0], name


def test_rank2_table_equals_the_table_by_hand():
    for p in rank2_oracle_params():
        assert_table_by_hand(build_rank2(p), p)


def test_aps_table_equals_the_table_by_hand():
    assert_table_by_hand(build_aps(), Rank2Params.over(Z, **APS_PARAMS))


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 3, "a"])
def test_rank2_character_and_x_minus_a_are_a_maps(a):
    # ev(x) = x(a) is eps after multiplication by X - a, and the element X - a
    # is that multiplication after eta; mu_AE acts ev on slot 0 of AE, and
    # Delta_AE places X - a at slot 0 of E
    decl = ring(INTEGERS, "a")
    a = decl.gen("a") if a == "a" else decl.const(a)
    pair = build_rank2(Rank2Params(**dict({k: decl.const(v) for k, v in APS_PARAMS.items()},
                                          a=a)))
    spec, one = pair.spec, decl.one()
    by_x_minus_a = _times(pair.maps["mu_A"], {"X": one, "1": -a})
    ev = LinMap(spec, ("A",), (), {((), ("1",)): one, ((), ("X",)): a})
    x_minus_a = LinMap(spec, (), ("A",), {(("X",), ()): one, (("1",), ()): -a})
    assert equal(compose(pair.maps["eps"], by_x_minus_a), ev)[0]
    assert equal(compose(by_x_minus_a, pair.maps["eta"]), x_minus_a)[0]
    assert equal(pair.maps["mu_AE"], act(LinMap.identity(spec, ("A", "E")), ev, (0,), ()))[0]
    assert equal(pair.maps["Delta_AE"],
                 act(LinMap.identity(spec, ("E",)), x_minus_a, (), (0,)))[0]


def test_rank2_handle_is_2_x_minus_a():
    decl = ring(INTEGERS, "a")
    params = {k: decl.const(v) for k, v in APS_PARAMS.items()}
    params["a"] = decl.gen("a")
    pair = build_rank2(Rank2Params(**params))
    two = decl.const(2)
    assert handle_element(pair) == {("X",): two, ("1",): -two * decl.gen("a")}


def test_rank2_constraint_examples():
    assert check_rank2_constraints(Rank2Params.over(Z, **APS_PARAMS)) == []
    bad = dict(APS_PARAMS, e_y=1, e_z=0, f_y=1, f_z=0)
    violated = check_rank2_constraints(Rank2Params.over(Z, **bad))
    assert "C*f = e" in violated and "e*f = 2" in violated
    zero = {k: 0 for k in APS_PARAMS}
    assert "e*f = 2" in check_rank2_constraints(Rank2Params.over(Z, **zero))


def test_rank2_paper_gap_case():
    # satisfies the other three families but not D*e = f; the verifier
    # fails it on exactly the Mobius coaction row
    p = Rank2Params.over(Z, **dict(APS_PARAMS, d_yy=5))
    assert check_rank2_constraints(p) == ["D*e = f"]
    report = verify(build_rank2(p))
    assert sorted(r.name for r in report.failures()) == ["mob_r4"]


def admissible_samples(decl):
    samples = []
    for a in (-2, -1, 0, 1, 2):
        for s in (1, -1):
            samples.append(dict(a=a, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1, d_zz=0,
                                e_y=s, e_z=s, f_y=s, f_z=s))
        samples.append(dict(a=a, c_yy=1, c_yz=0, c_zz=1, d_yy=1, d_yz=0, d_zz=1,
                            e_y=1, e_z=1, f_y=1, f_z=1))
    return [Rank2Params.over(decl, **kw) for kw in samples]


def test_rank2_equivalence_small_sweep():
    rng = random.Random(1234)
    eqs = load_axioms()
    for _ in range(60):
        kw = dict(a=rng.randint(-2, 2),
                  **{k: rng.randint(-3, 3) for k in
                     ("c_yy", "c_yz", "c_zz", "d_yy", "d_yz", "d_zz", "e_y", "e_z", "f_y", "f_z")})
        p = Rank2Params.over(Z, **kw)
        assert verify(build_rank2(p), eqs).ok() == (not check_rank2_constraints(p))
    for p in admissible_samples(Z):
        assert not check_rank2_constraints(p)
        report = verify(build_rank2(p), eqs)
        assert report.ok()
        # derived rows are consequences for every admissible pair
        assert all(r.status == "pass" for r in report.records if r.group == "derived")


# -- action residuals --------------------------------------------------------------


def test_lemma_residuals_symbolic():
    decl = ring(INTEGERS, "a")
    a = decl.gen("a")
    res = lemma_first_conditions(a, decl.zero(), decl.zero(), a, a + a, -(a * a))
    assert all(r.is_zero() for r in res)


def test_lemma_residuals_examples():
    z = Z.zero()
    res = lemma_first_conditions(z, z, z, z, Z.zero(), Z.one())
    assert res[0] == Z.const(-1) and not res[0].is_zero()
    decl = ring(INTEGERS, "a0", "h", "t")
    a0, h, t = decl.gen("a0"), decl.gen("h"), decl.gen("t")
    res = lemma_first_conditions(a0, decl.zero(), decl.zero(), a0, h, t)
    target = a0 * a0 - a0 * h - t
    assert res == [target, decl.zero(), target, decl.zero()]


# -- double tensor ------------------------------------------------------------------


def q_double_algebra():
    decl = ring(RATIONALS)
    alg = universal_algebra(decl, decl.zero(), decl.one())
    return alg, {"X": decl.const(Fraction(1, 2))}


def test_double_rejects_bad_inverse():
    alg, _ = q_double_algebra()
    with pytest.raises(PairError, match="not an inverse"):
        build_double(alg, {"X": alg.ring.one()})


def test_double_refuses_an_exponent_over_the_power_limit():
    # phi^k takes |k| - 1 products, so a huge exponent ran for minutes
    alg, phi_inv = q_double_algebra()
    over = f"^the double exponent e0=65 is over the limit of {MAX_POWER}$"
    with pytest.raises(PairError, match=over):
        build_double(alg, phi_inv, (65, 0, 0, 0, 0, 0))
    with pytest.raises(PairError, match="^the double exponent nu2=-65 is over"):
        build_double(alg, phi_inv, (0, 0, 0, 0, 0, -MAX_POWER - 1))
    assert build_double(alg, phi_inv, (MAX_POWER, 0, 0, 0, 0, -MAX_POWER)).notes["exponents"] \
        == [MAX_POWER, 0, 0, 0, 0, -MAX_POWER]


def test_double_delta_aee_example():
    # Delta_AEE(1) = (Delta & Delta) Delta(1) reassociated; expanding
    # Delta(1) = 1&X + X&1 by hand gives eight distinct 4-tensors for h=0, t=1
    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv)
    col = pair.maps["Delta_AEE"].column(("1",))
    delta, expected = alg.maps["Delta_A"], set()
    for a, b in (("1", "X"), ("X", "1")):
        for m1, m2 in delta.column((a,)):
            for m3, m4 in delta.column((b,)):
                expected.add((f"{m1}|{m3}", f"{m2}|{m4}"))
    assert set(col) == expected
    assert len(col) == 8


def test_double_battery_at_canonical_exponents():
    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv, DOUBLE_EXPONENTS)
    table = pair.generator_table()
    by_name = {e.name: e for e in load_axioms()}
    for name in DOUBLE_SEARCH_EQUATIONS:
        eq = by_name[name]
        lhs = evaluate_term(eq.lhs, table, pair.spec)
        rhs = evaluate_term(eq.rhs, table, pair.spec)
        assert equal(lhs, rhs)[0], name


def test_double_zero_exponents_fail():
    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv, (0, 0, 0, 0, 0, 0))
    assert not verify(pair).ok()


def test_double_known_defects_are_reproduced():
    # The double construction cannot satisfy the unit or cancel rows over
    # an algebra with invertible handle != 1 (see decisions ledger).
    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv, DOUBLE_EXPONENTS)
    failing = {r.name for r in verify(pair).failures()}
    assert {"mod_unit", "comod_counit", "cancel_action", "cons_2"} <= failing


def test_double_over_unit_handle_algebra_passes_all_but_units():
    decl = ring(MOD2)
    alg = universal_algebra(decl, decl.one(), decl.zero())  # Z/2[X]/(X^2 - X), phi = 1
    pair = build_double(alg, {"1": decl.one()}, name="double-z2")
    failing = sorted(r.name for r in verify(pair).records if r.status == "fail")
    assert failing == ["comod_counit", "mod_unit"]


def test_double_over_noninvertible_phi_diamond_defect_is_stable():
    # regression pin for the double construction's phi imbalance: over an
    # algebra whose handle element is not 1, specific exchange labelings fail
    from frobpair.cobordism import diamond_exchange_suite

    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv, DOUBLE_EXPONENTS)
    report = diamond_exchange_suite(pair)
    failing_cases = {r.name.split("[")[0] for r in report.failures()}
    assert failing_cases  # the defect is real
    assert "case02_one_circle_nested" in failing_cases


def test_search_small_boxes():
    alg, phi_inv = q_double_algebra()
    assert search_double_exponents(alg, phi_inv, 0, 0) == []
    assert search_double_exponents(alg, phi_inv, -2, 1) == [DOUBLE_EXPONENTS]


def z2_double_algebra():
    decl = ring(MOD2)
    return universal_algebra(decl, decl.one(), decl.zero()), {"1": decl.one()}


@pytest.mark.parametrize("make,lo,hi", [(q_double_algebra, -2, 2), (z2_double_algebra, -1, 1)],
                         ids=["q1", "z2h1"])
def test_search_matches_whole_box_oracle(make, lo, hi):
    # fixing the exponents one at a time and pruning failed prefixes finds
    # the tuples that checking every tuple of the box finds
    alg, phi_inv = make()
    want = search_by_box(alg, phi_inv, lo, hi)
    assert want  # neither box is vacuous
    assert search_double_exponents(alg, phi_inv, lo, hi) == want


def test_search_builds_and_checks(monkeypatch):
    # the q1 search over [-3, 3]^6 reaches 85 distinct (row, exponents)
    # checks, and builds one pair for each exponent value, at (k,) * 6
    import frobpair.pair as pair_mod

    alg, phi_inv = q_double_algebra()
    builds, checks = [], []
    real_build, real_check = pair_mod.build_double, pair_mod._check_equation
    monkeypatch.setattr(pair_mod, "build_double",
                        lambda *a: builds.append(a[2]) or real_build(*a))
    monkeypatch.setattr(pair_mod, "_check_equation",
                        lambda *a: checks.append(a[0].name) or real_check(*a))
    assert search_double_exponents(alg, phi_inv) == [DOUBLE_EXPONENTS]
    assert len(builds) == 7 and set(builds) == {(k,) * 6 for k in range(-3, 4)}
    assert len(checks) == 85 and set(checks) == set(DOUBLE_SEARCH_EQUATIONS)


def test_search_checks_each_row_on_the_whole_pair_table(monkeypatch):
    # every table a row is checked on has the row's generators, and each of
    # its maps is that of the pair built whole at the prefix's padded exponents
    import frobpair.pair as pair_mod

    alg, phi_inv = q_double_algebra()
    tables, checked = [], []
    real_table, real_check = pair_mod._double_table, pair_mod._check_equation

    def record_table(*a):
        tables.append((a[2], real_table(*a)))
        return tables[-1][1]

    monkeypatch.setattr(pair_mod, "_double_table", record_table)
    monkeypatch.setattr(pair_mod, "_check_equation",
                        lambda *a: checked.append((a[0], a[1])) or real_check(*a))
    assert search_double_exponents(alg, phi_inv) == [DOUBLE_EXPONENTS]
    assert len(tables) == len(checked) == 85
    for (exps, (table, spec)), (eq, checked_table) in zip(tables, checked):
        assert checked_table is table and eq.generators <= set(table)
        whole = build_double(alg, phi_inv, exps)
        assert spec == whole.spec
        for name, m in table.items():
            assert equal(m, whole.generator_table()[name])[0], (exps, name)


def test_exponent_of_gen_lists_what_each_exponent_scales():
    # mu_EA is the mirror of mu_AE, so exponent 0 scales both
    alg, phi_inv = q_double_algebra()
    assert exponent_generators(alg, phi_inv) == _EXPONENT_OF_GEN
    assert exponent_generators(*z2_double_algebra()) == {}  # phi = 1 there


@pytest.mark.parametrize("build", [build_aps, build_tt], ids=["aps", "tt"])
def test_verify_evaluates_each_prefix_once(monkeypatch, build):
    # the manifest's 142 sides take 258 act calls one by one, but start with
    # only 169 distinct layer prefixes on their domains, which take 167
    import frobpair.theory as theory_mod

    pair, axioms = build(), load_axioms()
    calls = []
    real_act = theory_mod.act
    monkeypatch.setattr(theory_mod, "act", lambda *a: calls.append(a) or real_act(*a))
    for eq in axioms:
        evaluate_term(eq.lhs, pair.generator_table(), pair.spec)
        evaluate_term(eq.rhs, pair.generator_table(), pair.spec)
    assert len(calls) == 258
    for _ in range(2):  # the memo lives for one call
        calls.clear()
        report = verify(pair, axioms)
        assert len(report.records) == 71 and not any(r.status == "skip" for r in report.records)
        assert len(calls) == 167


def test_prefix_memo_is_empty_after_the_last_side():
    # in parse order each held prefix is dropped at its last use
    pair = build_tt()
    memo = {}
    for eq in load_axioms():
        for side in eq.sides:
            evaluate_side(side, pair.generator_table(), pair.spec, memo)
    assert memo == {}


def test_verify_shares_prefixes_in_any_order():
    # a shuffled subset with repeats, and equations from two parses, give the
    # verdicts and witnesses of evaluating every side alone
    pair = build_it()
    table = pair.generator_table()
    axioms = load_axioms()
    # load_axioms hands out one parse per text, so the second parse is made here
    again = parse_theory(importlib.resources.files("frobpair").joinpath("data/axioms.eq")
                         .read_text())
    assert [e.name for e in again] == [e.name for e in axioms] and again[0] is not axioms[0]
    rng = random.Random(3)
    eqs = rng.sample(axioms, 40) + rng.sample(again, 30) + axioms[:5]
    got = [(r.name, r.status, r.witness) for r in verify(pair, eqs).records]
    want = []
    for eq in eqs:
        ok, witness = equal(evaluate_term(eq.lhs, table, pair.spec),
                            evaluate_term(eq.rhs, table, pair.spec))
        want.append((eq.name, "pass" if ok else "fail", witness))
    assert got == want


# -- beta nondegeneracy ---------------------------------------------------------------


@pytest.mark.parametrize("builder", [build_aps, build_tt, build_it, build_laurent_sqrt])
def test_beta_gram_matrix_has_unit_determinant(builder):
    pair = builder()
    beta = pair.generator_table()["beta"]
    labels = pair.spec.basis_a
    gram = [[beta.column((i, j)).get((), pair.ring.zero()) for j in labels] for i in labels]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    assert det.is_unit()


def test_eta_unit_coefficient_enforced():
    aps = build_aps()
    bad = dict(aps.maps)
    bad["eta"] = bad["eta"].map_entries(lambda v: aps.ring.const(2) * v)
    with pytest.raises(PairError, match="unit label"):
        FrobeniusPair(aps.ring, aps.spec, bad)


@pytest.mark.parametrize("gname,derived,key", [
    ("beta", "eps . mu_A", ((), ("1", "1"))),
    ("gamma", "Delta_A . eta", (("1", "1"), ())),
], ids=["beta", "gamma"])
def test_a_pair_built_with_a_beta_or_gamma_that_differs_is_refused(gname, derived, key):
    # the derived map with its entry at key shifted by 1: the refusal names
    # the map and the entry's input tuple, and the derived map itself is kept
    aps = build_aps()
    m = aps.generator_table()[gname]
    shifted = m.entries.get(key, aps.ring.zero()) + aps.ring.one()
    wrong = LinMap(m.spec, m.dom, m.cod, {**m.entries, key: shifted})
    with pytest.raises(PairError, match=fr"^{gname} differs from {re.escape(derived)} "
                                        fr"at input tuple {re.escape(str(key[1]))}$"):
        FrobeniusPair(aps.ring, aps.spec, {**aps.maps, gname: wrong}, name="aps")
    given = FrobeniusPair(aps.ring, aps.spec, {**aps.maps, gname: m}, name="aps")
    assert equal(given.generator_table()[gname], m) == (True, None)


# -- serialization ---------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    for builder in (build_aps, build_tt, build_it, build_laurent_sqrt):
        pair = builder()
        path = tmp_path / f"{pair.name}.json"
        path.write_text(pair_to_json(pair), encoding="utf-8")
        loaded = load_pair(path)
        assert loaded.ring == pair.ring
        assert loaded.spec == pair.spec
        assert set(loaded.maps) == set(pair.maps)
        for name in pair.maps:
            assert equal(loaded.maps[name], pair.maps[name])[0], name
        # byte-stable canonical form
        assert pair_to_json(loaded) == pair_to_json(pair)


def test_save_load_roundtrip_double(tmp_path):
    # fractional coefficients and composite E labels survive the text format
    alg, phi_inv = q_double_algebra()
    pair = build_double(alg, phi_inv)
    path = tmp_path / "double.json"
    path.write_text(pair_to_json(pair), encoding="utf-8")
    loaded = load_pair(path)
    assert loaded.spec.basis_e == pair.spec.basis_e
    for name in pair.maps:
        assert equal(loaded.maps[name], pair.maps[name])[0], name


def test_load_rejects_bad_ring():
    with pytest.raises(PairError, match=r"\$\.ring"):
        pair_from_json('{"ring": {"domain": "reals", "vars": []}, '
                       '"basis": {"A": ["1"], "E": ["Y"]}, "maps": {}}')
    with pytest.raises(PairError, match="missing field"):
        pair_from_json('{"basis": {"A": ["1"], "E": ["Y"]}, "maps": {}}')


def test_load_rejects_wrong_shape():
    aps = build_aps()
    obj = json.loads(pair_to_json(aps))
    obj["maps"]["mu_E"] = obj["maps"].pop("mu_A")  # A-labelled table at an EE->E slot
    with pytest.raises(PairError, match="signature mismatch for mu_E"):
        pair_from_json(json.dumps(obj))
    obj2 = json.loads(pair_to_json(aps))
    obj2["maps"]["mu_Q"] = []
    with pytest.raises(PairError, match="unknown map name"):
        pair_from_json(json.dumps(obj2))


def test_load_parses_each_distinct_coefficient_text_once(monkeypatch):
    # the benchmark's rank2-a1 file holds 44 coefficients in 4 distinct texts
    text = pair_to_json(rank2_at_a1())
    coeffs = [term["coeff"] for rows in json.loads(text)["maps"].values()
              for row in rows for term in row["out"]]
    parsed, real_parse = [], RingDecl.parse
    monkeypatch.setattr(RingDecl, "parse", lambda decl, s: parsed.append(s) or real_parse(decl, s))
    loaded = pair_from_json(text)
    monkeypatch.undo()
    assert (len(coeffs), len(set(coeffs))) == (44, 4)
    assert sorted(parsed) == sorted(set(coeffs))
    assert pair_to_json(loaded) == text


def test_load_names_the_first_row_of_a_bad_coefficient():
    # the same bad text in two rows is refused at the first, with its path
    with pytest.raises(PairError) as refused:
        pair_from_json(twice_bad_coefficient_pair())
    assert str(refused.value) == "$.maps.Delta_A[1].out[0].coeff: unexpected token '' at position 3"


def test_load_partial_pair_verifies_restricted():
    aps = build_aps()
    obj = json.loads(pair_to_json(aps))
    for name in ("nu_AE", "nu_EA", "nu_EE"):
        del obj["maps"][name]
    partial = pair_from_json(json.dumps(obj))
    report = verify(partial)
    assert report.ok()
    # every equation mentioning a nu map is skipped with the right missing list
    by_name = {e.name: e for e in load_axioms()}
    nus = {"nu_AE", "nu_EA", "nu_EE"}
    for r in report.records:
        mentions_nu = bool(by_name[r.name].generators & nus)
        assert (r.status == "skip") == mentions_nu
        if r.status == "skip":
            assert set(r.missing) <= nus


# -- records, reports and notes --------------------------------------------------


def test_verify_records_take_their_defaults():
    r = VerifyRecord("fa_assoc", "frobA", "paper", "fail", witness=(("1",), ("X",)))
    assert (r.status, r.witness, r.missing) == ("fail", (("1",), ("X",)), ())
    s = VerifyRecord(name="m", group="moduleE", provenance="paper", status="skip",
                     missing=("mu_AE",))
    assert s.witness is None and s.missing == ("mu_AE",)
    assert VerifyRecord("m", "moduleE", "paper", "pass").witness is None


def test_pairs_and_reports_never_share_their_dicts():
    aps = build_aps()
    a, b = (FrobeniusPair(aps.ring, aps.spec, aps.maps) for _ in range(2))
    assert (a.name, a.unit_label, a.notes) == ("pair", "1", {}) and a.notes is not b.notes
    a.notes["seen"] = True
    assert b.notes == {}
    notes = {"given": 1}
    assert FrobeniusPair(aps.ring, aps.spec, aps.maps, notes=notes).notes is notes
    r1, r2 = VerifyReport("p", []), VerifyReport("p", [])
    assert r1.meta == {} and r1.meta is not r2.meta and r1.ok()
    r1.meta["cases"] = 1
    assert r2.meta == {}
    it = build_it()
    report = verify(it, groups=["frobA"])
    assert report.meta == it.notes and report.meta is not it.notes
