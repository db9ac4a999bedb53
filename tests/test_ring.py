import random
from fractions import Fraction

import pytest

from frobpair.ring import (
    INTEGERS,
    MAX_POWER,
    MOD2,
    RATIONALS,
    RingDecl,
    RingElem,
    RingError,
    VarDecl,
    parse_ring_elem,
    ring,
    substitution,
    unit_invert,
)

ZH = ring(INTEGERS, "h", "t")
ZL = ring(INTEGERS, "l^-1")
Q = ring(RATIONALS)
Z2L = ring(MOD2, "X", "l^-1")


def specialize(x, assignment):
    """x under the substitution of assignment, checked for x's ring."""
    return substitution(x.ring, assignment)(x)


def schoolbook_mul(pairs1, pairs2, decl):
    """Independent oracle: expand term-by-term from (coeff, {var: exp}) lists."""
    out = decl.zero()
    for c1, m1 in pairs1:
        for c2, m2 in pairs2:
            term = decl.const(c1 * c2)
            for v, e in m1.items():
                term = term * decl.gen(v, e)
            for v, e in m2.items():
                term = term * decl.gen(v, e)
            out = out + term
    return out


def test_ring_declarations_are_values():
    # RingElem._check and RingElem.__hash__ take a ring built again for the same one
    a, b = ring(INTEGERS, "t", "l^-1"), ring(INTEGERS, "t", "l^-1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.vars[1] == VarDecl("l", invertible=True)
    assert hash(a.vars[1]) == hash(VarDecl("l", True))
    assert VarDecl("t") == VarDecl("t", False) and VarDecl("t").invertible is False
    assert RingDecl(INTEGERS) == RingDecl(INTEGERS, ()) and RingDecl(INTEGERS).vars == ()
    assert a != ring(INTEGERS, "t", "l") and a != ring(RATIONALS, "t", "l^-1") and a != (INTEGERS,)
    assert a.gen("t") + b.gen("t") == b.parse("2*t")
    assert hash(a.gen("l", -1)) == hash(b.gen("l", -1))
    with pytest.raises(RingError, match="^unknown coefficient domain 'reals'$"):
        RingDecl("reals")
    with pytest.raises(RingError, match="^variable names must be unique"):
        RingDecl(INTEGERS, (VarDecl("t"), VarDecl("t", True)))


def test_unit_times_inverse():
    l = ZL.gen("l")
    assert l * ZL.gen("l", -1) == ZL.one()


def test_additive_inverse():
    x = ZH.parse("3*h^2 - t + 7")
    assert (x + -x).is_zero()


def test_mul_matches_schoolbook_oracle():
    # (h+2)*(h-2) expanded by hand: h^2 - 4
    expected = schoolbook_mul([(1, {"h": 1}), (2, {})], [(1, {"h": 1}), (-2, {})], ZH)
    got = ZH.parse("h+2") * ZH.parse("h-2")
    assert got == expected
    assert got == ZH.parse("h^2 - 4")


def test_parse_unknown_variable():
    with pytest.raises(RingError, match="unknown variable X"):
        ZH.parse("2*X - h")


def test_parse_laurent_echo():
    e = ZL.parse("l^-1 + l")
    assert len(e.terms) == 2
    assert str(e) == "l + l^-1" or str(e) == "l^-1 + l"


def test_parse_product_normalizes():
    assert ZH.parse("(h+2)*(h-2)") == ZH.parse("h^2-4")


def test_parse_negative_exponent_rejected():
    with pytest.raises(RingError, match="non-invertible"):
        ZH.parse("h^-1")


def test_parse_syntax_error_has_position():
    with pytest.raises(RingError, match="position"):
        ZH.parse("h + + t")


@pytest.mark.parametrize("text,message", [
    ("1/0 + t", "zero denominator at position 0"),
    ("9" * 5000, "integer literal too long at position 0"),
    ("t^" + "9" * 5000, "integer literal too long at position 2"),
], ids=["zero_denominator", "long_integer", "long_exponent"])
def test_parse_refuses_unrepresentable_literals(text, message):
    with pytest.raises(RingError, match=message):
        ring(RATIONALS, "t").parse(text)


def test_specialize_examples():
    h = ZH.gen("h")
    assert specialize(h, {"h": 0}).is_zero()
    assert specialize(ZH.parse("h^2+4*t"), {"h": 0, "t": 1}) == ZH.const(4)
    assert specialize(ZL.gen("l", -1), {"l": 1}) == ZL.one()


def test_specialize_requires_unit_for_invertible():
    with pytest.raises(RingError, match="non-unit"):
        specialize(ZL.gen("l"), {"l": 0})


def test_specialize_noop_is_identity():
    x = ZH.parse("h^2*t - 3*h + 1")
    assert specialize(x, {}) == x


@pytest.mark.parametrize("decl,text,value", [
    (ZH, f"t^{MAX_POWER + 1}", "3"),
    (ZH, f"h*t^{MAX_POWER + 1} + 1", "t + 1"),
    (ZH, "t^1000", "-2"),
    (ring(RATIONALS, "t^-1"), f"t^-{MAX_POWER + 1}", "2"),
], ids=["past_limit", "binomial", "far_past_limit", "negative"])
def test_specialize_refuses_powers_past_the_limit(decl, text, value):
    # a power of a value with two terms or a coefficient other than +-1 grows
    # with its exponent, so the exponent is bounded before any product
    with pytest.raises(RingError) as refusal:
        specialize(decl.parse(text), {"t": value})
    e = text.split("t^")[1].split()[0]
    assert str(refusal.value) == f"the power t^{e} is over the limit of {MAX_POWER} " \
                                 f"for the value {decl.parse(value)}"


def test_specialize_takes_any_power_of_a_signed_monomial():
    big = 10 ** 12
    assert specialize(ZH.parse(f"t^{MAX_POWER}"), {"t": 3}) == ZH.const(3 ** MAX_POWER)
    assert specialize(ZH.parse(f"h*t^{big}"), {"t": 1}) == ZH.gen("h")
    assert specialize(ZH.parse(f"t^{big}"), {"t": -1}) == ZH.one()
    assert specialize(ZH.parse(f"t^{big + 1}"), {"t": -1}) == -ZH.one()
    assert specialize(ZH.parse(f"t^{big}"), {"t": 0}).is_zero()
    assert specialize(ZH.parse(f"t^{big}"), {"t": "-h^2"}) == ZH.gen("h", 2 * big)
    assert specialize(ZL.gen("l", -big), {"l": -1}) == ZL.one()


def test_pow_squares_the_base_only_while_bits_remain(monkeypatch):
    # (h + 1)^5: out = x, base = x^2, base = x^4, out = x * x^4, and no x^8
    x = ZH.parse("h + 1")
    want = x * x * x * x * x
    products = []
    real_mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__",
                        lambda a, b: products.append((a, b)) or real_mul(a, b))
    assert x ** 5 == want
    assert len(products) == 4


def test_unit_invert():
    l2 = ZL.parse("l^2")
    assert unit_invert(l2) == ZL.gen("l", -2)
    assert unit_invert(Q.const(4)) == Q.const(Fraction(1, 4))
    with pytest.raises(RingError, match="not a unit"):
        unit_invert(ZH.parse("h+1"))


def test_mod2_folding():
    x = Z2L.parse("X + X")
    assert x.is_zero()
    assert Z2L.parse("3*X") == Z2L.gen("X")
    # -x == x in characteristic 2
    assert -Z2L.gen("X") == Z2L.gen("X")


def random_elem(rng, decl, size=4):
    e = decl.zero()
    for _ in range(rng.randrange(size + 1)):
        term = decl.const(rng.randint(-4, 4))
        for v in decl.vars:
            exp = rng.randint(-2, 2) if v.invertible else rng.randint(0, 2)
            if exp:
                term = term * decl.gen(v.name, exp)
        e = e + term
    return e


@pytest.mark.parametrize("decl", [ZH, ZL, Q, Z2L])
def test_ring_axioms_on_random_triples(decl):
    rng = random.Random(20240809)
    for _ in range(1000):
        x, y, z = (random_elem(rng, decl) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("decl", [ZH, ZL, Z2L])
def test_parse_print_roundtrip(decl):
    rng = random.Random(7)
    for _ in range(300):
        x = random_elem(rng, decl, size=5)
        assert decl.parse(str(x)) == x


def random_expression(rng, decl, depth):
    if depth == 0:
        leaves = [str(rng.randint(0, 9))]
        for v in decl.vars:
            leaves.append(v.name)
            leaves.append(f"{v.name}^{rng.randint(2, 3)}")
            if v.invertible:
                leaves.append(f"{v.name}^-{rng.randint(1, 2)}")
        return rng.choice(leaves)
    a = random_expression(rng, decl, depth - 1)
    b = random_expression(rng, decl, depth - 1)
    return rng.choice([f"({a}) + ({b})", f"({a}) - ({b})", f"({a}) * ({b})", f"-({a})"])


@pytest.mark.parametrize("decl", [ZH, ZL, Z2L])
def test_random_expression_trees_normalize(decl):
    rng = random.Random(41)
    for _ in range(150):
        text = random_expression(rng, decl, rng.randint(1, 3))
        x = decl.parse(text)
        assert decl.parse(str(x)) == x


def test_specialize_is_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        x = random_elem(rng, ZH)
        y = random_elem(rng, ZH)
        assignment = {"h": ZH.parse("t+1"), "t": ZH.const(rng.randint(-3, 3))}
        assert specialize(x * y, assignment) == specialize(x, assignment) * specialize(y, assignment)
        assert specialize(x + y, assignment) == (
            specialize(x, assignment) + specialize(y, assignment)
        )


def test_ring_mismatch():
    with pytest.raises(RingError, match="ring mismatch"):
        ZH.gen("h") + ZL.gen("l")


def test_str_is_reparseable_rationals():
    decl = ring(RATIONALS, "t^-1")
    e = decl.parse("1/2*t - 3 + t^-2")
    assert decl.parse(str(e)) == e


# -- naive oracle: {monomial: coeff} dicts, no RingElem arithmetic -------------

ORACLE_RINGS = [ring(INTEGERS, "h", "l^-1"), ring(RATIONALS, "t^-1", "u"), ring(MOD2, "X", "l^-1")]
COEFF_TYPE = {INTEGERS: int, RATIONALS: Fraction, MOD2: int}


def naive_normal(terms, domain):
    if domain == MOD2:
        terms = {m: c % 2 for m, c in terms.items()}
    return {m: c for m, c in terms.items() if c != 0}


def naive_add(p, q, domain, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return naive_normal(out, domain)


def naive_mul(p, q, domain):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted((v, e) for v, e in exps.items() if e != 0))
            out[m] = out.get(m, 0) + c1 * c2
    return naive_normal(out, domain)


def naive_poly(rng, decl):
    """A random Laurent polynomial as a {monomial: coeff} dict in normal form."""
    terms = {}
    for _ in range(rng.randrange(5)):
        m = []
        for v in decl.vars:
            e = rng.randint(-2, 2) if v.invertible else rng.randint(0, 2)
            if e:
                m.append((v.name, e))
        if decl.domain == RATIONALS:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            c = rng.randint(-4, 4)
        terms[tuple(m)] = terms.get(tuple(m), 0) + c
    return naive_normal(terms, decl.domain)


def assert_normal_form(x, decl):
    for m, c in x.terms.items():
        assert c != 0 and type(c) is COEFF_TYPE[decl.domain]
        assert decl.domain != MOD2 or c == 1
        assert list(m) == sorted(m) and all(e != 0 for _, e in m)
        assert all(e > 0 or decl.var(v).invertible for v, e in m)
    assert x == decl.parse(str(x)) and hash(x) == hash(decl.parse(str(x)))


@pytest.mark.parametrize("decl", ORACLE_RINGS, ids=lambda d: d.domain)
def test_arithmetic_matches_naive_oracle(decl):
    rng = random.Random(20261018)
    for _ in range(400):
        p, q = naive_poly(rng, decl), naive_poly(rng, decl)
        x, y = RingElem(decl, p), RingElem(decl, q)
        for got, want in ((x * y, naive_mul(p, q, decl.domain)),
                          (x + y, naive_add(p, q, decl.domain)),
                          (x - y, naive_add(p, q, decl.domain, sign=-1))):
            assert got.terms == want
            assert_normal_form(got, decl)
        for zero in (x - x, x * y - y * x, (x + y) - y - x):
            assert zero == decl.zero() and zero.terms == {}
            assert hash(zero) == hash(decl.parse("0"))


@pytest.mark.parametrize("domain, zero, constant", [
    (INTEGERS, 0, -3),
    (RATIONALS, Fraction(0), Fraction(-3, 2)),
    (MOD2, 0, 1),
])
def test_constant_value_zero_constant_and_non_constant(domain, zero, constant):
    d = ring(domain, "t^-1")
    for x, want in ((d.zero(), zero), (d.const(constant), constant)):
        assert x.is_constant()
        got = x.constant_value()
        assert got == want and type(got) is type(want)
    for text in ("t", "t^-1", "t + 1"):
        x = d.parse(text)
        assert not x.is_constant()
        with pytest.raises(RingError) as refusal:
            x.constant_value()
        assert str(refusal.value) == f"not a constant: {x}"
    assert str(d.parse("t + 1")) == "1 + t"


@pytest.mark.parametrize("domain,value", [(INTEGERS, 1.5), (RATIONALS, 0.1), (MOD2, 1.5),
                                          (INTEGERS, "2")])
def test_const_refuses_anything_but_an_int_or_a_fraction(domain, value):
    # over Z a float was truncated (1.5 gave 1), over Q 0.1 became its binary
    # fraction 3602879701896397/36028797018963968, and over Z/2 the float was stored
    with pytest.raises(RingError, match=f"^constant {value!r} is neither an int nor a Fraction$"):
        ring(domain).const(value)
    assert ring(domain).const(Fraction(4, 2)) == ring(domain).const(2) == 2


def test_literal_operands_and_mismatch():
    q = ring(RATIONALS, "t")
    t = q.gen("t")
    assert t * 2 == 2 * t == q.parse("2*t")
    assert all(type(c) is Fraction for c in (t * 2).terms.values())
    assert t + Fraction(1, 2) == q.parse("t + 1/2")
    with pytest.raises(RingError, match="rational coefficient in integer ring"):
        ZH.gen("h") + Fraction(1, 2)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(RingError, match="ring mismatch"):
            op(t, ring(RATIONALS, "u").gen("u"))
        # an equal declaration built separately is the same ring
        assert op(t, ring(RATIONALS, "t").gen("t")) == op(t, t)


def test_ring_arithmetic_does_not_recoerce(monkeypatch):
    import frobpair.ring as ring_mod
    from frobpair.pair import build_tt, verify
    from frobpair.theory import load_axioms

    rng = random.Random(5)
    operands = [(RingElem(d, naive_poly(rng, d)), RingElem(d, naive_poly(rng, d)))
                for d in ORACLE_RINGS for _ in range(20)]
    coerced = []
    real_coerce = ring_mod._coerce
    monkeypatch.setattr(ring_mod, "_coerce", lambda d, c: coerced.append(c) or real_coerce(d, c))
    for x, y in operands:
        x * y, x + y
    assert coerced == []

    # act and compose pass the other operand through when an entry is 1, so no
    # product that verifying tt runs has an operand equal to 1; sides that
    # share layer prefixes evaluate them once, so the count is exact
    pair, axioms = build_tt(), load_axioms()
    products = []
    real_mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__",
                        lambda x, y: products.append((x, y)) or real_mul(x, y))
    verify(pair, axioms)
    assert len(products) == 63
    assert [(x, y) for x, y in products if {(): 1} in (x.terms, y.terms)] == []
