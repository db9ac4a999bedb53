"""Golden generator tables of every construction, and the cost of building one.

The digests are sha256 of `pair_to_json`, recorded from the label-keyed
expansion the builders used before they were rewritten as chains of `act`
moves over A's own maps; any change to a single entry of any table fails here.
"""

import hashlib
import importlib.resources
from fractions import Fraction

import pytest

from frobpair.cli import build_builtin
from frobpair.pair import build_aps, build_double, pair_to_json, universal_algebra
from frobpair.ring import MOD2, RATIONALS, RingElem, ring

BUILTIN_DIGESTS = [
    ("aps", {}, False, "eac0c79b287ea2822f6fb38ead906d9f735725e790ec6e80d818a2f7c1c2ba98"),
    ("tt", {}, False, "b5d5c1001752bf5f5140e99a5f494b4c4bb8d694b22550dc528b26f50a296f35"),
    ("it", {}, False, "3a2ae7bdca162dafb52d3ec6c0b3f9585146a41307a2504acb8c31880383bc00"),
    ("it", {}, True, "f8d56d158a6e6477b505ba1d9978506e1cbbe618058c8f6bfee07a31b7df22f6"),
    ("sqrt", {}, False, "d946627f6045d104e5ca7445b18a1c43b46b5cc0840a5bd11eb044247c49a0b7"),
    ("rank2", {}, False, "c6c7de11d4ee4c5541c16d7ea95f2ac24b868a2f7a15fbb521ff7e151b54b844"),
    ("rank2", dict(a="2", cYY="1", cYZ="-1", dZZ="3", eY="2", fZ="-1"), False,
     "d073f063c0147b53340506245b58e395a31932d92d6a502842bf8de0e0f91968"),
    ("double", {}, False, "33fd879783547fc245f2d0d926988590191242ca13eaa26786ef7794d313061a"),
    ("double", {"algebra": "z2h1"}, False,
     "7f6d723e2f723a143c68eeca4857db21cbfa57e4c17cb55d95151aa2b2a81d0b"),
]

# exponent tuple -> (digest over q1, digest over z2h1)
DOUBLE_DIGESTS = {
    (-1, -2, -2, 1, -1, 0): ("33fd879783547fc245f2d0d926988590191242ca13eaa26786ef7794d313061a",
                             "7f6d723e2f723a143c68eeca4857db21cbfa57e4c17cb55d95151aa2b2a81d0b"),
    (0, 0, 0, 0, 0, 0): ("6abe0aeeb8447d3f7e64c1bda0ae578df35d768bcb7e884976f54e1c8f0e47bc",
                         "f0624b953299b2336e00e7d677eba3b87e5de0992ec3adf5ed27c1ce40b9b396"),
    (-1, -1, -1, -1, -1, -1): ("118838e776c81ee6ac18464b02f24844d07e9234cd951db75a55ac36a2db8bab",
                               "ad401a0fc24d51e96e616fb33e2934fefe7765e64447db285261f6a6660e684c"),
    (-2, -2, -2, -2, -2, -2): ("fb9101ad1db0ac6757be37bd45a098ae97e06364d0faea6b0de25b03da68b682",
                               "d9c07da3c5f8c45c3db0bec34b0aa6e19907a6e007cdd9e9596330cb9330c7a8"),
    (2, 2, 2, 2, 2, 2): ("8aad226addc11c7ec44ec2f95fa7f73b28724e9192557fe95ef0183c19a38e6b",
                         "98ab2748b110737f27c59d66bcb7a1a3153b77f6f3b0c75e5f7665aad5d48fa0"),
    (-2, 2, -2, 2, -2, 2): ("1c424b0b259a377cc9eeb8b1abcf2c97a13a313c2048efdb7e6bb156506088b4",
                            "9f028c31fd4e0c6765d39f732d92fb5e6632e501a38fe6ee8fa0026d8fd80541"),
}


def digest(pair):
    return hashlib.sha256(pair_to_json(pair).encode()).hexdigest()


def q1_algebra():
    decl = ring(RATIONALS)
    return universal_algebra(decl, decl.zero(), decl.one()), {"X": decl.const(Fraction(1, 2))}


def z2h1_algebra():
    decl = ring(MOD2)
    return universal_algebra(decl, decl.one(), decl.zero()), {"1": decl.one()}


@pytest.mark.parametrize("name,params,strict,expected", BUILTIN_DIGESTS)
def test_builtin_tables_match_golden(name, params, strict, expected):
    assert digest(build_builtin(name, params, strict_partial=strict)) == expected


@pytest.mark.parametrize("exponents", sorted(DOUBLE_DIGESTS))
def test_double_tables_match_golden(exponents):
    got = tuple(digest(build_double(*make(), exponents))
                for make in (q1_algebra, z2h1_algebra))
    assert got == DOUBLE_DIGESTS[exponents]


def test_aps_matches_shipped_file():
    shipped = importlib.resources.files("frobpair").joinpath("data/aps.json").read_text()
    assert pair_to_json(build_aps()) == shipped


def test_double_construction_products(monkeypatch):
    # every generator is a chain of act moves over A's maps, and act and the
    # algebra's structure constants skip products by one, so the canonical q1
    # double takes exactly these two: phi * phi^-1 and the square of phi^-1
    alg, phi_inv = q1_algebra()
    products = []
    real_mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__",
                        lambda x, y: products.append((x, y)) or real_mul(x, y))
    build_double(alg, phi_inv)
    assert len(products) == 2
    assert not any({(): 1} in (x.terms, y.terms) for x, y in products)
