"""Every answer is a property of the pair's isomorphism class, and the three
coefficient paths of `homology` agree by the universal coefficient theorem.

`helpers.conjugate` changes a pair's basis: its maps turn dense, with entries
other than 0 and +-1, while every verify and diamond status, every d^2 verdict
and failing square, and every Betti number and torsion coefficient stay as
they were.  The witnesses name basis tuples, so they are not compared.
"""

import random

import pytest

from frobpair.cli import build_builtin
from frobpair.cobordism import diamond_exchange_suite
from frobpair.cube import check_d_squared, homology, specialize_pair
from frobpair.pair import verify

from helpers import conjugate, double_z2, item_one_cubes, random_cube, rank2_at_a1

#: name -> (pair, g_A, g_E, specialization for homology, coefficients): g_A
#: fixes the unit 1 and sends X to +-X + b; g_E is invertible over the ring
CASES = {
    "aps": (lambda: build_builtin("aps", {}), [[1, 2], [0, -1]], [[2, 3], [3, 5]], {},
            ("q", "z", "z2")),
    "tt": (lambda: build_builtin("tt", {}), [[1, "l"], [0, 1]], [[1, 1], [1, 0]], {"l": 1},
           ("z2",)),
    "it": (lambda: build_builtin("it", {}), [[1, -1], [0, 1]], [[1, "1/2"], [2, 2]], {"t": 1},
           ("q",)),
    "sqrt": (lambda: build_builtin("sqrt", {}), [[1, 1], [0, -1]], [[1, 2], [1, 3]],
             {"a": 1, "b": 1}, ("q", "z", "z2")),
    "rank2": (lambda: build_builtin("rank2", {}), [[1, -2], [0, 1]], [[-1, 1], [2, -3]], {},
              ("q", "z", "z2")),
    "rank2-a1": (rank2_at_a1, [[1, 1], [0, 1]], [[3, 2], [1, 1]], {}, ("q", "z", "z2")),
    "double": (lambda: build_builtin("double", {}), [[1, 1], [0, 1]],
               [[1, 3, 2, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]], {}, ("q",)),
    "double-z2": (double_z2, [[1, 1], [0, 1]],
                  [[1, 1, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]], {}, ("z2",)),
}


def answers(pair, cubes, assignment, coefficients):
    """Every answer of the pair that does not name a basis tuple."""
    statuses = [(r.name, r.status) for report in (verify(pair), diamond_exchange_suite(pair))
                for r in report.records]
    squares = [(ok, witness and witness[:3]) for ok, witness in
               (check_d_squared(cube, pair) for cube in cubes)]
    constant = specialize_pair(pair, assignment) if assignment else pair
    reports = [homology(cube, constant, coeff) for cube in cubes for coeff in coefficients]
    return statuses, squares, reports


@pytest.mark.parametrize("case", CASES)
def test_every_answer_is_invariant_under_a_change_of_basis(case):
    build, g_a, g_e, assignment, coefficients = CASES[case]
    pair = build()
    other = conjugate(pair, g_a, g_e)
    assert any(m.entries != pair.maps[name].entries for name, m in other.maps.items())
    cubes = [random_cube(random.Random(100 + k), n=4) for k in range(3)] + item_one_cubes()[3:4]
    assert answers(other, cubes, assignment, coefficients) == \
        answers(pair, cubes, assignment, coefficients)


def test_the_coefficient_paths_obey_the_universal_coefficient_theorem():
    # for a cochain complex of free abelian groups, H^i(C; Z/2) is H^i(C) (x) Z/2
    # plus Tor(H^{i+1}(C), Z/2): b_i(Z/2) = b_i(Q) + t_i + t_{i+1}, where t_j
    # counts the even torsion coefficients of degree j over z
    rng = random.Random(0)
    cubes = [random_cube(rng, n=rng.randint(2, 5)) for _ in range(16)] + item_one_cubes()
    even = 0
    for pair in (build_builtin("aps", {}), rank2_at_a1()):
        for cube in cubes:
            over_q, over_z, over_z2 = (homology(cube, pair, c) for c in ("q", "z", "z2"))
            t = [sum(x % 2 == 0 for x in s["torsion"]) for s in over_z] + [0]
            assert [s["betti"] for s in over_z] == [s["betti"] for s in over_q]
            assert [s["betti"] for s in over_z2] == \
                [s["betti"] + t[i] + t[i + 1] for i, s in enumerate(over_q)], cube.vertices
            even += sum(t)
    assert even, "no cube had 2-torsion"
