"""Betti numbers of all-A chord cubes predicted from the link's orientations,
with no linear algebra, against `homology`.

`it` at t=1 is A = Q[X]/(X^2 - 1), Lee's deformation (E. S. Lee, "An
endomorphism of the Khovanov invariant", arXiv:math/0210213), and `tt` at l=1
is A = Z/2[X]/(X^2 - X), Bar-Natan's characteristic-2 theory (P. Turner,
"Calculating Bar-Natan's characteristic two Khovanov homology",
arXiv:math/0411225).  Both have one generator per orientation of the link, in
the degree of the crossings its oriented resolution 1-smooths.

A chord cube is a diagram on an orientable surface, so a virtual link whose
atom is orientable (Dye, Kaestner and Kauffman, J. Knot Theory Ramifications,
2017).  A-only generators are commutative, so this oracle cannot see slot
order within an A-only generator; the conjugation tests of
`tests/test_isomorphism.py` and the `aps` digests pin that order.
"""

import random
from itertools import product

import pytest

from frobpair.cube import homology, specialize_pair
from frobpair.pair import build_aps, build_it, build_tt

from helpers import chord_cube, random_chords


def oriented_betti(sigma, chords):
    """beta_i: the orientations of the link of (sigma, chords) whose oriented
    resolution 1-smooths i crossings.  Arc x runs from x to sigma(x); an
    orientation runs each arc with (+1) or against (-1) sigma.  At a crossing
    (a, b) the arcs into a and b are one strand run in opposite directions, and
    so are the arcs out of a and b; at any other point the arcs in and out run
    the same way.  Crossing (a, b) is 1-smoothed iff the arcs into and out of a
    run opposite ways."""
    m = len(sigma)
    into = [0] * m  # into[y]: the arc that ends at point y
    for x, y in enumerate(sigma):
        into[y] = x
    links = {x: [] for x in range(m)}  # arc -> [(arc, +1 same way or -1 opposite)]
    ends = {p for chord in chords for p in chord}
    rules = [(into[a], into[b], -1) for a, b in chords] + [(a, b, -1) for a, b in chords] + \
        [(into[y], y, 1) for y in range(m) if y not in ends]
    for x, y, same in rules:
        links[x].append((y, same))
        links[y].append((x, same))
    # each component's arcs take their sign relative to its first arc
    relative, roots = {}, []
    for root in range(m):
        if root in relative:
            continue
        roots.append(root)
        relative[root], stack = (root, 1), [root]
        while stack:
            x = stack.pop()
            for y, same in links[x]:
                sign = relative[x][1] * same
                if y not in relative:
                    relative[y] = (root, sign)
                    stack.append(y)
                elif relative[y][1] != sign:
                    return [0] * (len(chords) + 1)  # a component with no orientation
    betti = [0] * (len(chords) + 1)
    for signs in product((1, -1), repeat=len(roots)):
        root_sign = dict(zip(roots, signs))
        s = {x: root_sign[r] * sign for x, (r, sign) in relative.items()}
        betti[sum(s[into[a]] != s[a] for a, _b in chords)] += 1
    return betti


LEE = specialize_pair(build_it(), {"t": 1})
BAR_NATAN = specialize_pair(build_tt(), {"l": 1})

# (seed, crossings): 70 cubes at n <= 7, each with at most 7 circles in a state
DRAWS = [(seed, n) for n in range(1, 8) for seed in range(10)]


def betti_of(cube, pair, coefficients):
    return [degree["betti"] for degree in homology(cube, pair, coefficients)]


@pytest.mark.parametrize("seed,n", DRAWS, ids=[f"n{n}-seed{seed}" for seed, n in DRAWS])
def test_lee_and_bar_natan_homology_counts_the_orientations(seed, n):
    sigma, chords = random_chords(random.Random(1000 * n + seed), n, max_circles=7)
    cube = chord_cube(None, sigma, chords, sort_tries=0)
    assert {s for w in cube.vertices.values() for s in w} == {"A"}
    predicted = oriented_betti(sigma, chords)
    assert betti_of(cube, LEE, "q") == predicted
    assert betti_of(cube, BAR_NATAN, "z2") == predicted


TREFOIL = ([1, 2, 0, 5, 3, 4], [(0, 3), (1, 4), (2, 5)])
HOPF = ([1, 0, 3, 2], [(0, 2), (1, 3)])


@pytest.mark.parametrize("diagram,coefficients,betti,torsion", [
    # Khovanov's integral homology of the trefoil up to shift (Bar-Natan,
    # arXiv:math/0201043); over z2 the Z/2 in degree 3 adds one to degrees 2 and 3
    (TREFOIL, "z", [2, 0, 1, 1], [[], [], [], [2]]),
    (TREFOIL, "q", [2, 0, 1, 1], [[], [], [], []]),
    (TREFOIL, "z2", [2, 0, 2, 2], [[], [], [], []]),
    (HOPF, "z", [2, 0, 2], [[], [], []]),
    (HOPF, "q", [2, 0, 2], [[], [], []]),
    (HOPF, "z2", [2, 0, 2], [[], [], []]),
], ids=["trefoil-z", "trefoil-q", "trefoil-z2", "hopf-z", "hopf-q", "hopf-z2"])
def test_trefoil_and_hopf_link_under_aps(diagram, coefficients, betti, torsion):
    cube = chord_cube(None, *diagram, sort_tries=0)
    report = homology(cube, build_aps(), coefficients)
    assert [d["betti"] for d in report] == betti
    assert [d["torsion"] for d in report] == torsion


@pytest.mark.parametrize("diagram,betti", [(TREFOIL, [2, 0, 0, 0]), (HOPF, [2, 0, 2])],
                         ids=["trefoil", "hopf"])
def test_trefoil_and_hopf_link_orientations(diagram, betti):
    # a knot has two orientations, a two-component link four
    cube = chord_cube(None, *diagram, sort_tries=0)
    assert oriented_betti(*diagram) == betti
    assert betti_of(cube, LEE, "q") == betti_of(cube, BAR_NATAN, "z2") == betti
