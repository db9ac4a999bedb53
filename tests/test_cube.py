import importlib.resources
import json
import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import pytest

import frobpair.cobordism as cobordism
from frobpair.cli import build_builtin
from frobpair.cobordism import Move
from frobpair.cube import (
    BlockMatrix,
    CubeError,
    StateCube,
    _unit_pivots,
    check_d_squared,
    cube_from_json,
    differential,
    edge_map,
    homology,
    smith_normal_form,
    sparse_rank_gf2,
    specialize_pair,
    validate_cube,
    vertex_euler,
    vertex_keys,
)
from frobpair.pair import (
    build_aps,
    build_it,
    build_laurent_sqrt,
    build_rank2,
    build_tt,
    universal_algebra,
    _algebra_maps,
    FrobeniusPair,
    Rank2Params,
)
from frobpair.ring import INTEGERS, RingDecl, RingElem, ring
from frobpair.tensor import MAX_CIRCLES, BasisSpec, TensorError, compose, equal, word

from helpers import (
    block_product,
    cube_square_moves,
    cube_to_json,
    d_squared_by_differentials,
    disjoint_saddles,
    euler_characteristic,
    first_refusal_by_correspondence,
    item_one_cubes,
    local_square_key,
    random_cube,
    rank_fraction,
    rank_gf2,
    record_act_chains,
    square_circles,
    unit_pivot_inputs,
    unit_pivots_by_units,
)

Z = ring(INTEGERS)


def split1_cube():
    return StateCube(1, {"0": ("A",), "1": ("A", "A")},
                     {("0", 0): Move("split", (0,), (0, 1), ("A", "A"))})


def merge1_cube():
    return StateCube(1, {"0": ("A", "A"), "1": ("A",)},
                     {("0", 0): Move("merge", (0, 1), (0,), ("A",))})


def chain_cube_all_e():
    """A 2-crossing cube realizing the three-circle chain with essential
    circles; its square needs the first consistency identity."""
    return StateCube(2, {
        "00": ("E", "E", "E"), "10": ("A", "E"), "01": ("E", "E"), "11": ("E",),
    }, {
        ("00", 0): Move("merge", (0, 1), (0,), ("A",)),
        ("00", 1): Move("merge", (1, 2), (1,), ("E",)),
        ("10", 1): Move("merge", (0, 1), (0,), ("E",)),
        ("01", 0): Move("merge", (0, 1), (0,), ("E",)),
    })


# -- validation ------------------------------------------------------------------


def test_validate_split1():
    assert validate_cube(split1_cube())


def test_validate_rejects_merge_on_single_circle():
    with pytest.raises(CubeError, match="out of range"):
        StateCube(1, {"0": ("A",), "1": ()}, {("0", 0): Move("merge", (0, 1), (0,), ("A",))})


def test_validate_rejects_word_mismatch():
    with pytest.raises(CubeError, match="produces word"):
        StateCube(1, {"0": ("A",), "1": ("E", "E")},
                  {("0", 0): Move("split", (0,), (0, 1), ("A", "A"))})


def test_validate_rejects_illegal_sorts():
    with pytest.raises(CubeError, match="no generator"):
        StateCube(1, {"0": ("A",), "1": ("A", "E")},
                  {("0", 0): Move("split", (0,), (0, 1), ("A", "E"))})


def test_validate_rejects_a_split_with_one_output_slot_for_two_sorts():
    # a cube built in Python, not read from a file: tensor.move_plan, which places
    # the move's outputs, refuses one slot for two output sorts, so no circle is lost
    with pytest.raises(CubeError) as refusal:
        StateCube(1, {"0": ("A",), "1": ("A",)},
                  {("0", 0): Move("split", (0,), (0,), ("A", "A"))})
    assert str(refusal.value) == \
        "edge 0/0: target slots (0,) do not fit the image of slots (0,) of ('A',)"


def test_validate_rejects_incompatible_square():
    # two far-apart splits, but one path misroutes the untouched circle
    vertices = {"00": ("A", "A"), "10": ("A", "A", "A"), "01": ("A", "A", "A"),
                "11": ("A", "A", "A", "A")}
    edges = {
        ("00", 0): Move("split", (0,), (0, 1), ("A", "A")),
        ("00", 1): Move("split", (1,), (1, 2), ("A", "A")),
        ("10", 1): Move("split", (2,), (2, 3), ("A", "A")),
        # wrong: sends the untouched third circle elsewhere
        ("01", 0): Move("split", (0,), (0, 3), ("A", "A")),
    }
    with pytest.raises(CubeError, match="does not commute"):
        StateCube(2, vertices, edges)


def test_validate_missing_vertex_and_edge():
    with pytest.raises(CubeError, match="missing vertex"):
        validate_cube(StateCube(1, {"0": ("A",)}, {}))
    with pytest.raises(CubeError, match="missing edge"):
        validate_cube(StateCube(1, {"0": ("A",), "1": ("A", "A")}, {}))


class Draft(NamedTuple):
    """A cube's parts, not yet built: StateCube(*draft) scans them, and the
    correspondence oracles read them as they read a cube."""
    n: int
    vertices: dict
    edges: dict


def perturbed(rng, cube):
    """The cube's Draft with one edge changed: a split's outputs swapped, or a
    merge's output shifted one place."""
    (b, k), move = rng.choice(sorted(cube.edges.items()))
    if move.kind == "split":
        move = move._replace(dst=move.dst[::-1])
    else:
        move = move._replace(dst=((move.dst[0] + 1) % (len(cube.vertices[b]) - 1),))
    return Draft(cube.n, cube.vertices, {**cube.edges, (b, k): move})


def test_validate_matches_correspondence_oracle():
    # the one edge scan accepts and refuses exactly what the per-kind edge rules
    # of the old validation did, which re-read each edge per square, and a
    # refusal names the first refused edge or square in scan order
    rng = random.Random(17)
    verdicts = set()
    for _ in range(150):
        cube = perturbed(rng, random_cube(rng, n=rng.randint(2, 5)))
        first = first_refusal_by_correspondence(cube)
        try:
            ok = bool(StateCube(*cube))
        except CubeError as exc:
            ok = False
            assert first is not None and str(exc).startswith(first), (exc, first)
        assert ok == (first is None)
        verdicts.add(first.split()[0] if first else None)
    assert verdicts == {None, "edge", "square"}


def test_validated_squares_take_passive_circles_to_the_same_far_slot():
    # check_d_squared reads each square on the circles it touches; that is exact
    # because building a StateCube refuses every square whose other circles land
    # in different far slots on its two paths
    rng = random.Random(23)
    accepted = refused = 0
    for _ in range(200):
        cube = perturbed(rng, random_cube(rng, n=rng.randint(2, 5)))
        try:
            ok = bool(StateCube(*cube))
        except CubeError as exc:
            if str(exc).startswith("edge "):
                continue  # an illegal edge has no circle tracking
            ok = False
        squares = [(b, k, l) for b in cube.vertices
                   for k, l in combinations([k for k in range(cube.n) if b[k] == "0"], 2)]
        same = all(one == two for _t, (one, two) in (square_circles(cube, *sq) for sq in squares))
        assert same or not ok, cube
        accepted += ok
        refused += not same
    assert accepted > 100 and refused > 20


def broken(move):
    """The move with its outputs at slot -1, out of range on any word."""
    return move._replace(dst=(-1,) * len(move.dst))


def test_validate_refuses_an_edge_before_an_earlier_square():
    # squares are checked only after every edge: a cube whose first refused
    # square sits at an earlier vertex than a refused edge is refused at the edge
    rng = random.Random(41)
    found = 0
    for _ in range(120):
        cube = perturbed(rng, random_cube(rng, n=rng.randint(3, 5)))
        first = first_refusal_by_correspondence(cube)
        if first is None or not first.startswith("square at "):
            continue
        at = int(first.split()[2], 2)
        later = [(b, k) for b, k in sorted(cube.edges) if int(b, 2) > at]
        if not later:
            continue
        b, k = rng.choice(later)
        cube = cube._replace(edges={**cube.edges, (b, k): broken(cube.edges[b, k])})
        assert first_refusal_by_correspondence(cube) == f"edge {b}/{k}"
        with pytest.raises(CubeError, match=rf"^edge {b}/{k}: "):
            StateCube(*cube)
        found += 1
    assert found > 20


def test_validate_refuses_the_first_of_two_bad_edges_in_scan_order():
    # two illegal edges, at one vertex or two: the refusal names the first one
    # the scan meets (vertices in numeric order, bits ascending)
    rng = random.Random(43)
    for _ in range(60):
        cube = random_cube(rng, n=rng.randint(2, 5))
        two = rng.sample(sorted(cube.edges), 2)
        edges = {**cube.edges, **{key: broken(cube.edges[key]) for key in two}}
        b, k = min(two, key=lambda key: (int(key[0], 2), key[1]))
        with pytest.raises(CubeError, match=rf"^edge {b}/{k}: "):
            StateCube(cube.n, cube.vertices, edges)


def test_validate_builds_one_bitmask_per_distinct_path(monkeypatch):
    # a path is its two edges' (source word, move) pairs; validation builds its
    # `_reach` bitmasks once, however many squares share it
    import frobpair.cube as cube_mod

    calls = []
    real = cube_mod._reach
    monkeypatch.setattr(cube_mod, "_reach",
                        lambda one, two: calls.append((id(one), id(two))) or real(one, two))
    for n in (4, 5, 6):
        made = random_cube(random.Random(n), n=n, max_circles=8)
        paths, squares = set(), 0
        for b in made.vertices:
            zeros = [k for k in range(n) if b[k] == "0"]
            for k, l in combinations(zeros, 2):
                squares += 1
                for first, second in ((k, l), (l, k)):
                    mid = b[:first] + "1" + b[first + 1:]
                    paths.add(((made.vertices[b], made.edges[b, first]),
                               (made.vertices[mid], made.edges[mid, second])))
        calls.clear()
        cube = cube_from_json(cube_to_json(made))
        assert len(calls) == len(set(calls)) == len(paths) < 2 * squares


def test_load_interprets_each_edge_once(monkeypatch):
    # loading interprets each distinct (source word, move) once; after that, d^2,
    # homology over every coefficient ring and every edge map read what it kept
    import frobpair.cube as cube_mod

    calls = []
    real = cube_mod.interpret
    monkeypatch.setattr(cube_mod, "interpret",
                        lambda w, *m: calls.append((w, Move(*m))) or real(w, *m))
    aps = build_aps()
    for n in (1, 3, 5):
        cube = random_cube(random.Random(n), n=n, max_circles=8)
        distinct = {(cube.vertices[b], move) for (b, _k), move in cube.edges.items()}
        calls.clear()
        cube = cube_from_json(cube_to_json(cube))
        assert len(calls) == len(set(calls)) and set(calls) == distinct
        assert check_d_squared(cube, aps) == (True, None)
        for coeff in ("q", "z", "z2"):
            homology(cube, aps, coeff)
        for b, k in cube.edges:
            edge_map(cube, aps, b, k)
        assert len(calls) == len(distinct)
    assert len(distinct) < len(cube.edges)  # the n = 5 cube repeats some (word, move)


def test_load_enumerates_the_squares_once(monkeypatch):
    # validation fills the cube's squares and d^2 reads them; a cube built
    # directly enumerates the same squares
    import frobpair.cube as cube_mod

    made = random_cube(random.Random(5), n=5, max_circles=8)
    direct = StateCube(made.n, made.vertices, made.edges)
    cube = cube_from_json(cube_to_json(made))
    squares = cube.squares
    assert direct.squares == squares and len(squares) > 40
    # keys are the two paths (edge v/k, then l) and (edge v/l, then k), each as
    # its two edge numbers, with the square's first (vertex index, k, l)
    numbers, bit = cube.scan[1], [1 << cube.n - 1 - k for k in range(cube.n)]
    assert all(type(v) is int and v < 2 ** cube.n for v, _k, _l in squares.values())
    assert all(q == ((numbers[v][k], numbers[v ^ bit[k]][l]),
                     (numbers[v][l], numbers[v ^ bit[l]][k]))
               and {type(e) for path in q for e in path} == {int}
               for q, (v, k, l) in squares.items())
    monkeypatch.setattr(cube_mod, "_bits", lambda n: pytest.fail("squares enumerated again"))
    assert check_d_squared(cube, build_aps()) == (True, None)
    assert cube.squares is squares


def test_load_scans_the_vertices_once_and_homology_walks_the_edges_once(monkeypatch):
    # loading lists the vertices (`_bits`) once, for one scan that numbers the
    # edges, fills the squares and tests them; homology lists them at most once
    # more, for the chain dimensions, and takes every d_i's edges from one walk
    # of the numbered edges rather than a rescan of the vertices for each degree
    import frobpair.cube as cube_mod

    calls = []
    real = cube_mod._bits
    monkeypatch.setattr(cube_mod, "_bits", lambda n: calls.append(n) or real(n))
    aps = build_aps()
    for n in (3, 5):
        text = cube_to_json(random_cube(random.Random(n), n=n))
        calls.clear()
        cube = cube_from_json(text)
        assert calls == [n]
        for coeff in ("q", "z", "z2"):
            calls.clear()
            homology(cube, aps, coeff)
            assert len(calls) <= 1, (n, coeff, calls)


def test_validate_refuses_an_edge_on_a_one_bit_in_scan_order():
    # a cube built directly can hold an edge out of a vertex on a bit that is
    # already 1 (a cube file cannot: an edge key's * reads as 0); the scan
    # refuses it where it meets it, after the edges of earlier vertices and
    # before those of later ones
    with pytest.raises(CubeError, match=r"^missing edge 0->1$"):
        StateCube(1, {"0": ("A",), "1": ("A", "A")},
                  {("1", 0): Move("split", (0,), (0, 1), ("A", "A"))})
    with pytest.raises(CubeError, match=r"^edge 01/1 flips a 1-bit$"):
        StateCube(2, {"00": ("A",), "01": ("A", "A"), "10": ("A", "A"), "11": ("A",) * 3},
                  {("00", 0): Move("split", (0,), (0, 1), ("A", "A")),
                   ("00", 1): Move("split", (0,), (0, 1), ("A", "A")),
                   ("01", 0): Move("split", (0,), (0, 1), ("A", "A")),
                   ("01", 1): Move("split", (0,), (0, 1), ("A", "A"))})


def test_edge_errors_name_the_edge():
    with pytest.raises(CubeError, match=r"^edge 0/0: no generator for A->AE$"):
        StateCube(1, {"0": ("A",), "1": ("A", "E")},
                  {("0", 0): Move("split", (0,), (0, 1), ("A", "E"))})
    # a swap is a cobordism-word move only: interpret, which reads cube edges, refuses it
    with pytest.raises(CubeError, match=r"^edge 0/0: unknown move kind 'swap'$"):
        StateCube(1, {"0": ("A", "E"), "1": ("E", "A")}, {("0", 0): Move("swap", (0, 1), (1, 0))})


# -- differential -----------------------------------------------------------------


def test_differential_of_split1_is_delta():
    aps = build_aps()
    d0 = differential(split1_cube(), aps, 0)
    delta = aps.maps["Delta_A"]
    assert len(d0.entries) == len(delta.entries)
    for (o, t), v in delta.entries.items():
        assert d0.entries[(("1", o), ("0", t))] == v


def test_differential_beyond_n_is_zero():
    aps = build_aps()
    assert not differential(split1_cube(), aps, 5).entries
    assert not differential(split1_cube(), aps, 1).entries


def test_fig13_square_cancels_before_signs():
    # the two path composites agree entrywise, so the signed sum cancels
    aps = build_aps()
    cube = cube_from_json(importlib.resources.files("frobpair")
                          .joinpath("data/fig13.cube").read_text())
    assert not block_product(differential(cube, aps, 1), differential(cube, aps, 0))
    m_abd = edge_map(cube, aps, "10", 1)
    m_acd = edge_map(cube, aps, "01", 0)
    assert equal(
        __import__("frobpair.tensor", fromlist=["compose"]).compose(
            m_abd, edge_map(cube, aps, "00", 0)),
        __import__("frobpair.tensor", fromlist=["compose"]).compose(
            m_acd, edge_map(cube, aps, "00", 1)),
    )[0]


# -- d squared --------------------------------------------------------------------


@pytest.mark.parametrize("builder", [build_aps, build_tt, build_laurent_sqrt])
def test_d_squared_on_random_cubes(builder):
    pair = builder()
    rng = random.Random(2025)
    for _ in range(12):
        cube = random_cube(rng)
        ok, witness = check_d_squared(cube, pair)
        assert ok, witness


def test_d_squared_fails_for_it_on_consistency_square():
    ok, witness = check_d_squared(chain_cube_all_e(), build_it())
    assert not ok
    assert witness is not None


def test_d_squared_single_crossing_trivial():
    assert check_d_squared(split1_cube(), build_aps()) == (True, None)


def test_d_squared_matches_differential_oracle():
    # the verdict of the local square-by-square check equals that of composing
    # whole differentials, on pairs that pass and on it, which fails some squares;
    # the witness is the first failing square and the lex-first tuple where its
    # whole-word paths differ
    rng = random.Random(7)
    cubes = [random_cube(rng, n=rng.randint(2, 4)) for _ in range(12)] + item_one_cubes()
    it = build_it()
    rank2 = build_rank2(Rank2Params.over(Z, a=1, c_yy=0, c_yz=1, c_zz=0, d_yy=0, d_yz=1,
                                         d_zz=0, e_y=1, e_z=1, f_y=1, f_z=1))
    pairs = [build_aps(), build_tt(), build_laurent_sqrt(), rank2, it,
             specialize_pair(it, {"t": 1})]
    failing = 0
    for pair in pairs:
        for cube in cubes:
            ok, witness = check_d_squared(cube, pair)
            assert ok == d_squared_by_differentials(cube, pair), (pair.name, witness)
            if ok:
                assert witness is None
                continue
            failing += 1
            b, k, l, t = witness
            assert k < l and b[k] == b[l] == "0"
            # the witness is the first failing square in scan order
            for square in _squares_in_scan_order(cube):
                one, two = _square_paths(cube, pair, *square)
                if square == (b, k, l):
                    assert equal(one, two)[1][0] == t
                    break
                assert equal(one, two)[0], (pair.name, square, witness)
            else:
                raise AssertionError(f"witness {witness} is not a square")
    assert failing


def test_d_squared_names_the_first_missing_generator():
    # with one or two generators deleted, check_d_squared names the generator that
    # comparing the whole cube's squares, each edge map built whole, meets first;
    # on the cubes of seeds 0, 16 and 45 that is not the first in scan order
    rng = random.Random(19)
    cubes = [random_cube(rng, n=rng.randint(2, 4)) for _ in range(8)] + item_one_cubes()[3:] + \
        [random_cube(random.Random(seed), n=4) for seed in (0, 16, 45)]
    cases = 0
    for base, step in ((build_aps(), 2), (build_tt(), 7), (build_it(), 7)):
        names = sorted(base.maps)
        for gone in [(g,) for g in names] + list(combinations(names, 2))[::step]:
            maps = {g: m for g, m in base.maps.items() if g not in gone}
            pair = FrobeniusPair(base.ring, base.spec, maps, name=base.name)
            for cube in cubes:
                at = {(cube.vertices[b], move): (b, k) for (b, k), move in cube.edges.items()}
                squares = {}  # as the whole-word check took them: by (source word, move) edges
                for b, k, l in _squares_in_scan_order(cube):
                    bk, bl = b[:k] + "1" + b[k + 1:], b[:l] + "1" + b[l + 1:]
                    one, two, three, four = ((cube.vertices[x], cube.edges[x, y]) for x, y in (
                        (b, k), (bk, l), (b, l), (bl, k)))
                    squares.setdefault(((one, two), (three, four)))
                keys = list(squares)  # each edge map built whole, in square_order
                order = [e for k in cobordism.square_order(keys) for path in keys[k] for e in path]
                try:
                    for e in dict.fromkeys(order):
                        edge_map(cube, pair, *at[e])
                    expected = None
                except CubeError as exc:
                    expected = str(exc)
                try:
                    check_d_squared(cube, pair)
                    got = None
                except CubeError as exc:
                    got = str(exc)
                assert got == expected, (pair.name, gone)
                cases += expected is not None
    assert cases > 100


def _squares_in_scan_order(cube):
    """(b, k, l) for every square: vertices in numeric order, then k < l."""
    for v in range(2 ** cube.n):
        b = format(v, f"0{cube.n}b")
        zeros = [k for k in range(cube.n) if b[k] == "0"]
        yield from ((b, k, l) for k, l in combinations(zeros, 2))


def _square_paths(cube, pair, b, k, l):
    """The composites of the square's two paths: flip k then l, and l then k."""
    bk, bl = b[:k] + "1" + b[k + 1:], b[:l] + "1" + b[l + 1:]
    return (compose(edge_map(cube, pair, bk, l), edge_map(cube, pair, b, k)),
            compose(edge_map(cube, pair, bl, k), edge_map(cube, pair, b, l)))


def test_d_squared_builds_each_edge_map_and_square_once(monkeypatch):
    # each square is read on the circles it touches, and the pair keeps each local
    # square's verdict: across two cubes each distinct local square is compared
    # exactly once, unless its two saddles touch disjoint circles, which
    # compare_squares decides unevaluated; each call acts each distinct (local
    # word, prefix) once, no whole-word edge map is built, and a repeated check
    # makes no act call at all
    import frobpair.cube as cube_mod

    compared = []
    real_equal = cobordism.equal
    monkeypatch.setattr(cube_mod, "edge_map", lambda *a: pytest.fail("whole-word edge map"))
    monkeypatch.setattr(cobordism, "equal", lambda f, g: compared.append(1) or real_equal(f, g))
    aps = build_aps()
    acts = record_act_chains(monkeypatch, aps)
    cubes = [random_cube(random.Random(8), n=4), random_cube(random.Random(4), n=4)]
    seen, shared, squares, counts = set(), set(), set(), []
    for cube in cubes:
        far = {}  # local square -> whether its saddles touch disjoint circles
        for square in _squares_in_scan_order(cube):
            far.setdefault(local_square_key(cube, *square), set()).add(
                disjoint_saddles(cube_square_moves(cube, *square)))
        assert all(len(kinds) == 1 for kinds in far.values())
        local = set(far)
        for b, k, l in _squares_in_scan_order(cube):
            bk, bl = b[:k] + "1" + b[k + 1:], b[:l] + "1" + b[l + 1:]
            squares.add((cube.vertices[b], cube.edges[(b, k)], cube.edges[(bk, l)],
                         cube.edges[(b, l)], cube.edges[(bl, k)]))
        acts.clear()
        compared.clear()
        assert check_d_squared(cube, aps) == (True, None)
        assert len(compared) == len([key for key in local - seen if far[key] == {False}]) > 0
        counts.append((len(local - seen), len(compared)))
        assert acts and len(acts) == len(set(acts)) and all(len(w) <= 4 for w, _moves in acts)
        shared |= local & seen
        seen |= local
    assert shared  # the second cube meets local squares that the first compared
    assert counts[0] == (11, 10)
    assert len(seen) == len(aps.square_verdicts) < len(squares)
    for cube in cubes:
        acts.clear()
        compared.clear()
        assert check_d_squared(cube, aps) == (True, None)
        assert acts == [] and compared == []


# -- specialization -----------------------------------------------------------------


def test_specialize_tt_to_constants():
    tt = build_tt()
    flat = specialize_pair(tt, {"l": 1})
    for m in flat.maps.values():
        for v in m.entries.values():
            assert v.is_constant()
    ok, _ = check_d_squared(merge1_cube_all("A"), flat)
    assert ok


def merge1_cube_all(sort):
    out = "A" if sort == "A" else "E"
    return StateCube(1, {"0": (sort, sort), "1": (out,)},
                     {("0", 0): Move("merge", (0, 1), (0,), (out,))})


def test_specialize_universal_to_aps():
    decl = ring(INTEGERS, "h", "t")
    alg = universal_algebra(decl, decl.gen("h"), decl.gen("t"))
    spec = BasisSpec(("1", "X"), ("1", "X"), decl)
    pair = FrobeniusPair(decl, spec, _algebra_maps(alg, spec), name="universal")
    flat = specialize_pair(pair, {"h": 0, "t": 0})
    aps = build_aps()
    for name in ("mu_A", "Delta_A", "eta", "eps"):
        got = {k: str(v) for k, v in flat.maps[name].entries.items()}
        want = {k: str(v) for k, v in aps.maps[name].entries.items()}
        assert got == want, name


def test_specialize_identity_assignment():
    aps = build_aps()
    again = specialize_pair(aps, {})
    for name in aps.maps:
        assert equal(aps.maps[name], again.maps[name])[0]


def test_specialize_pair_checks_once_and_takes_each_power_once(monkeypatch):
    # sqrt at a = b = 1: its 64 entries hold 7 distinct (variable, exponent)
    # pairs.  The assignment's two invertible variables are each checked for
    # a unit once, and each distinct power is taken once; the unit check and
    # the power inside a negative power are not counted
    sqrt = build_laurent_sqrt()
    assignment = {name: sqrt.ring.parse("1") for name in ("a", "b")}
    distinct = {factor for m in sqrt.maps.values() for v in m.entries.values()
                for mono in v.terms for factor in mono}
    depth, units, powers = [0], [], []
    real_is_unit, real_pow = RingElem.is_unit, RingElem.__pow__

    def is_unit(self):
        if not depth[0]:
            units.append(self)
        return real_is_unit(self)

    def power(self, k):
        if not depth[0]:
            powers.append(k)
        depth[0] += 1
        try:
            return real_pow(self, k)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(RingElem, "is_unit", is_unit)
    monkeypatch.setattr(RingElem, "__pow__", power)
    flat = specialize_pair(sqrt, assignment)
    monkeypatch.undo()
    assert sum(len(m.entries) for m in sqrt.maps.values()) == 64 and len(distinct) == 7
    assert len(units) == 2
    assert sorted(powers) == sorted(e for _v, e in distinct)
    assert all(v.is_constant() for m in flat.maps.values() for v in m.entries.values())


@pytest.mark.parametrize("build,assignment", [(build_tt, {"l": "1"}),
                                               (build_laurent_sqrt, {"a": "1", "b": "1"})])
def test_specialize_pair_substitutes_each_distinct_value_once(monkeypatch, build, assignment):
    # tt's 48 entries hold 3 distinct values and sqrt's 64 hold 8; each
    # substitution starts from one zero, so the zeros made count them
    pair = build()
    values = [v for m in pair.maps.values() for v in m.entries.values()]
    zeros, real_zero = [], RingDecl.zero
    monkeypatch.setattr(RingDecl, "zero", lambda decl: zeros.append(decl) or real_zero(decl))
    flat = specialize_pair(pair, {k: pair.ring.parse(v) for k, v in assignment.items()})
    monkeypatch.undo()
    assert (len(values), len(set(values))) == ((48, 3) if build is build_tt else (64, 8))
    assert len(zeros) == len(set(values))
    again = specialize_pair(pair, assignment)
    assert all(equal(flat.maps[name], m)[0] for name, m in again.maps.items())


# -- homology -----------------------------------------------------------------------


def test_homology_merge_cube_z2():
    got = homology(merge1_cube(), build_aps(), "z2")
    assert [s["betti"] for s in got] == [2, 0]


def test_homology_split_cube_q():
    # Delta_A is injective from dim 2 into dim 4: betti (0, 2) by the rank oracle
    dense = differential(split1_cube(), build_aps(), 0).dense()
    r = rank_fraction(dense)
    assert r == 2
    got = homology(split1_cube(), build_aps(), "q")
    assert [s["betti"] for s in got] == [2 - r, 4 - r]


def test_homology_empty_cube():
    cube = StateCube(0, {"": ("A",)}, {})
    got = homology(cube, build_aps(), "q")
    assert [s["betti"] for s in got] == [2]


def test_homology_bounds_every_vertex_word_first():
    # a cube built in Python, not read by the CLI, is bounded too, before any
    # coefficient refusal: double has four E labels, so nine E circles span 4**9
    cube, double = StateCube(0, {"": ("E",) * 9}, {}), build_builtin("double", {})
    for coeff in ("q", "no such coefficients"):
        with pytest.raises(TensorError) as refusal:
            homology(cube, double, coeff)
        assert str(refusal.value) == \
            "the word EEEEEEEEE spans 262144 basis tuples, over the limit of 65536"


def test_homology_requires_constants():
    with pytest.raises(CubeError, match="specialize first"):
        homology(merge1_cube_all("A"), build_laurent_sqrt(), "q")


def test_homology_rejects_q_for_mod2_pair():
    with pytest.raises(CubeError, match="rational"):
        homology(merge1_cube_all("A"), build_tt(), "q")


def test_homology_refuses_unknown_coefficients():
    with pytest.raises(CubeError, match="^unknown coefficients 'r'$"):
        homology(merge1_cube_all("A"), build_aps(), "r")


def test_integer_homology_on_random_cubes():
    # Z and Q ranks of an integer matrix agree, so the Betti numbers do; seed 0
    # reaches a cube with Z/2 torsion, so the torsion check is not vacuous
    rng = random.Random(0)
    aps = build_aps()
    torsion = []
    for _ in range(10):
        cube = random_cube(rng, n=rng.randint(2, 4))
        over_z, over_q = homology(cube, aps, "z"), homology(cube, aps, "q")
        assert [s["betti"] for s in over_z] == [s["betti"] for s in over_q]
        torsion += [x for s in over_z for x in s["torsion"]]
    assert torsion and all(x > 1 for x in torsion)


def test_integer_torsion_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(0)
    aps = build_aps()
    for _ in range(10):
        cube = random_cube(rng, n=rng.randint(2, 4))
        report = homology(cube, aps, "z")
        for i in range(cube.n):
            snf = sympy_snf(sympy.Matrix(differential(cube, aps, i).dense()),
                            domain=sympy.ZZ)
            diagonal = [abs(int(snf[k, k])) for k in range(min(snf.shape))]
            assert report[i + 1]["torsion"] == sorted(x for x in diagonal if x > 1)


def snf_diagonal(mat):
    d, _u, _v = smith_normal_form(mat)
    return [d[k][k] for k in range(min(len(mat), len(mat[0]) if mat else 0))]


def dense_z_report(cube, pair):
    """Integer homology from the dense Smith form of each full differential."""
    dims = [len(vertex_keys(cube, pair, i)) for i in range(cube.n + 1)]
    ranks, torsion = [0] * (cube.n + 1), [[] for _ in dims]
    for i in range(cube.n):
        diagonal = snf_diagonal(differential(cube, pair, i).dense())
        ranks[i] = sum(1 for x in diagonal if x)
        torsion[i + 1] = [x for x in diagonal if x > 1]
    return [{"betti": dims[i] - ranks[i] - (ranks[i - 1] if i else 0),
             "torsion": torsion[i]} for i in range(cube.n + 1)]


def dense_q_report(cube, pair):
    """Rational homology from the dense rank of each full differential."""
    dims = [len(vertex_keys(cube, pair, i)) for i in range(cube.n + 1)]
    ranks = [rank_fraction(differential(cube, pair, i).dense()) for i in range(cube.n)] + [0]
    return [{"betti": dims[i] - ranks[i] - (ranks[i - 1] if i else 0), "torsion": []}
            for i in range(cube.n + 1)]


def mobius_cube():
    """A 2-crossing cube of 1->1 (mobius) edges on its first circle, which each
    edge turns from A to E or back; a passive A circle rides along."""
    there, back = Move("mobius", (0,), (0,), ("E",)), Move("mobius", (0,), (0,), ("A",))
    return StateCube(2, {"00": ("A", "A"), "10": ("E", "A"), "01": ("E", "A"), "11": ("A", "A")},
                     {("00", 0): there, ("00", 1): there, ("10", 1): back, ("01", 0): back})


def test_mobius_edges_in_a_cube():
    cube = mobius_cube()
    assert validate_cube(cube)
    aps, tt = build_aps(), specialize_pair(build_tt(), {"l": 1})
    for pair in (aps, tt):
        assert check_d_squared(cube, pair) == (True, None)
        assert d_squared_by_differentials(cube, pair)
    for coeff in ("q", "z", "z2"):
        assert homology(cube, aps, coeff) == [{"betti": b, "torsion": []} for b in (2, 4, 2)]
    assert [s["betti"] for s in homology(cube, tt, "z2")] == [0, 0, 0]
    # the dense ranks of the whole differentials give the same Betti numbers
    for pair, coeff, rank in ((aps, "q", rank_fraction), (aps, "z2", rank_gf2),
                              (tt, "z2", rank_gf2)):
        dims = [len(vertex_keys(cube, pair, i)) for i in range(3)]
        ranks = [rank(differential(cube, pair, i).dense()) for i in range(2)] + [0]
        assert [s["betti"] for s in homology(cube, pair, coeff)] == \
            [dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(3)]


def test_unit_pivots_match_dense_snf():
    # entries in -3..3 leave non-unit pivots behind, so some residuals are
    # nonempty; the sparse matrices, mostly +-1 with some +-2, fill in over
    # many pivots.  The ranks over Q and GF(2), which share no code with the
    # Smith form, check the rank and the number of even invariant factors
    small, sparse = unit_pivot_inputs()
    # the pivot on column 1 leaves a +-1 in column 0 after a first sweep
    # (shortest columns first: 2, 0, 1) has passed column 0
    late_unit = [[2, 1, 0], [3, 1, 0], [0, 1, 1]]
    residual_torsion = 0
    for m in small + [late_unit] + sparse:
        count, residual = _unit_pivots([{c: x for c, x in enumerate(row) if x} for row in m])
        assert not any(x in (1, -1) for row in residual for x in row)
        rest = snf_diagonal(residual)
        assert [1] * count + [x for x in rest if x] == [x for x in snf_diagonal(m) if x]
        assert count + rank_fraction(residual) == rank_fraction(m)
        assert count + rank_gf2(residual) == rank_gf2(m)
        residual_torsion += any(x > 1 for x in rest)
        assert sparse_rank_gf2([{c: x for c, x in enumerate(row) if x} for row in m]) == rank_gf2(m)
    assert residual_torsion
    assert _unit_pivots([{c: x for c, x in enumerate(row) if x} for row in late_unit]) == (3, [])


@pytest.mark.parametrize("m,count,sweeps", [
    ([[1, 2], [2, 6]], 1, 1),  # the pivot leaves the residual [[2]]: no +-1, no second sweep
    ([[2, 4], [0, 3]], 0, 0),  # no +-1 at all: no sweep
    ([[2, 1, 0], [3, 1, 0], [0, 1, 1]], 3, 2),  # a +-1 made in a column already passed
], ids=["residual", "no_unit", "late_unit"])
def test_unit_pivots_sweep_while_a_unit_is_left(monkeypatch, m, count, sweeps):
    # each sweep sorts the columns once, by their lengths
    import builtins
    import frobpair.cube as cube_mod

    keyed = []

    def counting(items, **kwargs):
        keyed.extend(["key" in kwargs])
        return builtins.sorted(items, **kwargs)

    monkeypatch.setattr(cube_mod, "sorted", counting, raising=False)
    got, residual = _unit_pivots([{c: x for c, x in enumerate(row) if x} for row in m])
    assert got == count and sum(keyed) == sweeps
    assert not any(x in (1, -1) for row in residual for x in row)


@pytest.mark.parametrize("m,count,residual", [
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 1, []),  # the pivot empties columns 1 and 2
    ([[1, 1, 2, 0], [1, 1, 2, 3], [0, 0, 2, 0]], 1, [[0, 3], [2, 0]]),  # column 1
], ids=["rank_one", "residual"])
def test_unit_pivots_pass_over_columns_the_sweep_emptied(monkeypatch, m, count, residual):
    # the pivot on column 0 takes or cancels every row of a later column, so
    # the sweep reaches it empty: it builds no list of units from it
    from collections import defaultdict
    import frobpair.cube as cube_mod

    empty_scans = []

    class Column(set):
        def __iter__(self):
            empty_scans.extend([] if self else [1])
            return super().__iter__()

    monkeypatch.setattr(cube_mod, "defaultdict", lambda factory: defaultdict(Column))
    assert _unit_pivots([{c: x for c, x in enumerate(row) if x} for row in m]) == (count, residual)
    assert not empty_scans


def test_unit_pivots_and_gf2_ranks_match_the_units_list_oracle(monkeypatch):
    # the pivot found in one scan of its column is the one the oracle picks
    # from its list of the column's units: the first of the shortest rows that
    # hold a +-1, in column-set order, so every count and residual is equal.
    # Half the matrices give each row the same number of entries, so columns
    # hold +-1s in rows of equal length
    import frobpair.cube as cube_mod

    rng, tied = random.Random(49), 0
    for k in range(80):
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
        if k % 2:
            width = rng.randint(1, min(cols, 4))
            places = [set(rng.sample(range(cols), width)) for _ in range(rows)]
        else:
            places = [{c for c in range(cols) if rng.random() < 0.15} for _ in range(rows)]
        m = [[rng.choice((1, -1, 2, -2, 3)) if c in row else 0 for c in range(cols)]
             for row in places]
        unit_lengths = [[len(places[r]) for r in range(rows) if m[r][c] in (1, -1)]
                        for c in range(cols)]
        tied += any(len(set(ls)) < len(ls) for ls in unit_lengths)
        sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
        assert _unit_pivots([dict(row) for row in sparse]) == unit_pivots_by_units(sparse)
    assert tied > 40
    # z2 homology of generated cubes, n = 6..8, whose rows span many machine
    # words, has the Betti numbers of the oracle's elimination mod 2
    widths = []

    def oracle(rows):
        widths.append(max((c for row in rows for c in row), default=0))
        return unit_pivots_by_units([{c: x % 2 for c, x in row.items() if x % 2}
                                     for row in rows], modulus=2)[0]

    pairs = (build_aps(), _at_one(build_tt, "l"))
    for n in (6, 6, 7, 7, 8, 8):
        cube = random_cube(rng, n=n, max_circles=8)
        for pair in pairs:
            got = homology(cube, pair, "z2")
            with monkeypatch.context() as patch:
                patch.setattr(cube_mod, "sparse_rank_gf2", oracle)
                assert homology(cube, pair, "z2") == got, (n, pair.name)
    assert max(widths) > 4 * 64


def test_integer_homology_matches_dense_snf(monkeypatch):
    import frobpair.cube as cube_mod

    residuals = []
    real = cube_mod._unit_pivots

    def recording(rows, *args, **kwargs):
        count, residual = real(rows, *args, **kwargs)
        residuals.append(residual)
        return count, residual

    monkeypatch.setattr(cube_mod, "_unit_pivots", recording)
    rng = random.Random(0)
    aps = build_aps()
    torsion = []
    for _ in range(12):
        cube = random_cube(rng, n=rng.randint(2, 4))
        report = homology(cube, aps, "z")
        assert report == dense_z_report(cube, aps)
        torsion += [x for s in report for x in s["torsion"]]
    assert any(residuals) and torsion and all(x > 1 for x in torsion)
    # over q the Smith form finishes the residual too: rank2 at a = 1 and sqrt at
    # a = b = 1 have entries other than +-1, and each leaves nonempty residuals
    finished = []
    real_snf = cube_mod.smith_normal_form
    monkeypatch.setattr(cube_mod, "smith_normal_form",
                        lambda m: finished.append(bool(m)) or real_snf(m))
    rng = random.Random(0)
    sqrt = specialize_pair(build_laurent_sqrt(), {"a": 1, "b": 1})
    for pair in (build_builtin("rank2", {"a": "1"}), sqrt):
        finished.clear()
        for _ in range(12):
            cube = random_cube(rng, n=rng.randint(2, 4))
            assert homology(cube, pair, "q") == dense_q_report(cube, pair)
        assert any(finished), pair.name


@pytest.mark.parametrize("coeff,reducer", [("q", "sparse_rank_fraction"),
                                           ("z2", "sparse_rank_gf2"),
                                           ("z", "smith_normal_form")])
def test_homology_builds_and_reduces_each_differential_once(monkeypatch, coeff, reducer):
    # each d_i is scattered from constant edge blocks, with no differential, no
    # BlockMatrix and no edge map: one block per distinct (source word, move) for
    # all degrees, built from the generators' entries, each made a constant once;
    # it goes through one unit-pivot elimination and is never made dense; over q
    # and z the Smith form then runs on its residual only
    import frobpair.cube as cube_mod
    from frobpair.ring import RingElem

    built, reduced, cells, constants = [], [], [], []
    monkeypatch.setattr(cube_mod, "differential",
                        lambda c, p, i: pytest.fail(f"differential over {coeff}"))
    monkeypatch.setattr(cube_mod, "edge_map", lambda *a: pytest.fail(f"edge_map over {coeff}"))
    real_block, real_constant = cube_mod._block, RingElem.constant_value
    monkeypatch.setattr(cube_mod, "_block", lambda radix, move, entries: built.append(
        move[:4]) or real_block(radix, move, entries))
    monkeypatch.setattr(RingElem, "constant_value",
                        lambda v: constants.append(1) or real_constant(v))

    def recording(name, real):
        def call(m, *args, **kwargs):
            reduced.append(name)
            if name == "smith_normal_form":
                cells.append(len(m) * len(m[0]) if m else 0)
            return real(m, *args, **kwargs)
        return call

    for name in ("sparse_rank_fraction", "sparse_rank_gf2", "smith_normal_form",
                 "_unit_pivots"):
        monkeypatch.setattr(cube_mod, name, recording(name, getattr(cube_mod, name)))
    monkeypatch.setattr(BlockMatrix, "dense", lambda self: pytest.fail(f"dense() over {coeff}"))
    cube, aps = random_cube(random.Random(5), n=3), build_aps()
    homology(cube, aps, coeff)
    distinct = {(cube.vertices[b], move) for (b, _k), move in cube.edges.items()}
    assert len(distinct) < len(cube.edges)  # some edges share a map
    assert len(built) == len(distinct)
    assert set(built) == {(w, cobordism.interpret(w, *move)[0], move.src, move.dst)
                          for w, move in distinct}
    gens = {gen for _w, gen, *_ in built}
    assert len(constants) == sum(len(aps.generator_table()[gen].entries) for gen in gens)
    if coeff == "z2":  # int bitsets, no unit-pivot elimination
        assert reduced == [reducer] * cube.n
    else:
        # over q sparse_rank_fraction clears denominators, then takes the z route
        route = ["_unit_pivots", "smith_normal_form"]
        assert reduced == ([reducer] + route if coeff == "q" else route) * cube.n
        dims = [len(vertex_keys(cube, aps, i)) for i in range(cube.n + 1)]
        assert sum(cells) < sum(dims[i] * dims[i + 1] for i in range(cube.n))


def test_homology_forms_no_bit_string_per_edge(monkeypatch):
    # offsets and signs come from vertex indices: once the cube is loaded,
    # homology flips, weighs and lists no bit string
    import frobpair.cube as cube_mod

    cube, aps = random_cube(random.Random(6), n=6, max_circles=8), build_aps()
    assert len(cube.edges) == 6 * 2 ** 5
    formed = []
    for name in ("_bits", "_flip", "_weight"):
        real = getattr(cube_mod, name)
        monkeypatch.setattr(cube_mod, name,
                            lambda *a, real=real, name=name: formed.append(name) or real(*a))
    for coeff in ("q", "z", "z2"):
        homology(cube, aps, coeff)
    assert formed == []


def test_block_reads_the_sort_radices_once_per_homology_call(monkeypatch):
    # every _block call of one homology call reads one radix table, built once
    # by that call, and asks the basis spec nothing
    import frobpair.cube as cube_mod
    from frobpair.tensor import BasisSpec

    tables, inside, asked = [], [], []
    real_block = cube_mod._block

    def block(radix, move, entries):
        tables.append(radix)
        inside.append(True)
        try:
            return real_block(radix, move, entries)
        finally:
            inside.pop()

    for name in ("labels", "dim", "tuples"):
        real = getattr(BasisSpec, name)
        monkeypatch.setattr(BasisSpec, name, lambda self, *a, real=real, name=name: (
            asked.append(name) if inside else None) or real(self, *a))
    monkeypatch.setattr(cube_mod, "_block", block)
    cube, aps = random_cube(random.Random(5), n=5, max_circles=8), build_aps()
    distinct = {(cube.vertices[b], move) for (b, _k), move in cube.edges.items()}
    for coeff in ("q", "z"):
        tables.clear()
        homology(cube, aps, coeff)
        assert asked == []
        assert len(tables) == len(distinct) and len({id(t) for t in tables}) == 1
        assert tables[0] == {"A": 2, "E": 2}


class RecordingRow(dict):
    """A sparse row that logs each length read and each write, by row."""

    log = []

    def __len__(self):
        RecordingRow.log.append(("len", id(self)))
        return super().__len__()

    def __setitem__(self, key, value):
        RecordingRow.log.append(("write", id(self)))
        super().__setitem__(key, value)

    def __delitem__(self, key):
        RecordingRow.log.append(("write", id(self)))
        super().__delitem__(key)

    def pop(self, *args):
        RecordingRow.log.append(("write", id(self)))
        return super().pop(*args)


def test_unit_pivots_take_a_lone_column_without_other_rows():
    # columns 0 and 2 hold one row each, a +-1: each is that row's pivot, found
    # with no row length compared, and only the pivot row is written (its
    # pivot entry taken out); column 1 is then empty and column 3's 2 stays
    rows = [RecordingRow({0: 1, 1: 2}), RecordingRow({1: 3, 2: -1}), RecordingRow({3: 2})]
    RecordingRow.log.clear()
    assert _unit_pivots(rows) == (2, [[2]])
    assert RecordingRow.log == [("write", id(rows[0])), ("write", id(rows[1]))]


def differential_rows(cube, pair, i, coeff):
    """d_i as sparse rows from the differential oracle: its entries as constants in
    entry order, grouped by row in order of first entry, columns numbered by
    vertex_keys, each (column, type, value)."""
    cols = {c: k for k, c in enumerate(vertex_keys(cube, pair, i))}
    rows = {}
    for (r, c), v in differential(cube, pair, i).entries.items():
        x = v.constant_value()
        rows.setdefault(r, []).append((cols[c], x if coeff == "q" else int(x)))
    return [[(c, type(x), x) for c, x in row] for row in rows.values()]


def _at_one(build, *names):
    """The pair build() gives, with each named variable set to 1."""
    p = build()
    return specialize_pair(p, {name: p.ring.parse("1") for name in names})


@pytest.mark.parametrize("pair,coeff,reducer", [
    ("aps", "q", "sparse_rank_fraction"), ("aps", "z", "_unit_pivots"),
    ("aps", "z2", "sparse_rank_gf2"), ("tt l=1", "z2", "sparse_rank_gf2"),
    ("rank2 a=1", "q", "sparse_rank_fraction")])
def test_homology_rows_match_differential_oracle(monkeypatch, pair, coeff, reducer):
    # the reducer gets exactly the rows of differential(...): same rows in the same
    # order, same columns and values; over Z/2 no entry is negated to -1
    import frobpair.cube as cube_mod

    pair = {"aps": build_aps, "tt l=1": lambda: _at_one(build_tt, "l"),
            "rank2 a=1": lambda: build_builtin("rank2", {"a": "1"})}[pair]()
    received = []
    real = getattr(cube_mod, reducer)
    monkeypatch.setattr(cube_mod, reducer, lambda rows, *a, **kw: received.append(
        [[(c, type(x), x) for c, x in row.items()] for row in rows]) or real(rows, *a, **kw))
    rng = random.Random(11)
    for n in [2, 3, 4, 5] * 4:
        cube = random_cube(rng, n=n)
        received.clear()
        homology(cube, pair, coeff)
        assert received == [differential_rows(cube, pair, i, coeff) for i in range(cube.n)]


def first_entry(cube, pair, accept):
    """(i, v): the first entry v of d_i, in d_i's entry order, that accept takes,
    over i = 0..n-1 in turn."""
    return next((i, v) for i in range(cube.n)
                for v in differential(cube, pair, i).entries.values() if accept(v))


def test_homology_refusals_name_d_i_first_entry_with_its_sign():
    double = build_builtin("double", {})
    cube = random_cube(random.Random(2), n=2)
    i, v = first_entry(cube, double, lambda v: v.constant_value().denominator != 1)
    assert v.constant_value() < 0  # the edge's sign is in the message
    for coeff in ("z", "z2"):
        with pytest.raises(CubeError) as refusal:
            homology(cube, double, coeff)
        assert str(refusal.value) == (f"d_{i} has the non-integral entry {v.constant_value()}; "
                                      f"homology over {coeff} needs integers")
    # `it` at t=1 but for mu_A, which keeps t: in d_1 of this cube a fraction comes
    # before a non-constant entry, and "specialize first" still wins
    it, at_one = build_it(), _at_one(build_it, "t")
    pair = FrobeniusPair(it.ring, it.spec, {**at_one.maps, "mu_A": it.maps["mu_A"]},
                         name="it")
    cube = random_cube(random.Random(5))
    i, v = first_entry(cube, pair, lambda v: not v.is_constant())
    entries = list(differential(cube, pair, i).entries.values())
    fraction = next(k for k, x in enumerate(entries)
                    if x.is_constant() and x.constant_value().denominator != 1)
    assert fraction < entries.index(v) and str(v).startswith("-")
    assert first_entry(cube, pair, lambda v: not v.is_constant()
                       or v.constant_value().denominator != 1)[0] == i
    for coeff in ("q", "z", "z2"):
        with pytest.raises(CubeError) as refusal:
            homology(cube, pair, coeff)
        assert str(refusal.value) == f"specialize first: not a constant: {v}"


def test_homology_refuses_a_fraction_met_in_two_degrees_by_its_first_edge():
    # under `double`, mu_EEA (entries 1/4) first serves d_1 with sign -1 and then
    # d_2 with sign +1: the refusal names d_1 and the sign of mu_EEA's first edge
    double = build_builtin("double", {})
    cube = random_cube(random.Random(44), n=3)
    _words, numbers, moves = cube.scan
    signs = {(b.count("1"), b[:k].count("1") % 2) for v, row in enumerate(numbers)
             for b in [format(v, "03b")] for k, e in enumerate(row)
             if e is not None and moves[e][1] == "mu_EEA"}
    assert signs == {(1, 1), (2, 0)}
    for coeff in ("z", "z2"):
        with pytest.raises(CubeError) as refusal:
            homology(cube, double, coeff)
        assert str(refusal.value) == ("d_1 has the non-integral entry -1/4; "
                                      f"homology over {coeff} needs integers")


def test_generator_table_derives_beta_gamma_once(monkeypatch):
    import frobpair.pair as pair_mod

    aps = build_aps()
    composed = []
    real_compose = pair_mod.compose
    monkeypatch.setattr(pair_mod, "compose",
                        lambda f, g: composed.append(1) or real_compose(f, g))
    tables = [aps.generator_table() for _ in range(3)]
    cube = random_cube(random.Random(5), n=3)
    for (b, k) in cube.edges:
        edge_map(cube, aps, b, k)
    assert check_d_squared(cube, aps)[0]
    assert len(composed) == 2  # beta and gamma, on the first call only
    assert all(t is tables[0] for t in tables) and "beta" in tables[0]
    assert aps.generator_table() is tables[0]


def test_euler_characteristic_on_random_cubes():
    rng = random.Random(9)
    aps = build_aps()
    for _ in range(10):
        cube = random_cube(rng)
        for coeff in ("q", "z2"):
            rep = homology(cube, aps, coeff)
            assert euler_characteristic(rep) == vertex_euler(cube, aps)


def test_sign_convention_flip_preserves_betti():
    # (-1)^(ones before) vs (-1)^(ones after) give chain-isomorphic complexes
    rng = random.Random(123)
    aps = build_aps()
    for _ in range(6):
        cube = random_cube(rng, n=rng.randint(2, 3))

        def flipped_differential(i):
            from frobpair.cube import _bits, _flip, _weight, vertex_keys

            d = BlockMatrix(vertex_keys(cube, aps, i + 1), vertex_keys(cube, aps, i), Z)
            for b in _bits(cube.n):
                if _weight(b) != i:
                    continue
                for k in range(cube.n):
                    if b[k] != "0":
                        continue
                    sign = -1 if _weight(b[k + 1:]) % 2 else 1
                    m = edge_map(cube, aps, b, k)
                    for (o, t), v in m.entries.items():
                        d.entries[(_flip(b, k), o), (b, t)] = v if sign > 0 else -v
            return d

        for i in range(cube.n - 1):
            assert not block_product(flipped_differential(i + 1), flipped_differential(i))
        std = homology(cube, aps, "q")
        ranks = [rank_fraction(flipped_differential(i).dense())
                 if differential(cube, aps, i).cols else 0 for i in range(cube.n)]
        for i, slot in enumerate(std):
            dim = len(differential(cube, aps, i).cols) if i < cube.n else \
                len(differential(cube, aps, i - 1).rows)
            r_out = ranks[i] if i < cube.n else 0
            r_in = ranks[i - 1] if i > 0 else 0
            assert slot["betti"] == dim - r_out - r_in


# -- Smith normal form -----------------------------------------------------------------


def det(mat):
    """Fraction-free determinant for unimodularity checks."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_snf_examples():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]
    d, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]] and u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]


def test_snf_random_properties():
    try:  # without sympy the other checks still run
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    except ImportError:
        sympy = None
    rng = random.Random(88)
    inputs = []
    for low, high in ((1, 4),) * 120 + ((5, 9),) * 20:
        rows, cols = rng.randint(low, high), rng.randint(low, high)
        inputs.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    # ROADMAP item 2's family: sparse matrices on which pivots by size alone,
    # with floor quotients, grew U and V past millions of bits
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(5, 30), rng.randint(5, 30)
        inputs.append([[rng.choice((1, -1, 2, -2, 3)) if rng.random() < 0.2 else 0
                        for _ in range(cols)] for _ in range(rows)])
    for m in inputs:
        rows, cols = len(m), len(m[0])
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert all(abs(x).bit_length() <= 128 for row in u + v for x in row)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        if sympy is not None:
            snf = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
            assert diag == [abs(int(snf[k, k])) for k in range(min(snf.shape))]


# -- files ------------------------------------------------------------------------------


def test_cube_file_edges_read_as_moves():
    # 1-based file positions become 0-based slots, and a merge reads its
    # circles in increasing order however the file lists them
    merge = {"n": 1, "vertices": {"0": ["A", "E"], "1": ["E"]},
             "edges": {"*": {"kind": "merge", "i": 2, "j": 1, "out": 1, "sort": "E"}}}
    split = {"n": 1, "vertices": {"0": ["A", "E"], "1": ["A", "E", "A"]},
             "edges": {"*": {"kind": "split", "i": 1, "outs": [3, 1], "sorts": ["A", "A"]}}}
    cube = cube_from_json(json.dumps(merge))
    assert cube.edges == {("0", 0): Move("merge", (0, 1), (0,), ("E",))}
    assert cube.scan[2][0][1] == "mu_AE"
    cube = cube_from_json(json.dumps(split))
    assert cube.edges == {("0", 0): Move("split", (0,), (2, 0), ("A", "A"))}
    assert cube.scan[2][0][1] == "Delta_A"


def test_cube_file_roundtrip(tmp_path):
    for cube in (split1_cube(), merge1_cube(), chain_cube_all_e()):
        text = cube_to_json(cube)
        again = cube_from_json(text)
        assert again.n == cube.n
        assert again.vertices == {b: tuple(w) for b, w in cube.vertices.items()}
        assert again.edges == cube.edges
        assert cube_to_json(again) == text


def test_shipped_cubes_load_and_validate():
    for name in ("split1.cube", "merge1.cube", "fig13.cube"):
        text = importlib.resources.files("frobpair").joinpath(f"data/{name}").read_text()
        cube = cube_from_json(text)
        assert validate_cube(cube)


def test_cube_file_errors():
    with pytest.raises(CubeError, match="bad edge key"):
        cube_from_json('{"n": 1, "vertices": {"0": ["A"], "1": ["A","A"]}, '
                       '"edges": {"**": {"kind": "split"}}}')
    with pytest.raises(CubeError, match="unknown kind"):
        cube_from_json('{"n": 1, "vertices": {"0": ["A"], "1": ["A","A"]}, '
                       '"edges": {"*": {"kind": "twist"}}}')


def test_cube_file_refuses_split_outs_and_sorts_that_are_not_lists():
    # a string or an object is a sequence too: "sorts": "AA" once read as
    # ["A", "A"], and split1 with it loaded and gave homology
    text = importlib.resources.files("frobpair").joinpath("data/split1.cube").read_text()
    for field, value in (("sorts", "AA"), ("outs", {"1": 0, "2": 0}), ("sorts", {"A": 0, "E": 1}),
                         ("outs", "12"), ("sorts", 5)):
        obj = json.loads(text)
        obj["edges"]["*"][field] = value
        with pytest.raises(CubeError, match=r"^edge '\*': outs and sorts must be lists$"):
            cube_from_json(json.dumps(obj))
    assert cube_from_json(text).edges[("0", 0)].sorts == ("A", "A")


def test_cube_file_circle_limit():
    def one_vertex(k):
        return json.dumps({"n": 0, "vertices": {"": ["E"] * k}, "edges": {}})

    assert cube_from_json(one_vertex(MAX_CIRCLES)).vertices[""] == ("E",) * MAX_CIRCLES
    with pytest.raises(CubeError, match=f"a word of {MAX_CIRCLES + 1} circles"):
        cube_from_json(one_vertex(MAX_CIRCLES + 1))


def test_gf2_rank_matches_fraction_rank_mod2_free_case():
    rng = random.Random(4)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.choice([0, 1]) for _ in range(cols)] for _ in range(rows)]
        assert rank_gf2(m) <= rank_fraction(m)


def test_sparse_ranks_match_dense_oracle(monkeypatch):
    import frobpair.cube as cube_mod
    from frobpair.cube import sparse_rank_fraction, sparse_rank_gf2

    # residuals the +-1 pass leaves over q, which the Smith form then finishes
    residuals = []
    real = cube_mod._unit_pivots

    def recording(rows):
        count, residual = real(rows)
        residuals.append(any(any(row) for row in residual))
        return count, residual

    monkeypatch.setattr(cube_mod, "_unit_pivots", recording)
    entries = {"integer": lambda: rng.randint(-4, 4),
               "even": lambda: 2 * rng.randint(-2, 2),
               "rational": lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))}
    rng = random.Random(10)
    left_over = 0
    for _ in range(120):
        for kind, entry in entries.items():
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[entry() if rng.random() < 0.5 else 0 for _ in range(cols)]
                 for _ in range(rows)]
            sparse = [{c: v for c, v in enumerate(row) if v} for row in m]
            residuals.clear()
            # sparse_rank_fraction changes its rows in place; sparse_rank_gf2 reads them next
            assert sparse_rank_fraction([dict(row) for row in sparse]) == rank_fraction(m)
            assert len(residuals) == 1
            left_over += residuals[0]
            if kind == "even":  # no +-1 entry, so all of the rank is left over
                assert residuals == [bool(rank_fraction(m))]
            if kind != "rational":
                assert sparse_rank_gf2(sparse) == rank_gf2(m)
    assert left_over
    # GF(2) rows over many machine words: 65-700 columns, entries negative,
    # even and above 2**64, an empty row and repeated rows; some ranks exceed
    # 64, which no one word of bits can hold
    values = (1, -1, 3, -3, 2, -2, 2 ** 64, 2 ** 64 + 1, -(2 ** 64) - 3, 2 ** 65)
    ranks = []
    for _ in range(30):
        rows, cols = rng.randint(1, 90), rng.randint(65, 700)
        m = [[rng.choice(values) if rng.random() < 0.04 else 0 for _ in range(cols)]
             for _ in range(rows)]
        m += [[0] * cols] + [list(row) for row in rng.sample(m, min(rows, 3))]
        rng.shuffle(m)
        ranks.append(rank_gf2(m))
        assert sparse_rank_gf2([{c: v for c, v in enumerate(row) if v} for row in m]) == ranks[-1]
    assert max(ranks) > 64
