"""Shared test utilities: a random generator of valid state cubes.

States are modelled as cycles of a permutation: the all-zero state is a
random permutation sigma of a point set, each crossing is a transposition on
two dedicated points, and the state for bits s has permutation
sigma * prod(t_i for s_i = 1).  Multiplying by a disjoint transposition
merges or splits cycles, the transpositions commute, and cycle membership
gives canonical circle tracking, so every square commutes by construction.
Sorts are assigned randomly subject to the generator signature, with the
all-inessential labelling as a guaranteed-legal fallback.

Also the oracles that only tests use: the dense rank oracles `rank_fraction`
and `rank_gf2`, which the sparse rank routines of `frobpair.cube` are checked
against; the d^2 oracle `d_squared_by_differentials`, which `check_d_squared`
is checked against; `block_product` and `euler_characteristic` on differentials
and homology reports; `product_by_multiplying`, the sparse product that
`compose` and `act` are checked against; `first_refusal_by_correspondence`,
the edge-by-edge cube validation that `validate_cube` is checked against; and
`diamond_by_paths`, the path-by-path exchange suite that
`diamond_exchange_suite` is checked against; `square_circles` and
`local_square_key`, forward circle tracking around a square, which the
local squares of `check_d_squared` are checked against; and
`cancel_pole_pairs`, the pass-by-pass cyclic cancellation that
`pole_degree` is checked against; and `TableAlgebra`, k[X]/(X^2 - hX - t)
as hand-written structure constants, which the element arithmetic of
`frobpair.pair.FrobeniusAlgebra` is checked against; and
`record_act_chains`, which names the chain of moves each `act` of
`theory.evaluate_side` ends; and `exponent_generators`, the generators each
double-construction exponent scales, read off built pairs, on which the
whole-box exponent search `search_by_box` rests.

And three pieces that left the package because only tests use them:
`cube_to_json`, the cube file writer; `lemma_first_conditions`, the X-action
statement that criterion 07 checks; and `rank2_by_hand`, the rank-2 family's
generators written entry by entry, which `build_rank2` and `build_aps` are
checked against.  `item_one_cubes` gives the five benchmark-generator cubes
of the ROADMAP's non-complex repro, `rank2_at_a1` and `double_z2` the
benchmark's two pair files, and `unit_pivot_inputs` the seeded integer
matrices that the unit-pivot elimination and `snf` are checked on.
`unit_pivots_by_units`, the +-1 elimination that listed each column's units
before picking its pivot and also reduced residues mod 2, is what
`cube._unit_pivots` and `cube.sparse_rank_gf2` are checked against.

`disjoint_saddles`, circle tracking by hand around a square of moves, and
`cube_square_moves`, a cube's square as such moves, classify the squares
whose two saddles touch disjoint circles, on which the interchange rule of
`square_plan` is checked; `random_integer_pair` gives the seeded
random tables, not Frobenius pairs, that it is checked under.
`hand_placement`, a move's output word and provenance filled in slot by
slot with nothing of `frobpair.tensor`, is what `cobordism.interpret`'s
placement by `tensor.move_plan` is checked against.  `conjugate` gives the
pair isomorphic to a pair by a change of basis on A and on E, on which every
answer must be the same.
"""

import importlib.resources
import importlib.util
import itertools
import json
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from frobpair.cobordism import DIAMOND_CASES, MERGE_GEN, SPLIT_GEN, CobordismWord, evaluate
from frobpair.cube import CubeError, EdgeMove, StateCube, _bits, cube_from_json, differential
from frobpair.pair import (
    DOUBLE_SEARCH_EQUATIONS,
    FrobeniusPair,
    Rank2Params,
    VerifyRecord,
    build_double,
    build_rank2,
    universal_algebra,
)
from frobpair.ring import INTEGERS, MOD2, RingElem, ring, unit_invert
from frobpair.tensor import BasisSpec, LinMap, act, compose, equal
from frobpair.theory import A, E, SIGNATURE, TheoryError, evaluate_term, load_axioms, term_to_text

from diamonds import edge_labelings, reverse_events


def brute_force_pole_degrees(w):
    """All reduction results over every deletion order; confluence oracle."""
    if not w:
        return {0}
    results = set()
    stack = [tuple(w)]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        n = len(cur)
        reducible = False
        for i in range(n):
            j = (i + 1) % n
            if i != j and cur[i] == cur[j]:
                reducible = True
                stack.append(tuple(cur[k] for k in range(n) if k not in (i, j)))
        if not reducible:
            results.add(len(cur) // 2)
    return results


def cancel_pole_pairs(w):
    """Pole degree by cancelling one cyclically-adjacent same-side pair per
    pass until none remain; the survivor has length 2*degree."""
    w = list(w)
    changed = True
    while changed and w:
        changed = False
        n = len(w)
        for i in range(n):
            j = (i + 1) % n
            if i != j and w[i] == w[j]:
                w = [w[k] for k in range(n) if k not in (i, j)]
                changed = True
                break
    return len(w) // 2


def rank_fraction(mat) -> int:
    """Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank, col = 0, 0
    rows, cols = len(m), len(m[0]) if m else 0
    while rank < rows and col < cols:
        piv = next((r for r in range(rank, rows) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def rank_gf2(mat) -> int:
    """Gaussian elimination over GF(2)."""
    m = [[int(x) % 2 for x in row] for row in mat]
    rank, col = 0, 0
    rows, cols = len(m), len(m[0]) if m else 0
    while rank < rows and col < cols:
        piv = next((r for r in range(rank, rows) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rows):
            if r != rank and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def unit_pivot_inputs():
    """(small, sparse) integer matrices drawn from random.Random(21): 80 small
    ones, 1-7 x 1-7 with half their entries in -3..3, then 30 sparse ones,
    10-30 x 10-30 with density 0.15, mostly +-1 with some +-2.  The fifth
    sparse one is 24 x 27; a Smith normal form that pivots by size alone with
    floor quotients grew its entries to millions of bits."""
    rng = random.Random(21)
    small = []
    for _ in range(80):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        small.append([[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)]
                      for _ in range(rows)])
    sparse = []
    for _ in range(30):
        rows, cols = rng.randint(10, 30), rng.randint(10, 30)
        sparse.append([[rng.choice((1, -1, 1, -1, 1, -1, 2, -2)) if rng.random() < 0.15 else 0
                        for _ in range(cols)] for _ in range(rows)])
    return small, sparse


def unit_pivots_by_units(rows, modulus=None):
    """Eliminate the +-1 pivots of sparse integer rows ({col: value} dicts,
    changed in place; residues mod 2 if `modulus` is 2, where every nonzero is
    1); returns (count, residual), the residual as dense rows.

    Each elimination is an invertible change of basis, so over Z
    SNF(rows) = I_count (+) SNF(residual), and mod 2 the rank is count.  A
    pivot is its own inverse.  Pivots are taken in column sweeps: a sweep
    visits the columns shortest first, by their lengths when it starts, and
    pivots each on its shortest row that holds a +-1.  Fill can make a +-1
    in a column already passed, so sweeps repeat while a +-1 is left.
    Short columns and rows keep the fill-in small with no queue of costs: a
    sweep sorts the columns once and scans each once, and scanning a column
    costs its length, the number of rows its pivot then updates; a column that
    earlier pivots of the sweep emptied is passed over.  A lone +-1 is taken
    without comparing row lengths, and the pivot's column set is emptied in
    place, so a column that holds one row meets no other row.
    """
    rows, cols = dict(enumerate(rows)), defaultdict(set)
    for r, row in rows.items():
        for c in row:
            cols[c].add(r)
    count = 0
    while any(v in (1, -1) for row in rows.values() for v in row.values()):
        for c in sorted(cols, key=lambda k: len(cols[k])):
            units = cols[c] and [r for r in cols[c] if rows[r][c] in (1, -1)]
            if not units:
                continue
            p = units[0] if len(units) == 1 else min(units, key=lambda r: len(rows[r]))
            count += 1
            pivot = rows.pop(p)
            v = pivot.pop(c)
            for cc in pivot:
                cols[cc].discard(p)
            others = cols.pop(c)
            others.discard(p)
            for r in others:
                row = rows[r]
                f = row.pop(c) * v
                for cc, x in pivot.items():
                    y = row.get(cc)
                    if y is None:  # fill: f * x is nonzero, also mod 2
                        row[cc] = (-f * x) % modulus if modulus else -f * x
                        cols[cc].add(r)
                    elif y := (y - f * x) % modulus if modulus else y - f * x:
                        row[cc] = y
                    else:
                        del row[cc]
                        cols[cc].discard(r)
                if not row:
                    del rows[r]
    live = sorted({c for row in rows.values() for c in row})
    return count, [[row.get(c, 0) for c in live] for row in rows.values()]


def block_product(high, low) -> dict:
    """The nonzero entries of high * low (apply low first) for block matrices."""
    return product_by_multiplying(high.entries, low.entries)


def product_by_multiplying(g_entries, f_entries) -> dict:
    """The nonzero entries of g*f for two {(row, col): value} tables, with every
    product computed, by 1 too: the oracle for tensor.act (and so compose and
    tensor), which passes the other operand through when an entry is 1.  f's
    entries are grouped by row once, so each entry of g meets only its row."""
    f_rows, sums = {}, {}
    for (f_row, col), fv in f_entries.items():
        f_rows.setdefault(f_row, []).append((col, fv))
    for (row, mid), gv in g_entries.items():
        for col, fv in f_rows.get(mid, ()):
            key = (row, col)
            sums[key] = sums[key] + gv * fv if key in sums else gv * fv
    return {k: v for k, v in sums.items() if not v.is_zero()}


def exponent_generators(alg, phi_inv) -> dict:
    """{generator: j} for each map of build_double that changes when exponent
    j alone goes from 0 to 1: what each exponent scales, read off the pairs."""
    base = build_double(alg, phi_inv, (0,) * 6).generator_table()
    found = {}
    for j in range(6):
        moved = build_double(alg, phi_inv, tuple(int(i == j) for i in range(6)))
        for name, m in moved.generator_table().items():
            if not equal(m, base[name])[0]:
                assert name not in found, f"{name} moves with exponents {found[name]} and {j}"
                found[name] = j
    return found


def search_by_box(alg, phi_inv, lo, hi) -> list:
    """The exponent tuples in [lo, hi]^6 whose double pair passes every
    battery row, in order, by walking the whole box; each row depends on the
    exponents that exponent_generators finds for its generators, and verdicts
    are memoised on those, so each tuple costs a lookup per row."""
    by_name = {e.name: e for e in load_axioms()}
    battery = [by_name[n] for n in DOUBLE_SEARCH_EQUATIONS]
    exponent_of = exponent_generators(alg, phi_inv)
    deps = [sorted({exponent_of[g] for g in eq.generators if g in exponent_of})
            for eq in battery]
    pairs, verdicts = {}, [{} for _ in battery]

    def row_passes(i, exps):
        key = tuple(exps[j] for j in deps[i])
        if key not in verdicts[i]:
            if exps not in pairs:
                pairs[exps] = build_double(alg, phi_inv, exps)
            table, spec = pairs[exps].generator_table(), pairs[exps].spec
            verdicts[i][key] = equal(evaluate_term(battery[i].lhs, table, spec),
                                     evaluate_term(battery[i].rhs, table, spec))[0]
        return verdicts[i][key]

    return [exps for exps in itertools.product(range(lo, hi + 1), repeat=6)
            if all(row_passes(i, exps) for i in range(len(battery)))]


class TableAlgebra:
    """k[X]/(X^2 - hX - t) as structure constants: the product of two basis
    labels and Delta(1), each {label: coefficient}, multiplied out term by term."""

    def __init__(self, decl, h, t):
        one, self.zero = decl.one(), decl.zero()
        self.unit = {"1": one}
        self.mul_table = {("1", "1"): {"1": one}, ("1", "X"): {"X": one},
                          ("X", "1"): {"X": one}, ("X", "X"): {"X": h, "1": t}}
        self.delta_one = {("1", "X"): one, ("X", "1"): one, ("1", "1"): -h}

    def _sum(self, terms):
        out = {}
        for label, c in terms:
            out[label] = out.get(label, self.zero) + c
        return {label: c for label, c in out.items() if not c.is_zero()}

    def mul(self, v1, v2):
        return self._sum((l3, c1 * c2 * c3) for l1, c1 in v1.items() for l2, c2 in v2.items()
                         for l3, c3 in self.mul_table[(l1, l2)].items())

    def handle(self):
        return self._sum((l3, c * c3) for pair, c in self.delta_one.items()
                         for l3, c3 in self.mul_table[pair].items())

    def power(self, v, k, v_inv):
        if k < 0:
            v, k = v_inv, -k
        out = self.unit
        for _ in range(k):
            out = self.mul(out, v)
        return out


def lemma_first_conditions(a0, a1, b0, b1, h, t) -> list:
    """Residuals obstructing the X-action XY = a0 Y + a1 Z, XZ = b0 Y + b1 Z:
    all four vanish iff X(XY) = X^2 Y and X(XZ) = X^2 Z."""
    return [
        a0 * a0 + a1 * b0 - a0 * h - t,
        (a0 + b1 - h) * a1,
        a1 * b0 + b1 * b1 - h * b1 - t,
        (a0 + b1 - h) * b0,
    ]


def cube_to_json(cube: StateCube) -> str:
    edges = {}
    for (b, k), move in sorted(cube.edges.items()):
        key = b[:k] + "*" + b[k + 1:]
        if move.kind == "merge":
            edges[key] = {"kind": "merge", "i": move.i, "j": move.j,
                          "out": move.outs[0], "sort": move.sorts[0]}
        else:
            edges[key] = {"kind": "split", "i": move.i,
                          "outs": list(move.outs), "sorts": list(move.sorts)}
    obj = {
        "n": cube.n,
        "vertices": {b: list(cube.vertices[b]) for b in _bits(cube.n)},
        "edges": edges,
    }
    return json.dumps(obj, indent=2) + "\n"


def euler_characteristic(report) -> int:
    return sum((-1) ** i * slot["betti"] for i, slot in enumerate(report))


def d_squared_by_differentials(cube, pair) -> bool:
    """True iff every product d_{i+1} d_i of whole differentials is zero."""
    low = differential(cube, pair, 0) if cube.n > 1 else None
    for i in range(1, cube.n):
        high = differential(cube, pair, i)
        if block_product(high, low):
            return False
        low = high
    return True


def diamond_by_paths(pair, cases=DIAMOND_CASES) -> list:
    """The exchange suite's records, each of the four paths of a labelled
    square evaluated whole from the identity."""
    records = []
    for name, n0, v_a, w_b, w_a, v_c in cases:
        for a_word in itertools.product("AE", repeat=n0):
            for v_events, b_word in edge_labelings(a_word, v_a):
                for w_events, d_word in edge_labelings(b_word, w_b):
                    for w2_events, c_word in edge_labelings(a_word, w_a):
                        for v2_events, d2_word in edge_labelings(c_word, v_c):
                            if d_word != d2_word:
                                continue
                            label = "".join(a_word) + ">" + "".join(b_word) + "|" + \
                                "".join(c_word) + ">" + "".join(d_word)
                            abd = CobordismWord(a_word, v_events + w_events)
                            acd = CobordismWord(a_word, w2_events + v2_events)
                            bac = CobordismWord(
                                b_word, reverse_events(a_word, v_events) + w2_events)
                            bdc = CobordismWord(
                                b_word, w_events + reverse_events(c_word, v2_events))
                            for which, lhs, rhs in (("bottom", abd, acd), ("side", bac, bdc)):
                                ok, witness = equal(evaluate(lhs, pair), evaluate(rhs, pair))
                                records.append(VerifyRecord(
                                    f"{name}[{label}]/{which}", "diamond", "paper",
                                    "pass" if ok else "fail", witness=witness))
    return records


def _correspondence(w_in, move):
    """Positional maps across an edge: (out word, untouched src->dst dict).

    Raises CubeError if the move is not signature-legal on w_in.
    """
    n_in = len(w_in)
    if move.kind == "merge":
        i, j, (out,) = move.i, move.j, move.outs
        if i == j or not (1 <= i <= n_in and 1 <= j <= n_in):
            raise CubeError(f"merge positions {i},{j} out of range")
        key = (w_in[min(i, j) - 1], w_in[max(i, j) - 1], move.sorts[0])
        if key not in MERGE_GEN:
            raise CubeError(f"no generator for {key[0]}{key[1]}->{key[2]}")
        rest = [p for p in range(1, n_in + 1) if p not in (i, j)]
        n_out = n_in - 1
        if not 1 <= out <= n_out:
            raise CubeError(f"merge output position {out} out of range")
        slots = [p for p in range(1, n_out + 1) if p != out]
    elif move.kind == "split":
        i, (p1, p2) = move.i, move.outs
        if not 1 <= i <= n_in:
            raise CubeError(f"split position {i} out of range")
        key = (w_in[i - 1],) + tuple(move.sorts)
        if key not in SPLIT_GEN:
            raise CubeError(f"no generator for {key[0]}->{key[1]}{key[2]}")
        n_out = n_in + 1
        if p1 == p2 or not (1 <= p1 <= n_out and 1 <= p2 <= n_out):
            raise CubeError(f"split output positions {p1},{p2} out of range")
        rest = [p for p in range(1, n_in + 1) if p != i]
        slots = [p for p in range(1, n_out + 1) if p not in (p1, p2)]
    else:
        raise CubeError(f"unknown move kind {move.kind!r}")
    corr = dict(zip(rest, slots))
    w_out = [None] * n_out
    for p, sort in zip(move.outs, move.sorts):
        w_out[p - 1] = sort
    for src, dst in corr.items():
        w_out[dst - 1] = w_in[src - 1]
    return tuple(w_out), corr


def _provenance(w_in, move):
    """For each output position, the set of source positions it may contain."""
    w_out, corr = _correspondence(w_in, move)
    back = {dst: src for src, dst in corr.items()}
    consumed = frozenset((move.i, move.j) if move.kind == "merge" else (move.i,))
    return [frozenset((back[p],)) if p in back else consumed
            for p in range(1, len(w_out) + 1)]


def _square_provenance(cube, b, first, second):
    prov1 = _provenance(cube.vertices[b], cube.edges[(b, first)])
    b1 = b[:first] + "1" + b[first + 1:]
    prov2 = _provenance(cube.vertices[b1], cube.edges[(b1, second)])
    return [frozenset().union(*(prov1[q - 1] for q in sources)) for sources in prov2]


def item_one_cubes():
    """Five cubes of the benchmark's cube generator, loaded from its file,
    with n = 3, 4, 4, 5, 5 from random.Random(3); under `it` at t=1 the
    fourth is not a chain complex."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cubegen.py"
    spec = importlib.util.spec_from_file_location("perfbench_cubegen", path)
    cubegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cubegen)
    rng = random.Random(3)
    return [cube_from_json(cubegen.random_cube_json(rng, n, (0, 10 ** 12)))
            for n in (3, 4, 4, 5, 5)]


def rank2_at_a1():
    """The rank-2 pair at the benchmark's RANK2_A1 parameters, over Z."""
    return build_rank2(Rank2Params.over(ring(INTEGERS), a=1, c_yy=0, c_yz=1, c_zz=0, d_yy=0,
                                        d_yz=1, d_zz=0, e_y=1, e_z=1, f_y=1, f_z=1))


def rank2_by_hand(p, name="rank2"):
    """The rank-2 family pair at p, under name and with no notes, written entry
    by entry: A = k[X]/((X-a)^2) by universal_algebra, E = <Y, Z>, and each map
    between them a table of columns.  pair._rank2_pair's compositions of the
    character ev and the element X - a with p's tables are checked against it."""
    decl = p.a.ring
    a = p.a

    def times(x, y):  # the table drops zero entries, so a zero factor skips the product
        return x if x.is_zero() else y if y.is_zero() else x * y

    alg = universal_algebra(decl, a + a, -times(a, a))
    spec = BasisSpec(("1", "X"), ("Y", "Z"), decl)
    maps = {gname: LinMap(spec, m.dom, m.cod, m.entries) for gname, m in alg.maps.items()}
    one = decl.one()

    def table(dom, cod, columns):  # {input tuple: {output tuple: coefficient}}
        return LinMap(spec, tuple(dom), tuple(cod),
                      {(o, t): c for t, col in columns.items() for o, c in col.items()})

    x_minus_a = {("X",): one, ("1",): -a}  # (X - a) as an A-column

    def a_vec(c):
        return {k: times(c, v) for k, v in x_minus_a.items()}

    mu_ae = {("1", e): {(e,): one} for e in ("Y", "Z")}
    mu_ae.update({("X", e): {(e,): a} for e in ("Y", "Z")})
    maps["mu_AE"] = table("AE", "E", mu_ae)
    maps["mu_EA"] = table("EA", "E", {t[::-1]: col for t, col in mu_ae.items()})
    c = {("Y", "Y"): p.c_yy, ("Y", "Z"): p.c_yz, ("Z", "Y"): p.c_yz, ("Z", "Z"): p.c_zz}
    maps["mu_EEA"] = table("EE", "A", {k: a_vec(v) for k, v in c.items()})
    d_ae = {(e,): {("X", e): one, ("1", e): -a} for e in ("Y", "Z")}
    maps["Delta_AE"] = table("E", "AE", d_ae)
    maps["Delta_EA"] = table("E", "EA", {t: {o[::-1]: v for o, v in col.items()}
                                          for t, col in d_ae.items()})
    d1 = {("Y", "Y"): p.d_yy, ("Y", "Z"): p.d_yz, ("Z", "Y"): p.d_yz, ("Z", "Z"): p.d_zz}
    maps["Delta_AEE"] = table("A", "EE", {("1",): d1,
                                          ("X",): {k: times(a, v) for k, v in d1.items()}})
    maps["mu_E"] = table("EE", "E", {})
    maps["Delta_E"] = table("E", "EE", {})
    nu1 = {("Y",): p.f_y, ("Z",): p.f_z}
    maps["nu_AE"] = table("A", "E", {("1",): nu1,
                                     ("X",): {k: times(a, v) for k, v in nu1.items()}})
    maps["nu_EA"] = table("E", "A", {("Y",): a_vec(p.e_y), ("Z",): a_vec(p.e_z)})
    maps["nu_EE"] = table("E", "E", {})
    return FrobeniusPair(decl, spec, maps, name=name)


def double_z2():
    """The double construction over Z/2 with handle 1, as the benchmark writes it."""
    z2 = ring(MOD2)
    return build_double(universal_algebra(z2, z2.one(), z2.zero()), {"1": z2.one()},
                        name="double-z2")


def twice_bad_coefficient_pair():
    """The shipped aps pair file with the coefficient text "2 +", which does not
    parse, in two rows: $.maps.Delta_A[1].out[0] and $.maps.mu_A[2].out[0]."""
    text = importlib.resources.files("frobpair").joinpath("data/aps.json").read_text()
    obj = json.loads(text)
    for gname, i in (("Delta_A", 1), ("mu_A", 2)):
        obj["maps"][gname][i]["out"][0]["coeff"] = "2 +"
    return json.dumps(obj)


def first_refusal_by_correspondence(cube):
    """The first edge or square of a cube with all its vertices and edges that
    is refused: an edge that is illegal or misses its target's word, as
    "edge b/k", else a square whose paths do not commute, as "square at b
    (bits k,l)"; None if there is none.  The scan takes vertices in numeric
    order and bits ascending, every edge before any square; each edge is read
    afresh by the per-kind rules wherever it is met, and no edge is numbered."""
    for b in _bits_all(cube.n):
        for k in [k for k in range(cube.n) if b[k] == "0"]:
            try:
                w_out, _ = _correspondence(cube.vertices[b], cube.edges[(b, k)])
            except CubeError:
                return f"edge {b}/{k}"
            if w_out != tuple(cube.vertices[_flip(b, k)]):
                return f"edge {b}/{k}"
    for b in _bits_all(cube.n):
        for k, l in itertools.combinations([k for k in range(cube.n) if b[k] == "0"], 2):
            one = _square_provenance(cube, b, k, l)
            two = _square_provenance(cube, b, l, k)
            if any(not (s & t) for s, t in zip(one, two)):
                return f"square at {b} (bits {k},{l})"
    return None


def square_circles(cube, b, k, l):
    """Forward circle tracking around the square at b flipping bits k and l,
    by the per-kind edge rules: (T, passive), T the set of 1-based positions
    of circles at b that either path touches, and passive, for each path
    (k then l, l then k), the far-corner position of every other circle."""
    paths = []
    for first, second in ((k, l), (l, k)):
        mid = _flip(b, first)
        _, one = _correspondence(cube.vertices[b], cube.edges[(b, first)])
        _, two = _correspondence(cube.vertices[mid], cube.edges[(mid, second)])
        paths.append({p: two[q] for p, q in one.items() if q in two})
    touched = {p for p in range(1, len(cube.vertices[b]) + 1)
               if any(p not in path for path in paths)}
    return touched, [{p: far for p, far in path.items() if p not in touched} for path in paths]


def local_square_key(cube, b, k, l):
    """The square at b flipping k and l on the circles T it touches: the sorts
    of T at b, then each path's two moves with every position renumbered by
    its rank among the positions not holding a passive circle."""
    touched, _passive = square_circles(cube, b, k, l)
    key = [tuple(cube.vertices[b][p - 1] for p in sorted(touched))]
    for first, second in ((k, l), (l, k)):
        vertex, passive = b, set(range(1, len(cube.vertices[b]) + 1)) - touched
        for bit in (first, second):
            move, target = cube.edges[(vertex, bit)], _flip(vertex, bit)
            _, corr = _correspondence(cube.vertices[vertex], move)
            moved = {corr[p] for p in passive}
            rank = [p for p in range(1, len(cube.vertices[vertex]) + 1) if p not in passive]
            out = [q for q in range(1, len(cube.vertices[target]) + 1) if q not in moved]
            sources = (move.i, move.j) if move.kind == "merge" else (move.i,)
            key.append((move.kind, tuple(sorted(rank.index(p) for p in sources)),
                        tuple(out.index(q) for q in move.outs), move.sorts))
            vertex, passive = target, moved
    return tuple(key)


def _cycles(perm):
    seen, out = set(), []
    for x in range(len(perm)):
        if x in seen:
            continue
        cyc = [x]
        y = perm[x]
        while y != x:
            cyc.append(y)
            y = perm[y]
        seen.update(cyc)
        out.append(frozenset(cyc))
    return sorted(out, key=min)


def _apply_chords(sigma, chords, bits):
    t = {}
    for k, (a, b) in enumerate(chords):
        if bits[k] == "1":
            t[a], t[b] = b, a
    return [sigma[t.get(x, x)] for x in range(len(sigma))]


def _bits_all(n):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


def _flip(bits, k):
    return bits[:k] + "1" + bits[k + 1:]


def _derive_move(src_cycles, dst_cycles, chord):
    a, b = chord
    ia = next(i for i, c in enumerate(src_cycles) if a in c)
    ib = next(i for i, c in enumerate(src_cycles) if b in c)
    if ia != ib:
        out = next(i for i, c in enumerate(dst_cycles) if a in c)
        return ("merge", min(ia, ib) + 1, max(ia, ib) + 1, (out + 1,))
    p1 = next(i for i, c in enumerate(dst_cycles) if a in c)
    p2 = next(i for i, c in enumerate(dst_cycles) if b in c)
    return ("split", ia + 1, 0, (p1 + 1, p2 + 1))


def random_cube(rng, n=None, max_circles=6, sort_tries=40):
    """A valid random StateCube with n crossings (n <= 4 by default)."""
    if n is None:
        n = rng.randint(1, 4)
    while True:
        m = 2 * n + rng.randint(1, 3)
        sigma = list(range(m))
        rng.shuffle(sigma)
        pts = rng.sample(range(m), 2 * n)
        chords = [(pts[2 * k], pts[2 * k + 1]) for k in range(n)]
        cycles = {b: _cycles(_apply_chords(sigma, chords, b)) for b in _bits_all(n)}
        if any(len(c) > max_circles for c in cycles.values()):
            continue
        moves = {}
        for b in _bits_all(n):
            for k in range(n):
                if b[k] == "0":
                    moves[(b, k)] = _derive_move(cycles[b], cycles[_flip(b, k)], chords[k])
        labelling = _assign_sorts(rng, n, cycles, moves, sort_tries)
        vertices = {b: tuple(labelling[b]) for b in _bits_all(n)}
        edges = {}
        for (b, k), (kind, i, j, outs) in moves.items():
            if kind == "merge":
                sort = vertices[_flip(b, k)][outs[0] - 1]
                edges[(b, k)] = EdgeMove("merge", i, j, outs, (sort,))
            else:
                w = vertices[_flip(b, k)]
                edges[(b, k)] = EdgeMove("split", i, 0, outs,
                                         (w[outs[0] - 1], w[outs[1] - 1]))
        return StateCube(n, vertices, edges)


def hand_placement(w, src, dst, sorts):
    """(output word, provenance) of a move that reads the circles at the 0-based
    slots src of the word w and writes sorts to the slots dst: slot by slot,
    an output slot takes its sort and all of src, and every other slot the next
    untouched circle and its own slot."""
    untouched = iter([p for p in range(len(w)) if p not in src])
    out, provenance = [], []
    for q in range(len(w) - len(src) + len(dst)):
        if q in dst:
            out.append(sorts[dst.index(q)])
            provenance.append(tuple(src))
        else:
            p = next(untouched)
            out.append(w[p])
            provenance.append((p,))
    return tuple(out), tuple(provenance)


def _untouched_map(kind, i, j, outs, n_in):
    gone = (i, j) if kind == "merge" else (i,)
    n_out = n_in - 1 if kind == "merge" else n_in + 1
    rest = [p for p in range(1, n_in + 1) if p not in gone]
    slots = [p for p in range(1, n_out + 1) if p not in outs]
    return dict(zip(rest, slots))


def _assign_sorts(rng, n, cycles, moves, tries):
    for attempt in range(tries + 1):
        random_mode = attempt < tries
        sorts = {}
        zero = "0" * n
        sorts[zero] = [rng.choice("AE") if random_mode else "A"
                       for _ in cycles[zero]]
        ok = True
        for b in sorted(_bits_all(n), key=lambda s: (s.count("1"), s)):
            if b == zero:
                continue
            k = b.index("1")
            u = b[:k] + "0" + b[k + 1:]
            kind, i, j, outs = moves[(u, k)]
            src = sorts[u]
            dst = [None] * len(cycles[b])
            for sp, dp in _untouched_map(kind, i, j, outs, len(src)).items():
                dst[dp - 1] = src[sp - 1]
            if kind == "merge":
                legal = [o for o in "AE" if (src[i - 1], src[j - 1], o) in MERGE_GEN]
                dst[outs[0] - 1] = rng.choice(legal) if random_mode else legal[0]
            else:
                legal = [(s1, s2) for (s0, s1, s2) in SPLIT_GEN if s0 == src[i - 1]]
                pick = rng.choice(legal) if random_mode else ("A", "A")
                dst[outs[0] - 1], dst[outs[1] - 1] = pick
            sorts[b] = dst
        # validate every edge against the assignment
        for (u, k), (kind, i, j, outs) in moves.items():
            src, dst = sorts[u], sorts[u[:k] + "1" + u[k + 1:]]
            for sp, dp in _untouched_map(kind, i, j, outs, len(src)).items():
                if dst[dp - 1] != src[sp - 1]:
                    ok = False
            if kind == "merge":
                if (src[i - 1], src[j - 1], dst[outs[0] - 1]) not in MERGE_GEN:
                    ok = False
            else:
                if (src[i - 1], dst[outs[0] - 1], dst[outs[1] - 1]) not in SPLIT_GEN:
                    ok = False
            if not ok:
                break
        if ok:
            return sorts
    raise AssertionError("all-A fallback labelling must always be legal")


def record_act_chains(monkeypatch, pair):
    """Patch theory.act to record, for each call, the chain of moves it ends:
    (bottom word, ((generator name or None, source slots, target slots), ...)).
    A map that no recorded act made is taken as the identity on its domain.
    Returns the list the calls are appended to."""
    import frobpair.theory as theory_mod

    real, calls, made = theory_mod.act, [], {}  # made: id -> (chain, map), kept alive
    names = {id(m): g for g, m in pair.generator_table().items()}

    def act(f, gen, src, dst):
        w, moves = made[id(f)][0] if id(f) in made else (f.dom, ())
        chain = (w, moves + ((None if gen is None else names[id(gen)], tuple(src), tuple(dst)),))
        calls.append(chain)
        out = real(f, gen, src, dst)
        made[id(out)] = (chain, out)
        return out

    monkeypatch.setattr(theory_mod, "act", act)
    return calls


def disjoint_saddles(square) -> bool:
    """Whether the two saddles of a square of moves touch disjoint circles and
    its two paths apply them in both orders.  A move is (word, generator,
    source slots, output slots), a path two moves and a square two paths.
    Each path is run by hand on a list of circle names, the bottom circles
    named by their slots and a move's outputs by (generator, circles read,
    output index): the square qualifies when each second move reads only
    bottom circles, both paths read the same circles with the same
    generators, and both end on the same list of names."""
    ends = []
    for path in square:
        circles, made = list(range(len(path[0][0]))), []
        for _word, gen, src, dst in path:
            read = tuple(circles[p] for p in src)
            if not all(isinstance(c, int) for c in read):
                return False
            outs = {q: (gen, read, j) for j, q in enumerate(dst)}
            rest = iter([c for p, c in enumerate(circles) if p not in src])
            circles = [outs[q] if q in outs else next(rest)
                       for q in range(len(circles) - len(src) + len(dst))]
            made.append((gen, read))
        ends.append((tuple(path[0][0]), circles, sorted(made)))
    return ends[0] == ends[1]


def cube_square_moves(cube, b, k, l):
    """The square at b flipping bits k and l as two paths of moves, read off
    the cube's edges by the per-kind rules: a merge reads its two positions in
    increasing order, a split its one, and a move's generator is named by its
    kind, source sorts and output sorts."""
    paths = []
    for first, second in ((k, l), (l, k)):
        vertex, path = b, []
        for bit in (first, second):
            move, w = cube.edges[(vertex, bit)], tuple(cube.vertices[vertex])
            src = tuple(sorted(p - 1 for p in ((move.i, move.j) if move.kind == "merge"
                                               else (move.i,))))
            gen = (move.kind, tuple(w[p] for p in src), tuple(move.sorts))
            path.append((w, gen, src, tuple(q - 1 for q in move.outs)))
            vertex = vertex[:bit] + "1" + vertex[bit + 1:]
        paths.append(tuple(path))
    return tuple(paths)


def random_integer_pair(rng, name="random"):
    """A pair over Z on the labels 1, X of both sorts with a random table for
    every generator of SIGNATURE: each entry is 1, -1, 2 or -2 with
    probability 1/2 and 0 otherwise, except that eta(1) has coefficient 1 on
    the unit label, as FrobeniusPair requires.  The tables obey no axiom.
    beta and gamma are drawn, so that the random stream is that of every
    generator, and then left out: FrobeniusPair derives them, and refuses a
    given one that differs."""
    decl = ring(INTEGERS)
    spec = BasisSpec(("1", "X"), ("1", "X"), decl)
    maps = {}
    for gen, (dom, cod) in SIGNATURE.items():
        entries = {(o, t): decl.const(rng.choice((1, -1, 2, -2)))
                   for t in spec.tuples(dom) for o in spec.tuples(cod) if rng.random() < 0.5}
        if gen == "eta":
            entries[(("1",), ())] = decl.one()
        if gen not in ("beta", "gamma"):
            maps[gen] = LinMap(spec, dom, cod, entries)
    return FrobeniusPair(decl, spec, maps, name=name)


def _adjugate_inverse(m, decl):
    """The inverse of a square matrix of ring elements, as its adjugate over its
    determinant, which must be a unit; each minor by the Leibniz formula."""
    def det(rows, cols):
        total = decl.zero()
        for perm in itertools.permutations(cols):
            term = decl.one()
            for r, c in zip(rows, perm):
                term = term * m[r][c]
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            total = total - term if odd else total + term
        return total

    def cofactor(i, j):
        rows, cols = [r for r in range(n) if r != i], [c for c in range(n) if c != j]
        return (-1) ** (i + j) * det(rows, cols)

    n = len(m)
    inv = unit_invert(det(range(n), range(n)))
    return [[inv * cofactor(j, i) for j in range(n)] for i in range(n)]


def conjugate(pair, g_A, g_E):
    """The pair isomorphic to `pair` by the changes of basis g_A on A and g_E on
    E: every given generator f becomes g_cod . f . g_dom^-1, g and its inverse
    applied slot by slot with `tensor.act`, and beta and gamma derived again
    if not given.  g_A and g_E are square matrices in label order, entry [i][j]
    the coefficient of label i in the image of label j, each an int, a ring
    element or its text; each is invertible over the ring, and g_A fixes the
    unit, as FrobeniusPair requires of eta."""
    decl, spec, g, undo = pair.ring, pair.spec, {}, {}
    for sort, mat in ((A, g_A), (E, g_E)):
        mat = [[x if isinstance(x, RingElem) else decl.parse(str(x)) for x in row] for row in mat]
        labels, size = spec.labels(sort), range(len(mat))
        for into, m in ((g, mat), (undo, _adjugate_inverse(mat, decl))):
            into[sort] = LinMap(spec, (sort,), (sort,), {
                ((labels[i],), (labels[j],)): m[i][j] for i in size for j in size})
    maps = {}
    for name, f in pair.maps.items():
        h = LinMap.identity(spec, f.dom)
        for p, sort in enumerate(f.dom):
            h = act(h, undo[sort], (p,), (p,))
        h = compose(f, h)
        for q, sort in enumerate(f.cod):
            h = act(h, g[sort], (q,), (q,))
        maps[name] = h
    return FrobeniusPair(decl, spec, maps, name=pair.name, unit_label=pair.unit_label,
                         notes=dict(pair.notes))


class _Var:
    """Sort unknown of a strand that enters the first layer."""

    __slots__ = ()


def _resolve(x, subst):
    while x in subst:
        x = subst[x]
    return x


def _unify(x, y, subst):
    x, y = _resolve(x, subst), _resolve(y, subst)
    if x is y or x == y:
        return
    if isinstance(x, _Var):
        subst[x] = y
    elif isinstance(y, _Var):
        subst[y] = x
    else:
        raise TheoryError(f"sort mismatch: {x} vs {y}")


def typecheck_by_unification(term):
    """theory.typecheck's (dom, cod, per-layer in-words, per-layer act moves),
    with every sort inferred by unification from one fresh unknown per strand
    of the first layer.  Its error texts print an unknown as a _Var object."""
    subst = {}
    layer_ins, pieces = [], []
    width = sum(1 if item in ("id_A", "id_E") else 2 if item == "swap" else len(SIGNATURE[item][0])
                for item in term[0])
    current = term_dom = tuple(_Var() for _ in range(width))
    for layer in term:
        layer_ins.append(current)
        out, pos, moves = [], 0, []
        for item in layer:
            slot = len(out)  # the item's first slot in the partly rewritten word
            if item in ("id_A", "id_E"):
                want = A if item == "id_A" else E
                if pos >= len(current):
                    raise TheoryError(f"layer {layer} too wide for word {current}")
                _unify(current[pos], want, subst)
                out.append(want)
                pos += 1
            elif item == "swap":
                if pos + 1 >= len(current):
                    raise TheoryError(f"swap needs two strands in word {current}")
                out.extend((current[pos + 1], current[pos]))
                moves.append((None, (slot, slot + 1), (slot + 1, slot)))
                pos += 2
            else:
                gdom, gcod = SIGNATURE[item]
                if pos + len(gdom) > len(current):
                    raise TheoryError(f"layer {layer} too wide for word {current}")
                for k, want in enumerate(gdom):
                    _unify(current[pos + k], want, subst)
                out.extend(gcod)
                moves.append((item, tuple(range(slot, slot + len(gdom))),
                              tuple(range(slot, slot + len(gcod)))))
                pos += len(gdom)
        if pos != len(current):
            raise TheoryError(f"layer {layer} does not cover word {current}")
        current = tuple(out)
        pieces.append(tuple(moves))

    def ground(w):
        out = []
        for s in w:
            s = _resolve(s, subst)
            if isinstance(s, _Var):
                raise TheoryError(f"ambiguous swap sorts in term {term_to_text(term)}")
            out.append(s)
        return tuple(out)

    return ground(term_dom), ground(current), [ground(w) for w in layer_ins], tuple(pieces)
