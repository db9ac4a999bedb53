"""State-cube chain complexes over a Frobenius pair.

A cube assigns a sort word to every vertex of {0,1}^n and a merge/split move
to every bit-flip edge.  The differential in homological degree i is the
signed sum of edge maps out of weight-i vertices, with the standard sign
(-1)^(number of 1-bits before the flipped index).  Circle tracking across an
edge is positional, by tensor.move_plan: untouched circles keep their relative
order and the move names the output positions explicitly.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from operator import and_, mul
from typing import NamedTuple

from .cobordism import (MOVES, CobordismError, compare_squares, interpret, square_order,
                        square_plan, table_with)
from .pair import FrobeniusPair
from .ring import COEFFS, MOD2, FrobpairError, substitution
from .tensor import MAX_CIRCLES, SORTS, LinMap, TensorError, act, word


class CubeError(FrobpairError):
    """Structural violations in a state cube."""


class EdgeMove(NamedTuple):
    kind: str          # merge | split, a key of cobordism.MOVES
    i: int             # 1-based source position (first circle for merge)
    j: int = 0         # second source position for merge
    outs: tuple = ()   # output position(s): (out,) for merge, (p1, p2) for split
    sorts: tuple = ()  # output sort(s)


class StateCube:
    """A checked cube: the constructor runs validate_cube's one scan, so every
    StateCube is valid, and keeps what it read.  scan is (words, numbers,
    moves), by vertex index v (b in base 2): v's word, v's edge numbers by
    flipped bit (None on a 1-bit), and each number's descriptor: its source
    word and `_interpret` output.  squares is {square: its first (v, k, l)} in
    scan order, v flipping bits k < l, a square being its two paths (edge v/k,
    then l) and (edge v/l, then k), each as its two edge numbers."""

    def __init__(self, n: int, vertices: dict, edges: dict):
        self.n = n
        self.vertices = vertices  # bitstring -> sort word (tuple)
        self.edges = edges        # (source bitstring, flipped index) -> EdgeMove
        self.scan, self.squares = validate_cube(self)


def _bits(n):
    return [format(v, f"0{n}b") if n else "" for v in range(2 ** n)]


def _flip(bits, k):
    return bits[:k] + ("1" if bits[k] == "0" else "0") + bits[k + 1:]


def _weight(bits):
    return bits.count("1")


def _interpret(w_in, move):
    """`cobordism.interpret` of an edge move on the word w_in: (generator,
    source slots, output slots, output word, provenance), slots 0-based, the
    sources read in increasing order.  Raises CobordismError on an illegal move."""
    src = tuple(sorted([p - 1 for p in (move.i, move.j)[:MOVES.get(move.kind, (0,))[0]]]))
    dst = tuple([p - 1 for p in move.outs])
    gen, w_out, provenance = interpret(w_in, move.kind, src, dst, move.sorts)
    return gen, src, dst, w_out, provenance


def _reach(first, second):
    """Per far slot of a path of two descriptors, the bitmask of source slots it may hold."""
    mid = [1 << q[0] | 1 << q[-1] if q else 0 for q in first[5]]  # a move reads <= 2 slots
    return [mid[q[0]] | mid[q[-1]] if q else 0 for q in second[5]]


def validate_cube(cube: StateCube):
    """Check the invariants of a cube's n, vertices and edges in one scan of the
    vertices (v ascending, k ascending) and return what it reads, the cube's
    (scan, squares).  Raises CubeError on the first violation: a missing
    vertex; else the first edge on a 1-bit, missing edge, illegal move or move
    that misses its target's word; else the first square whose paths allow no
    common source set at some far-corner position (the per-path provenance
    over-approximates the true one, so disjointness certifies that they do not
    commute).  Each vertex numbers its edges by (source word, move),
    interpreted at its first edge; then each distinct square is checked once,
    by ANDing its paths' `_reach` bitmasks, each built once per distinct path."""
    n, edges, bits = cube.n, cube.edges, _bits(cube.n)
    try:
        words = [tuple(cube.vertices[b]) for b in bits]
    except KeyError as exc:
        raise CubeError(f"missing vertex {exc.args[0]!r}") from None
    masks = [1 << n - 1 - k for k in range(n)]
    number, numbers, moves, reach, squares = {}, [], [], {}, {}
    for v, (b, w) in enumerate(zip(bits, words)):
        numbers.append(row := [None if v & m or (move := edges.get((b, k))) is None
                               else number.setdefault((w, move), len(number))
                               for k, m in enumerate(masks)])
        moves.extend([None] * (len(number) - len(moves)))
        for k, (m, e) in enumerate(zip(masks, row)):
            if v & m:
                if (b, k) in edges:
                    raise CubeError(f"edge {b}/{k} flips a 1-bit")
                continue
            if e is None:
                raise CubeError(f"missing edge {b}->{bits[v ^ m]}")
            try:
                moves[e] = moves[e] or (w,) + _interpret(w, edges[b, k])
            except (CobordismError, TensorError) as exc:  # TensorError: len(outs) != len(sorts)
                raise CubeError(f"edge {b}/{k}: {exc}") from None
            if moves[e][4] != words[v ^ m]:
                raise CubeError(f"edge {b}/{k}: move produces word {''.join(moves[e][4])}, "
                                f"vertex has {''.join(words[v ^ m])}")
    for v, row in enumerate(numbers):
        far = [numbers[v ^ m] for m in masks]
        for k, l in itertools.combinations([k for k, e in enumerate(row) if e is not None], 2):
            one, two = square = (row[k], far[k][l]), (row[l], far[l][k])
            if square in squares:
                continue
            squares[square] = v, k, l
            for path in square:
                if path not in reach:
                    reach[path] = _reach(moves[path[0]], moves[path[1]])
            if not all(map(and_, reach[one], reach[two])):
                raise CubeError(f"square at {bits[v]} (bits {k},{l}) does not commute")
    return (words, numbers, moves), squares


def edge_map(cube: StateCube, pair: FrobeniusPair, b, k) -> LinMap:
    """The move on edge (b, k), read off the cube's scan: its generator acts on
    the source circles and writes to the move's output positions; untouched
    circles keep their relative order, as in the positional tracking convention."""
    _words, numbers, moves = cube.scan
    w_in, gen, src, dst, *_ = moves[numbers[int(b, 2)][k]]
    table = table_with(pair, [gen], CubeError)
    return act(LinMap.identity(pair.spec, word(w_in)), table[gen], src, dst)


class BlockMatrix:
    """Sparse exact matrix indexed by (vertex, basis tuple) pairs."""

    def __init__(self, rows, cols, ring_decl):
        self.rows = list(rows)
        self.cols = list(cols)
        self.ring = ring_decl
        self.entries = {}

    def dense(self):
        """Rows of constant entries; raises RingError on non-constant ones."""
        idx_r = {r: i for i, r in enumerate(self.rows)}
        idx_c = {c: i for i, c in enumerate(self.cols)}
        out = [[0] * len(self.cols) for _ in self.rows]
        for (r, c), v in self.entries.items():
            out[idx_r[r]][idx_c[c]] = v.constant_value()
        return out


def vertex_keys(cube: StateCube, pair: FrobeniusPair, degree):
    return [(b, t) for b in _bits(cube.n) if _weight(b) == degree
            for t in pair.spec.tuples(word(cube.vertices[b]))]


def differential(cube: StateCube, pair: FrobeniusPair, i) -> BlockMatrix:
    """d_i: degree-i chain space -> degree-(i+1) chain space as a block matrix.
    Each entry is set once: no two edges share a (row, column), and an edge
    map's entries are nonzero."""
    d = BlockMatrix(vertex_keys(cube, pair, i + 1), vertex_keys(cube, pair, i), pair.ring)
    bits, numbers = _bits(cube.n), cube.scan[1]
    for b, k in [(bits[v], k) for v, row in enumerate(numbers) if v.bit_count() == i
                 for k, e in enumerate(row) if e is not None]:  # the scan's edges, in scan order
        for (o, t), v in edge_map(cube, pair, b, k).entries.items():
            d.entries[(_flip(b, k), o), (b, t)] = -v if _weight(b[:k]) % 2 else v
    return d


def _local_square(moves, square):
    """A square of edge numbers read on T, the slots of its bottom word that
    either path touches: (T in order, the local square).  A local edge is
    (local word, generator, local sources, local outputs), each slot numbered
    by its rank among the slots that hold T's circles."""
    touched = set()
    for one, two in square:  # the first move's sources, and the second's traced back
        touched.update(moves[one][2], *(moves[one][5][q] for q in moves[two][2]))
    slots, local = sorted(touched), []
    for path in square:
        kept, edges = slots, []
        for w_in, gen, src, dst, _w_out, provenance in (moves[e] for e in path):
            out = [q for q, sources in enumerate(provenance) if sources[0] in kept]
            edges.append((tuple([w_in[p] for p in kept]), gen, tuple([kept.index(p) for p in src]),
                          tuple([out.index(q) for q in dst])))
            kept = out
        local.append(tuple(edges))
    return slots, tuple(local)


def check_d_squared(cube: StateCube, pair: FrobeniusPair):
    """(True, None) iff d_{i+1} d_i = 0 for all i; otherwise (False, witness).

    Each square is one block of d_{i+1} d_i, and its two paths carry opposite
    signs, so d^2 = 0 iff every square's two composite edge maps are equal.
    Both are the identity on each circle neither path touches, as a StateCube
    is scanned when built and validate_cube refuses a square whose paths take
    such a circle to two far slots.  So a square's verdict is that of its
    local square (`_local_square`), which depends on
    the pair only: `pair.square_verdicts` keeps it, and compare_squares
    compares each local square the table lacks, its edges already moves.  The
    witness (b, k, l, t) is the first failing square, at b flipping bits
    k < l, and the lex-first tuple t where its paths differ: the local witness
    with every other circle at its first label.  A missing generator is the
    first in square_order, as comparing the cube's whole squares would meet it.
    """
    (words, _numbers, moves), verdicts, full = cube.scan, pair.square_verdicts, list(cube.squares)
    table = table_with(pair, (moves[e][1] for q in square_order(full) for path in full[q]
                              for e in path), CubeError)
    local = [_local_square(moves, square) for square in full]
    new = list(dict.fromkeys(square for _slots, square in local if square not in verdicts))
    verdicts.update(zip(new, compare_squares(square_plan(new), table, pair.spec)))
    for (slots, square), (v, k, l) in zip(local, cube.squares.values()):
        ok, witness = verdicts[square]
        if not ok:
            at = dict(zip(slots, witness[0]))
            return False, (format(v, f"0{cube.n}b"), k, l, tuple(
                at.get(p, pair.spec.labels(sort)[0]) for p, sort in enumerate(words[v])))
    return True, None


def specialize_pair(pair: FrobeniusPair, assignment) -> FrobeniusPair:
    """Apply a ring specialization to every generator entry."""
    substitute = substitution(pair.ring, assignment)
    maps = {name: m.map_entries(substitute) for name, m in pair.maps.items()}
    return FrobeniusPair(pair.ring, pair.spec, maps, name=pair.name,
                         unit_label=pair.unit_label, notes=dict(pair.notes))


# -- exact linear algebra -----------------------------------------------------------


def sparse_rank_fraction(rows) -> int:
    """Rank over Q of sparse rows ({col: int or Fraction} dicts), changed in
    place, as by `_integer_rank`, which finishes them: clearing the
    denominators of a row that is not all ints keeps the rank, and the rank
    over Q of integer rows is their rank over Z."""
    for row in rows:
        if not {int}.issuperset(map(type, row.values())):
            scale = math.lcm(*(x.denominator for x in row.values()))
            row.update({c: x.numerator * scale // x.denominator for c, x in row.items()})
    return _integer_rank(rows)[0]


def _integer_rank(rows):
    """(rank, invariant factors > 1) over Z of sparse integer rows, changed in
    place: the +-1 pivots (`_unit_pivots`) and the Smith normal form of the
    residual, whose nonzero diagonal entries add to the pivot count."""
    count, residual = _unit_pivots(rows)
    snf, _u, _v = smith_normal_form(residual)
    width = len(residual[0]) if residual else 0
    diagonal = [snf[k][k] for k in range(min(len(residual), width))]
    return count + sum(1 for x in diagonal if x), [x for x in diagonal if x > 1]


def sparse_rank_gf2(rows) -> int:
    """Rank over GF(2) of sparse integer rows ({col: int} dicts): a row's odd
    entries are the bits of an int, XOR-reduced by the kept rows, by top bit."""
    kept = {}  # top bit -> the kept row that has it
    for row in rows:
        bits = sum(1 << c for c, x in row.items() if x % 2)
        while (top := bits.bit_length()) in kept:
            bits ^= kept[top]
        if bits:
            kept[top] = bits
    return len(kept)


def smith_normal_form(mat):
    """(D, U, V) with U*mat*V = D diagonal, d_k | d_{k+1}, U and V unimodular.

    One grid holds all three: its first rows are mat's rows, each followed by
    U's row, so a row operation moves mat and U together; V's rows come after
    them, so a column operation moves mat and V together.  Each pivot is a
    least |entry| of the remaining block, a tie going to the fewest other
    entries in its row and column; it is made positive and quotients are
    rounded to nearest, so every remainder is at most half the pivot: with
    floor quotients the entries grew without bound even on 8 x 8 inputs."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    g = ([[int(x) for x in row] + [int(i == j) for j in range(rows)] for i, row in enumerate(mat)]
         + [[int(i == j) for j in range(cols)] for i in range(cols)])

    def row_op(i, j, c):  # Ri += c Rj
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]

    def col_op(i, j, c):  # Ci += c Cj
        for row in g:
            row[i] += c * row[j]

    t = 0
    while t < min(rows, cols):
        live = [(r, c) for r in range(t, rows) for c in range(t, cols) if g[r][c]]
        if not live:
            break
        in_row, in_col = Counter(r for r, _ in live), Counter(c for _, c in live)
        pr, pc = min(live, key=lambda rc: (abs(g[rc[0]][rc[1]]), in_row[rc[0]] + in_col[rc[1]]))
        g[t], g[pr] = g[pr], g[t]
        for row in g:
            row[t], row[pc] = row[pc], row[t]
        if g[t][t] < 0:
            g[t] = [-x for x in g[t]]
        p = g[t][t]
        for r in range(t + 1, rows):
            if g[r][t]:
                row_op(r, t, -((g[r][t] + p // 2) // p))
        for c in range(t + 1, cols):
            if g[t][c]:
                col_op(c, t, -((g[t][c] + p // 2) // p))
        if any(g[t][t + 1:cols]) or any(g[r][t] for r in range(t + 1, rows)):
            continue  # a remainder, at most p/2, is a smaller pivot
        bad = next((r for r in range(t + 1, rows) for x in g[r][t + 1:cols] if x % p), None)
        if bad is None:
            t += 1
        else:
            row_op(t, bad, 1)  # bring an entry that p does not divide into row t
    d = [[g[r][c] if r == c else 0 for c in range(cols)] for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if r != c and g[r][c]:
                raise AssertionError("SNF did not terminate diagonal")
    return d, [row[cols:] for row in g[:rows]], g[rows:]


def _unit_pivots(rows):
    """Eliminate the +-1 pivots of sparse integer rows ({col: value} dicts,
    changed in place); returns (count, residual), the residual as dense rows.

    Each elimination is an invertible change of basis, so over Z
    SNF(rows) = I_count (+) SNF(residual).  A pivot is its own inverse.
    Pivots are taken in column sweeps: a sweep visits the columns shortest
    first, by their lengths when it starts, and pivots each on the first of
    its shortest rows that hold a +-1, found in one scan of the column.  Fill
    can make a +-1 in a column already passed, so sweeps repeat while a +-1
    is left.  Short columns and rows keep the fill-in small with no queue of
    costs: a sweep sorts the columns once and scans each once, and scanning a
    column costs its length, the number of rows its pivot then updates; a
    column that earlier pivots of the sweep emptied is passed over.  A lone
    +-1 is taken without comparing row lengths, and the pivot's column set is
    emptied in place, so a column that holds one row meets no other row.
    """
    rows, cols = dict(enumerate(rows)), defaultdict(set)
    for r, row in rows.items():
        for c in row:
            cols[c].add(r)
    count = 0
    while any(v in (1, -1) for row in rows.values() for v in row.values()):
        for c in sorted(cols, key=lambda k: len(cols[k])):
            p = None
            for r in cols[c] or ():
                if rows[r][c] in (1, -1) and (p is None or len(rows[r]) < len(rows[p])):
                    p = r
            if p is None:
                continue
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
                    if y is None:  # fill: f * x is nonzero
                        row[cc] = -f * x
                        cols[cc].add(r)
                    elif y := y - f * x:
                        row[cc] = y
                    else:
                        del row[cc]
                        cols[cc].discard(r)
                if not row:
                    del rows[r]
    live = sorted({c for row in rows.values() for c in row})
    return count, [[row.get(c, 0) for c in live] for row in rows.values()]


def homology(cube: StateCube, pair: FrobeniusPair, coefficients):
    """Per-degree homology of the cube complex.

    Returns a list (degree 0..n) of {"betti": int, "torsion": [int, ...]};
    torsion is always empty over a field.  One walk of the scan's edge numbers
    sorts the edges by degree, in scan order, each with offsets and sign read
    off its vertex index.  Each generator's entries become constants, and over
    z and z2 integers, once per call, outputs as label indices; d_i's sparse
    rows scatter each edge's `_block`, built from them and the sorts' radices
    when first met, with its sign.  Over z2 `sparse_rank_gf2` reduces them
    as int bitsets; over q (`sparse_rank_fraction`, which clears denominators
    first) and z, `_integer_rank` eliminates their +-1 pivots (`_unit_pivots`)
    and takes the Smith normal form of the residual block only, whose entries
    > 1 over z are the torsion of degree i+1.
    Entries must be constants in the pair's ring (specialize first), and
    integers over z and z2: CubeError refuses d_i's first fraction, sign
    included, rather than truncate it.  A Z/2 pair takes only z2: its residues
    lifted to Q or Z need not give d^2 = 0.  First of all, TensorError refuses
    a vertex word that spans more than tensor.MAX_TUPLES basis tuples.
    """
    for w in cube.vertices.values():
        pair.spec.check_dim(w)
    if coefficients not in COEFFS:
        raise CubeError(f"unknown coefficients {coefficients!r}")
    if coefficients in ("q", "z") and pair.ring.domain == MOD2:
        name = "rational" if coefficients == "q" else "integer"
        raise CubeError(f"cannot take {name} coefficients of a Z/2 pair")
    n, (words, numbers, moves) = cube.n, cube.scan
    radix = {sort: len(pair.spec.labels(sort)) for sort in SORTS}
    dims, offset = [0] * (n + 1), []
    for v, w in enumerate(words):
        offset.append(dims[v.bit_count()])  # v's first place in its degree
        dims[v.bit_count()] += pair.spec.dim(w)
    # d_i's edges: (row offset, column offset, number, sign is -1); -1 = 1 over Z/2
    edges, signed = [[] for _ in dims], pair.ring.domain != MOD2
    for v, row in enumerate(numbers):
        edges[v.bit_count()] += [(offset[v ^ 1 << n - 1 - k], offset[v], e, signed and (
            v >> n - k).bit_count() % 2 == 1) for k, e in enumerate(row) if e is not None]
    constants = {}  # generator -> its entries as (column, output label indices, constant)
    blocks = {}  # edge number -> [(out place, in place, constant)] of its edge map
    ranks = [0] * (n + 1)  # ranks[i] = rank of d_i; d_n = 0
    torsion = [[] for _ in dims]
    for i in range(n):
        fresh = {}  # generator new to this call -> its first edge's sign
        for _r, _c, e, negate in edges[i]:
            if moves[e][1] not in constants:
                fresh.setdefault(moves[e][1], negate)
        table = table_with(pair, fresh, CubeError)
        # an edge map meets its generator's columns in order, so its first bad
        # entry is its generator's; convert all before testing any for integers
        for gen, negate in fresh.items():
            m = table[gen]
            column = {t: c for c, t in enumerate(pair.spec.tuples(m.dom))}
            entries = sorted([(column[t], o, v) for (o, t), v in m.entries.items()],
                             key=lambda entry: entry[0])
            bad = next((v for *_, v in entries if not v.is_constant()), None)
            if bad is not None:
                raise CubeError(f"specialize first: not a constant: {-bad if negate else bad}")
            constants[gen] = [(c, tuple([pair.spec.labels(s).index(x) for s, x in zip(m.cod, o)]),
                               v.constant_value()) for c, o, v in entries]
        for gen, negate in fresh.items() if coefficients != "q" else ():
            bad = next((x for *_, x in constants[gen] if x.denominator != 1), None)
            if bad is not None:
                raise CubeError(f"d_{i} has the non-integral entry {-bad if negate else bad}; "
                                f"homology over {coefficients} needs integers")
            constants[gen] = [(c, o, int(x)) for c, o, x in constants[gen]]
        rows = defaultdict(dict)
        for r, c, e, negate in edges[i]:
            if e not in blocks:
                blocks[e] = _block(radix, moves[e], constants[moves[e][1]])
            for o, t, x in blocks[e]:
                rows[r + o][c + t] = -x if negate else x
        rows = list(rows.values())
        if coefficients == "z":
            ranks[i], torsion[i + 1] = _integer_rank(rows)
        else:
            rank = sparse_rank_gf2 if coefficients == "z2" else sparse_rank_fraction
            ranks[i] = rank(rows)
    return [{"betti": dims[i] - ranks[i] - (ranks[i - 1] if i else 0),
             "torsion": torsion[i]} for i in range(n + 1)]


def _block(radix, move, entries):
    """The (out place, in place, value) entries of an edge's map in act's order:
    its generator's entries, each (column, output label indices, value), on the
    source slots, tensored with the identity on the other circles.  A tuple's
    place in its word is a mixed-radix number over the sorts' `radix` values."""
    w_in, _gen, src, dst, w_out, _provenance = move
    out, dim = [1] * len(w_out), 1  # an out slot's weight: dim of the slots after it
    for q in range(len(w_out) - 1, -1, -1):
        out[q], dim = dim, dim * radix[w_out[q]]
    weigh, size = {}, 1  # a source slot's weight in its generator's columns
    for p in reversed(src):
        weigh[p], size = size, size * radix[w_in[p]]
    passive = iter([out[q] for q in range(len(w_out)) if q not in dst])
    code = [0]  # by in place: its generator column times dim, plus its passive out place
    for p, s in enumerate(w_in):
        z = weigh[p] * dim if p in weigh else next(passive)
        code = [h + d * z for h in code for d in range(radix[s])]
    outs, at = [[] for _ in range(size)], [out[q] for q in dst]
    for c, o, v in entries:
        outs[c].append((sum(map(mul, o, at)), v))
    return [(o + h % dim, c, v) for c, h in enumerate(code) for o, v in outs[h // dim]]


def vertex_euler(cube: StateCube, pair: FrobeniusPair) -> int:
    return sum((-1) ** _weight(b) * pair.spec.dim(word(w))
               for b, w in cube.vertices.items())


# -- cube files -----------------------------------------------------------------------


#: edge kind -> the fields of its edge object in a cube file
EDGE_FIELDS = {"merge": {"kind", "i", "j", "out", "sort"}, "split": {"kind", "i", "outs", "sorts"}}


def _edge_from_json(key, mv) -> EdgeMove:
    if not isinstance(mv, dict):
        raise CubeError(f"edge {key!r}: expected an object")
    kind = mv.get("kind")
    try:
        if kind == "merge":
            move = EdgeMove(kind, mv["i"], mv["j"], (mv["out"],), (mv["sort"],))
        elif kind == "split":
            move = EdgeMove(kind, mv["i"], 0, tuple(mv["outs"]), tuple(mv["sorts"]))
            if not (isinstance(mv["outs"], list) and isinstance(mv["sorts"], list)):
                raise TypeError  # a string or an object reads as a sequence too
        else:
            raise CubeError(f"edge {key!r}: unknown kind {kind!r}")
    except KeyError as exc:
        raise CubeError(f"edge {key!r}: missing field {exc}") from None
    except TypeError:
        raise CubeError(f"edge {key!r}: outs and sorts must be lists") from None
    if not mv.keys() <= EDGE_FIELDS[kind]:
        extra = next(field for field in mv if field not in EDGE_FIELDS[kind])
        raise CubeError(f"edge {key!r}: unknown field {extra!r}")
    _kind, i, j, outs, sorts = move
    arity = 1 if kind == "merge" else 2
    if ({type(i), type(j), *map(type, outs)} != {int} or len(outs) != arity
            or len(sorts) != arity or sorts.count("A") + sorts.count("E") != arity):
        raise CubeError(f"edge {key!r}: a {kind} takes integer positions "
                        f"and {arity} output sort(s) A/E")
    return move


def cube_from_json(text) -> StateCube:
    """Parse and validate a cube file; raises CubeError on any malformed field."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON or an over-long integer
        raise CubeError(f"not a cube file: {exc}") from None
    if not isinstance(obj, dict):
        raise CubeError("not a cube file: expected a JSON object")
    if extra := [field for field in obj if field not in ("n", "vertices", "edges")]:
        raise CubeError(f"unknown field {extra[0]!r}")
    n = obj.get("n")
    if type(n) is not int or n < 0:
        raise CubeError("missing or bad field n")
    raw_vertices, raw_edges = obj.get("vertices", {}), obj.get("edges", {})
    if not (isinstance(raw_vertices, dict) and isinstance(raw_edges, dict)):
        raise CubeError("fields vertices and edges must be objects")
    count = len(raw_vertices)
    # count == 2**n, tested before any per-vertex work and without forming
    # 2**n for an n beyond the count's bit length, so a huge n allocates nothing
    if count.bit_length() != n + 1 or count != 1 << n:
        raise CubeError(f"n = {n} needs 2**{n} vertices, found {count}")
    vertices = {}
    for b, w in raw_vertices.items():
        if not isinstance(w, list) or w.count("A") + w.count("E") != len(w):
            raise CubeError(f"vertex {b!r}: expected a list of sorts A/E")
        if len(w) > MAX_CIRCLES:
            raise CubeError(f"vertex {b!r}: a word of {len(w)} circles is over the "
                            f"limit of {MAX_CIRCLES}")
        vertices[b] = tuple(w)
    edges = {}
    for key, mv in raw_edges.items():
        if key.count("*") != 1 or len(key) != n or key.strip("01*"):  # a char not in 01*
            raise CubeError(f"bad edge key {key!r}")
        edges[(key.replace("*", "0"), key.index("*"))] = _edge_from_json(key, mv)
    return StateCube(n, vertices, edges)


def load_cube(path) -> StateCube:
    with open(path, encoding="utf-8") as fh:
        return cube_from_json(fh.read())
