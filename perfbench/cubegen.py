"""Seeded generator of valid state cubes, written as cube JSON.

A state is the cycle structure of a permutation: the all-zero state is a
random permutation sigma of a point set, each crossing is a transposition on
two dedicated points, and the state for bits s is sigma * prod(t_k for
s_k = 1).  Multiplying by a disjoint transposition merges or splits cycles,
the transpositions commute, and cycle membership gives canonical circle
tracking, so every square commutes by construction.  Sorts are drawn at
random subject to the generator signature, falling back to the
all-inessential labelling, which is always legal.

This is the benchmark's own copy of the chord-permutation construction; it
imports nothing from the test suite, so editing a test cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import json

from frobpair.cobordism import MERGE_GEN, SPLIT_GEN


def _bits_all(n):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


def _flip(bits, k):
    return bits[:k] + "1" + bits[k + 1:]


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


def _derive_move(src, dst, chord):
    """(kind, i, j, outs) of the saddle that chord performs from src to dst."""
    a, b = chord
    ia = next(i for i, c in enumerate(src) if a in c)
    ib = next(i for i, c in enumerate(src) if b in c)
    if ia != ib:
        out = next(i for i, c in enumerate(dst) if a in c)
        return ("merge", min(ia, ib) + 1, max(ia, ib) + 1, (out + 1,))
    p1 = next(i for i, c in enumerate(dst) if a in c)
    p2 = next(i for i, c in enumerate(dst) if b in c)
    return ("split", ia + 1, 0, (p1 + 1, p2 + 1))


def _untouched(kind, i, j, outs, n_in):
    gone = (i, j) if kind == "merge" else (i,)
    n_out = n_in - 1 if kind == "merge" else n_in + 1
    rest = [p for p in range(1, n_in + 1) if p not in gone]
    slots = [p for p in range(1, n_out + 1) if p not in outs]
    return dict(zip(rest, slots))


def _assign_sorts(rng, n, cycles, moves, tries):
    zero = "0" * n
    order = sorted(_bits_all(n), key=lambda s: (s.count("1"), s))
    for attempt in range(tries + 1):
        random_mode = attempt < tries
        sorts = {zero: [rng.choice("AE") if random_mode else "A" for _ in cycles[zero]]}
        for b in order[1:]:
            k = b.index("1")
            u = b[:k] + "0" + b[k + 1:]
            kind, i, j, outs = moves[(u, k)]
            src = sorts[u]
            dst = [None] * len(cycles[b])
            for sp, dp in _untouched(kind, i, j, outs, len(src)).items():
                dst[dp - 1] = src[sp - 1]
            if kind == "merge":
                legal = [o for o in "AE" if (src[i - 1], src[j - 1], o) in MERGE_GEN]
                dst[outs[0] - 1] = rng.choice(legal) if random_mode else legal[0]
            else:
                legal = [(s1, s2) for (s0, s1, s2) in SPLIT_GEN if s0 == src[i - 1]]
                pick = rng.choice(legal) if random_mode else ("A", "A")
                dst[outs[0] - 1], dst[outs[1] - 1] = pick
            sorts[b] = dst
        if all(_edge_legal(sorts, u, k, mv) for (u, k), mv in moves.items()):
            return sorts
    raise AssertionError("the all-A labelling is always legal")


def _edge_legal(sorts, u, k, move):
    kind, i, j, outs = move
    src, dst = sorts[u], sorts[_flip(u, k)]
    for sp, dp in _untouched(kind, i, j, outs, len(src)).items():
        if dst[dp - 1] != src[sp - 1]:
            return False
    if kind == "merge":
        return (src[i - 1], src[j - 1], dst[outs[0] - 1]) in MERGE_GEN
    return (src[i - 1], dst[outs[0] - 1], dst[outs[1] - 1]) in SPLIT_GEN


def dense_cells(n, cycles) -> int:
    """Cells of the dense differential matrices with two basis labels per
    circle: the sum over degrees i of dim C_i * dim C_(i+1)."""
    dims = [0] * (n + 1)
    for b, cyc in cycles.items():
        dims[b.count("1")] += 2 ** len(cyc)
    return sum(dims[i] * dims[i + 1] for i in range(n))


def random_cube_json(rng, n, cells, max_circles=6, sort_tries=40) -> str:
    """Cube JSON text of a valid random state cube with n crossings.

    `cells` = (lo, hi) bounds `dense_cells`, which tracks the cost of edge
    maps, elimination and Smith normal form more closely than n does, so
    that one seed's cubes cost about as much as another's.
    """
    lo, hi = cells
    while True:
        m = 2 * n + rng.randint(1, 3)
        sigma = list(range(m))
        rng.shuffle(sigma)
        pts = rng.sample(range(m), 2 * n)
        chords = [(pts[2 * k], pts[2 * k + 1]) for k in range(n)]
        cycles = {b: _cycles(_apply_chords(sigma, chords, b)) for b in _bits_all(n)}
        if any(len(c) > max_circles for c in cycles.values()):
            continue
        if not lo <= dense_cells(n, cycles) <= hi:
            continue
        moves = {(b, k): _derive_move(cycles[b], cycles[_flip(b, k)], chords[k])
                 for b in _bits_all(n) for k in range(n) if b[k] == "0"}
        sorts = _assign_sorts(rng, n, cycles, moves, sort_tries)
        edges = {}
        for (b, k), (kind, i, j, outs) in sorted(moves.items()):
            key = b[:k] + "*" + b[k + 1:]
            w = sorts[_flip(b, k)]
            if kind == "merge":
                edges[key] = {"kind": "merge", "i": i, "j": j,
                              "out": outs[0], "sort": w[outs[0] - 1]}
            else:
                edges[key] = {"kind": "split", "i": i, "outs": list(outs),
                              "sorts": [w[outs[0] - 1], w[outs[1] - 1]]}
        obj = {"n": n, "vertices": {b: sorts[b] for b in _bits_all(n)}, "edges": edges}
        return json.dumps(obj, indent=2) + "\n"
