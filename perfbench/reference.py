"""Reference Betti numbers of a cube complex, by the benchmark's own elimination.

The homology jobs are checked against these numbers.  They share only the
chain complex with frobpair (`cube.differential(...).dense()` and the chain
dimensions); the ranks come from the elimination below, not from frobpair's
rank routines, so a wrong rank in frobpair shows as a failed job.
"""

from __future__ import annotations

import math
from fractions import Fraction

from frobpair import cube


def rank_q(mat) -> int:
    """Rank over Q by fraction-free elimination on sparse integer rows."""
    pivots = {}  # leading column -> row with that leading column
    for row in mat:
        cur = {c: Fraction(x) for c, x in enumerate(row) if x}
        den = math.lcm(*(x.denominator for x in cur.values()))
        cur = {c: int(x * den) for c, x in cur.items()}
        while cur:
            lead = min(cur)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = cur
                break
            f, p = cur[lead], piv[lead]
            nxt = {c: p * x for c, x in cur.items()}
            for c, x in piv.items():
                v = nxt.get(c, 0) - f * x
                if v:
                    nxt[c] = v
                else:
                    nxt.pop(c, None)
            g = math.gcd(*nxt.values()) if nxt else 1
            cur = {c: v // g for c, v in nxt.items()} if g > 1 else nxt
    return len(pivots)


def rank_gf2(mat) -> int:
    """Rank over GF(2), each row packed into an integer bit mask."""
    basis = {}
    for row in mat:
        v = sum(1 << c for c, x in enumerate(row) if int(x) % 2)
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def betti(c, p, coefficients) -> dict:
    """{coefficients: Betti numbers per degree 0..n} of the cube complex, for
    each of "q", "z" (whose free rank is the rank over Q) and "z2" asked for."""
    dims = [len(cube.vertex_keys(c, p, i)) for i in range(c.n + 1)]
    mats = [cube.differential(c, p, i).dense() if dims[i] and dims[i + 1] else []
            for i in range(c.n)]
    out = {}
    for coeff in coefficients:
        rank = rank_gf2 if coeff == "z2" else rank_q
        ranks = [rank(m) for m in mats] + [0]
        out[coeff] = [dims[i] - ranks[i] - (ranks[i - 1] if i else 0)
                      for i in range(c.n + 1)]
    return out
