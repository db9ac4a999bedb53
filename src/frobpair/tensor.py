"""Sorted free modules (sorts A and E), tensor words, and exact linear maps.

A LinMap stores only nonzero entries, keyed by (codomain basis tuple,
domain basis tuple).  Basis tuples enumerate in lexicographic order with
respect to the per-sort label order, which fixes deterministic witnesses.
The empty word is the ground ring and has the single basis tuple ().
Cobordisms act locally: act() applies one generator, or a reordering, to
chosen factors of a word and passes the others through unchanged.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter

from .ring import FrobpairError, RingDecl

SORT_A = "A"
SORT_E = "E"
SORTS = (SORT_A, SORT_E)

#: the most circles a cube vertex or a cobordism word (input or running) may hold, so a
#: rank-2 word spans at most 2**16 basis tuples
MAX_CIRCLES = 16
#: the most basis tuples such a word may span under the chosen pair
MAX_TUPLES = 2 ** 16
#: the terms of the ring's 1 in Z, Q and Z/2: act passes the other factor through
ONE_TERMS = {(): 1}


class TensorError(FrobpairError):
    """Shape or basis-spec violations in linear-map operations."""


def word(letters) -> tuple:
    w = tuple(letters)
    for s in w:
        if s not in SORTS:
            raise TensorError(f"unknown sort {s!r}")
    return w


class BasisSpec:
    """Ordered basis labels for each sort, over a fixed ring declaration; equal
    to and hashed as another with the same labels and ring."""

    def __init__(self, basis_a: tuple, basis_e: tuple, ring: RingDecl):
        for labels in (basis_a, basis_e):
            if not labels:
                raise TensorError("both sorts need a nonempty basis")
            if len(set(labels)) != len(labels):
                raise TensorError("duplicate basis labels within a sort")
        self.basis_a, self.basis_e, self.ring = basis_a, basis_e, ring

    def _key(self):
        return self.basis_a, self.basis_e, self.ring

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is BasisSpec else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BasisSpec{self._key()!r}"

    def labels(self, sort):
        return self.basis_a if sort == SORT_A else self.basis_e

    def tuples(self, w):
        """All basis tuples of a word in lexicographic order."""
        return itertools.product(*(self.labels(s) for s in w))

    def dim(self, w) -> int:
        n = 1
        for s in w:
            n *= len(self.labels(s))
        return n

    def check_dim(self, w):
        """Raise TensorError if w spans more than MAX_TUPLES basis tuples."""
        if self.dim(w) > MAX_TUPLES:
            raise TensorError(f"the word {''.join(w)} spans {self.dim(w)} basis tuples, "
                              f"over the limit of {MAX_TUPLES}")


class LinMap:
    """Exact sparse matrix between tensor words of A/E free modules."""

    __slots__ = ("spec", "dom", "cod", "entries", "_columns")

    def __init__(self, spec, dom, cod, entries, _normalized=False):
        self.spec = spec
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self._columns = None
        if _normalized:
            self.entries = entries
        else:
            self.entries = {k: v for k, v in entries.items() if v.terms}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(spec, dom, cod) -> "LinMap":
        return LinMap(spec, dom, cod, {}, _normalized=True)

    @staticmethod
    def identity(spec, w) -> "LinMap":
        return _Identity(spec, w)

    # -- operations -----------------------------------------------------------

    def map_entries(self, fn) -> "LinMap":
        return LinMap(self.spec, self.dom, self.cod, {k: fn(v) for k, v in self.entries.items()})

    def column(self, in_tuple) -> dict:
        return {out: v for out, v, _one in self.columns().get(in_tuple, ())}

    def columns(self) -> dict:
        """{col: [(row, value, value is 1)]} of the entries, built on first use."""
        if self._columns is None:
            self._columns = by_col = {}
            for (out, col), v in self.entries.items():
                by_col.setdefault(col, []).append((out, v, v.terms == ONE_TERMS))
        return self._columns

    def __repr__(self):
        return f"LinMap({''.join(self.dom) or '()'} -> {''.join(self.cod) or '()'}, {len(self.entries)} entries)"


class _Identity(LinMap):
    """The identity on a word: act moves on it without its entries, built when first read."""

    __slots__ = ()

    def __init__(self, spec, w):
        self.spec, self.dom, self.cod, self._columns = spec, tuple(w), tuple(w), None

    def __getattr__(self, name):  # only an unset slot gets here: the entries
        if name != "entries":
            raise AttributeError(name)
        self.entries = dict.fromkeys(((t, t) for t in self.spec.tuples(self.dom)),
                                     self.spec.ring.one())
        return self.entries


def compose(g: LinMap, f: LinMap) -> LinMap:
    """Matrix product g after f (diagram order: f is applied first)."""
    return act(f, g, range(len(f.cod)), range(len(g.cod)))


def act(f: LinMap, gen, src, dst) -> LinMap:
    """Apply gen after f to the codomain factors at the 0-based slots src.

    gen's outputs land in the slots dst of the new word, and every other
    factor passes through in its relative order.  With gen None the factors
    at src move to the slots dst unchanged, with no ring multiplication.
    """
    sig = None if gen is None else (gen.dom, gen.cod, gen.spec is f.spec or gen.spec == f.spec)
    place, pick, new_cod = move_plan(f.cod, tuple(src), tuple(dst), sig)
    if type(f) is _Identity:  # each input tuple t moves, or takes gen's column at pick(t)
        moved = gen is None and (((), f.spec.ring.one(), True),)  # a reordering: t itself
        columns = {} if moved else gen.columns()
        entries = {(place(o + t), t): v for t in f.spec.tuples(f.dom)
                   for o, v, _one in moved or columns.get(pick(t), ())}
        return LinMap(f.spec, f.dom, new_cod, entries, _normalized=True)
    if gen is None:
        entries = {(place(out), t): v for (out, t), v in f.entries.items()}
        return LinMap(f.spec, f.dom, new_cod, entries, _normalized=True)
    columns = gen.columns()
    entries = {}
    for (out, t), fv in f.entries.items():
        f_one = fv.terms == ONE_TERMS
        for o, gv, g_one in columns.get(pick(out), ()):
            key = (place(o + out), t)
            s = entries.get(key)
            p = fv if g_one else gv if f_one else gv * fv
            entries[key] = p if s is None else s + p
    return LinMap(f.spec, f.dom, new_cod, entries)


# 512: a bench pass plans 176-191 moves on algebra jobs, 105-234 on cubes; refusals aren't kept
@functools.lru_cache(maxsize=512)
def move_plan(cod, src, dst, sig):
    """The one placement rule: act's checks, then the pickers place (outputs +
    old items -> the new word's order) and pick (the items at src), and the new word."""
    if len(set(src) & set(range(len(cod)))) != len(src):
        raise TensorError(f"source slots {src} out of range for word {cod}")
    if sig is not None and not sig[2]:
        raise TensorError("basis-spec mismatch")
    if sig is not None and sig[0] != tuple(cod[p] for p in src):
        raise TensorError(f"word mismatch: {sig[0]} at slots {src} of {cod}")
    head = () if sig is None else sig[1]
    slots = range(len(cod) - len(src) + len(dst))
    if len(dst) != (len(src) if sig is None else len(head)) or \
            len(set(dst) & set(slots)) != len(dst):
        raise TensorError(f"target slots {dst} do not fit the image of slots {src} of {cod}")
    # slot q of the new word takes item gather[q] of (gen output + old factors)
    placed = dict(zip(dst, src if sig is None else range(len(head))))
    rest = (len(head) + p for p in range(len(cod)) if p not in src)
    gather = [placed[q] if q in placed else next(rest) for q in slots]
    place = _picker(gather)
    return place, _picker(src), place(head + cod)


def _picker(slots):
    """A function taking a tuple to the tuple of its items at slots."""
    if not slots:
        return lambda parts: ()
    if len(slots) == 1:
        q, = slots
        return lambda parts: (parts[q],)
    return itemgetter(*slots)


def tensor(f: LinMap, g: LinMap) -> LinMap:
    """Kronecker product on concatenated words: f, then g, each acting on its
    own factors of the identity on f.dom + g.dom."""
    n, m = len(f.cod), len(g.dom)
    fx = act(LinMap.identity(f.spec, f.dom + g.dom), f, range(len(f.dom)), range(n))
    return act(fx, g, range(n, n + m), range(n, n + len(g.cod)))


def equal(f: LinMap, g: LinMap):
    """Exact comparison; returns (bool, witness).

    The witness is None on equality; on a shape mismatch it is
    ("shape", (dom, cod), (dom, cod)); otherwise it is the lexicographically
    first domain basis tuple where the columns differ, with both columns.
    """
    if (f.spec is not g.spec and f.spec != g.spec) or f.dom != g.dom or f.cod != g.cod:
        return False, ("shape", (f.dom, f.cod), (g.dom, g.cod))
    if f.entries == g.entries:
        return True, None
    for t in f.spec.tuples(f.dom):
        cf, cg = f.column(t), g.column(t)
        if cf != cg:
            return False, (t, cf, cg)
    return True, None
