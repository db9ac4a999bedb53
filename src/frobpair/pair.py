"""Commutative Frobenius pairs: data structure, verifier, and constructions.

A FrobeniusPair carries one exact LinMap per signature generator (possibly a
partial subset).  The pairing beta and copairing gamma are derived once per
pair as eps*mu_A and Delta_A*eta, so the cancelation equations remain genuine
checks on an independently supplied Delta_A; a pair that gives either map is
refused unless it equals the derived one.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .ring import (
    INTEGERS,
    MAX_POWER,
    MOD2,
    RATIONALS,
    FrobpairError,
    RingDecl,
    RingElem,
    RingError,
    VarDecl,
    ring,
    unit_invert,
)
from .tensor import BasisSpec, LinMap, act, compose, equal, word
from .theory import SIGNATURE, evaluate_side, load_axioms


class PairError(FrobpairError):
    """Structural violations in pair construction or serialization."""


#: the maps a pair derives, each as the composite (g, f) of g after f
DERIVED = {"beta": ("eps", "mu_A"), "gamma": ("Delta_A", "eta")}


class FrobeniusPair:
    """Generator table of a (possibly partial) commutative Frobenius pair."""

    def __init__(self, ring: RingDecl, spec: BasisSpec, maps: dict, name: str = "pair",
                 unit_label: str = "1", notes: dict = None):
        self.ring, self.spec, self.maps, self.name = ring, spec, maps, name
        self.unit_label, self.notes = unit_label, {} if notes is None else notes
        self.square_verdicts = {}  # cube.check_d_squared's verdict of each local square
        for gname, m in self.maps.items():
            if gname not in SIGNATURE:
                raise PairError(f"unknown map name {gname}")
            dom, cod = SIGNATURE[gname]
            if (m.dom, m.cod) != (dom, cod):
                raise PairError(f"signature mismatch for {gname}")
            if m.spec != self.spec:
                raise PairError(f"basis-spec mismatch for {gname}")
        eta = self.maps.get("eta")
        if eta is not None:
            unit = eta.column(())
            if unit.get((self.unit_label,)) != self.ring.one():
                raise PairError("eta(1) must have coefficient 1 on the unit label")
        for gname, (g, f) in DERIVED.items():  # a given beta or gamma is the derived map
            if gname in self.maps:
                ok, witness = equal(self.maps[gname], self._table[gname])
                if not ok:
                    raise PairError(f"{gname} differs from {g} . {f} at input tuple {witness[0]}")

    @cached_property
    def _table(self) -> MappingProxyType:
        table = dict(self.maps)
        for gname, (g, f) in DERIVED.items():
            if g in table and f in table:
                table[gname] = compose(table[g], table[f])
        return MappingProxyType(table)

    def generator_table(self) -> MappingProxyType:
        """Shipped maps plus beta and gamma, read-only; derived on the first
        call and kept, since a pair's maps do not change after construction."""
        return self._table


# -- verification ---------------------------------------------------------------


class VerifyRecord(NamedTuple):
    name: str
    group: str
    provenance: str
    status: str  # pass | fail | skip
    witness: tuple = None
    missing: tuple = ()


class VerifyReport:
    def __init__(self, pair_name: str, records: list, meta: dict = None):
        self.pair_name, self.records, self.meta = pair_name, records, {} if meta is None else meta

    def summary(self) -> dict:
        out = {}
        for r in self.records:
            slot = out.setdefault(r.group, {"pass": 0, "fail": 0, "skip": 0})
            slot[r.status] += 1
        return out

    def failures(self):
        return [r for r in self.records if r.status == "fail" and r.group != "quarantine"]

    def ok(self) -> bool:
        """True iff no scored (non-quarantine) equation fails."""
        return not self.failures()


def _check_equation(eq, table, spec, memo):
    """Evaluate both sides of eq over a generator table, sharing their layer
    prefixes with the other sides evaluated through memo (see
    theory.evaluate_side); (equal?, witness) as tensor.equal gives them."""
    return equal(*(evaluate_side(side, table, spec, memo) for side in eq.sides))


def verify(pair: FrobeniusPair, equations=None, groups=None) -> VerifyReport:
    """Evaluate both sides of every equation exactly and compare.

    Equations mentioning generators absent from the pair are reported as
    skipped.  Witnesses are deterministic: the lexicographically first
    domain basis tuple on which the two sides differ, with both columns.
    Sides that start with the same layers on the same domain share their
    evaluation: each distinct prefix is evaluated once per call.  A scored
    equation's words are bounded first: TensorError refuses one that spans
    more than tensor.MAX_TUPLES basis tuples.
    """
    if equations is None:
        equations = load_axioms()
    table = pair.generator_table()
    names = set(table)
    memo, bounded = {}, set()  # bounded: the words check_dim passed
    records = []
    for eq in equations:
        if groups is not None and eq.group not in groups:
            continue
        missing = tuple(sorted(eq.generators - names))
        if missing:
            records.append(VerifyRecord(eq.name, eq.group, eq.provenance, "skip", missing=missing))
            continue
        for w in eq.words:
            if w not in bounded:
                pair.spec.check_dim(w)
                bounded.add(w)
        ok, witness = _check_equation(eq, table, pair.spec, memo)
        if ok:
            records.append(VerifyRecord(eq.name, eq.group, eq.provenance, "pass"))
        else:
            records.append(VerifyRecord(eq.name, eq.group, eq.provenance, "fail", witness=witness))
    return VerifyReport(pair.name, records, meta=dict(pair.notes))


# -- the algebra A ------------------------------------------------------------------


class FrobeniusAlgebra:
    """Rank-n commutative Frobenius algebra as its four maps mu_A, Delta_A, eta
    and eps over BasisSpec(labels, labels, ring).  An element is a
    {label: coefficient} dict; arithmetic acts A's maps on it as a map () -> A."""

    def __init__(self, ring: RingDecl, labels: tuple, unit_label: str, maps: dict):
        self.ring, self.labels, self.unit_label, self.maps = ring, labels, unit_label, maps

    def mul_vec(self, v1, v2):
        """v1 * v2: v2 placed beside v1, then mu_A."""
        mu = self.maps["mu_A"]
        both = act(_element(mu.spec, v1), _element(mu.spec, v2), (), (1,))
        return _coords(act(both, mu, (0, 1), (0,)))

    def handle_vec(self):
        """mu_A(Delta_A(1)), the handle element."""
        return _coords(compose(self.maps["mu_A"], compose(self.maps["Delta_A"], self.maps["eta"])))

    def power_vec(self, v, k, v_inv):
        """v**k by k - 1 products (1 when k = 0); negative powers are powers of v_inv = 1/v."""
        if k < 0:
            v, k = v_inv, -k
        out = v = _coords(_element(self.maps["eta"].spec, v) if k else self.maps["eta"])
        for _ in range(k - 1):
            out = self.mul_vec(out, v)
        return out


def _element(spec, v) -> LinMap:
    """The element v = {label: coefficient} of A as the map () -> A; a
    coefficient that is not a ring element is taken into spec's ring."""
    coerce = spec.ring.const
    return LinMap(spec, (), word("A"), {((l,), ()): c if isinstance(c, RingElem) else coerce(c)
                                        for l, c in v.items()})


def _coords(m) -> dict:
    """The map m: () -> A as the element {label: coefficient}."""
    return {o[0]: c for (o, _), c in m.entries.items()}


def universal_algebra(ring_decl, h, t) -> FrobeniusAlgebra:
    """k[X]/(X^2 - hX - t) with the universal Khovanov Frobenius structure:
    eps(1)=0, eps(X)=1, Delta(1)=1&X + X&1 - h 1&1, Delta(X)=X&X + t 1&1."""
    labels = one, x = "1", "X"
    spec, e1 = BasisSpec(labels, labels, ring_decl), ring_decl.one()
    maps = {
        "mu_A": _linmap(spec, word("AA"), word("A"), {
            (one, one): {(one,): e1}, (one, x): {(x,): e1}, (x, one): {(x,): e1},
            (x, x): {(x,): h, (one,): t}}),
        "Delta_A": _linmap(spec, word("A"), word("AA"), {
            (one,): {(one, x): e1, (x, one): e1, (one, one): -h},
            (x,): {(x, x): e1, (one, one): t}}),
        "eta": _linmap(spec, (), word("A"), {(): {(one,): e1}}),
        "eps": _linmap(spec, word("A"), (), {(x,): {(): e1}}),
    }
    return FrobeniusAlgebra(ring_decl, labels, one, maps)


def _linmap(spec, dom, cod, table) -> LinMap:
    """Build a LinMap from {in_tuple: {out_tuple: RingElem}}."""
    entries = {(o, t): c for t, col in table.items() for o, c in col.items() if not c.is_zero()}
    return LinMap(spec, dom, cod, entries, _normalized=True)


def _algebra_maps(alg, spec):
    """The four A-generators of an algebra as LinMaps over a basis spec whose
    A labels are the algebra's."""
    return {name: LinMap(spec, m.dom, m.cod, m.entries, _normalized=True)
            for name, m in alg.maps.items()}


def _vec_str(vec) -> str:
    return " + ".join(f"({c})*{l}" for l, c in sorted(vec.items())) or "0"


def _mirror(m) -> LinMap:
    """m with every domain and codomain tuple reversed: mu_EA from mu_AE."""
    return LinMap(m.spec, m.dom[::-1], m.cod[::-1],
                  {(o[::-1], t[::-1]): v for (o, t), v in m.entries.items()}, _normalized=True)


def _retyped(m, name) -> LinMap:
    """m's entries under generator name's signature, for an E with A's labels."""
    dom, cod = SIGNATURE[name]
    return LinMap(m.spec, dom, cod, m.entries, _normalized=True)


def _times(mu_a, v) -> LinMap:
    """Multiplication by the algebra element v = {label: coefficient}, as the
    map A -> A that puts v beside its input and applies mu_A."""
    spec = mu_a.spec
    return act(act(LinMap.identity(spec, word("A")), _element(spec, v), (), (0,)),
               mu_a, (0, 1), (0,))


def _chain(spec, w, *moves) -> LinMap:
    """The identity on the word w followed by the act moves (gen, src, dst) in turn."""
    m = LinMap.identity(spec, word(w))
    for gen, src, dst in moves:
        m = act(m, gen, src, dst)
    return m


# -- builders ------------------------------------------------------------------


def build_sqrt(alg: FrobeniusAlgebra, xi: dict, name="sqrt") -> FrobeniusPair:
    """Square-root pair: E = A with all structure maps those of A and every
    Mobius map equal to multiplication by xi, where xi^2 must be the handle
    element."""
    xi_sq = alg.mul_vec(xi, xi)
    phi = alg.handle_vec()
    if xi_sq != phi:
        raise PairError(f"xi^2 != handle element: {_vec_str(xi_sq)} vs {_vec_str(phi)}")
    spec = BasisSpec(alg.labels, alg.labels, alg.ring)
    maps = _algebra_maps(alg, spec)

    times_xi = _times(maps["mu_A"], xi)
    for gname in ("mu_AE", "mu_EA", "mu_E", "mu_EEA"):
        maps[gname] = _retyped(maps["mu_A"], gname)
    for gname in ("Delta_AE", "Delta_EA", "Delta_E", "Delta_AEE"):
        maps[gname] = _retyped(maps["Delta_A"], gname)
    for gname in ("nu_AE", "nu_EA", "nu_EE"):
        maps[gname] = _retyped(times_xi, gname)
    return FrobeniusPair(alg.ring, spec, maps, name=name, unit_label=alg.unit_label)


def build_tt() -> FrobeniusPair:
    """The mod-2 Laurent pair A = E = Z/2[X, l^{+-1}]/(X^2 - l^2 X); Mobius maps
    are multiplication by l, the square root of the handle element l^2."""
    decl = ring(MOD2, "l^-1")
    lam = decl.gen("l")
    alg = universal_algebra(decl, lam * lam, decl.zero())
    pair = build_sqrt(alg, {"1": lam}, name="tt")
    return pair


def build_it(strict_partial=False) -> FrobeniusPair:
    """The virtual-knot near-example over Q[X, t^{+-1}]/(X^2 - t).

    mu_E and Delta_E have no defining formula in this structure; by default
    they are imputed as mu_A and Delta_A so every equation can be evaluated
    (the consistency group is then expected to fail).  With strict_partial=True
    they are omitted and the verifier reports their equations as skipped.
    """
    decl = ring(RATIONALS, "t^-1")
    t = decl.gen("t")
    alg = universal_algebra(decl, decl.zero(), t)
    spec = BasisSpec(alg.labels, alg.labels, decl)
    maps = _algebra_maps(alg, spec)

    phi = alg.handle_vec()  # 2X
    phi_sq = alg.mul_vec(phi, phi)  # 4t, invertible
    inv_scalar = unit_invert(phi_sq[alg.unit_label])
    phi_inv = {l: inv_scalar * c for l, c in phi.items()}

    mu, delta = maps["mu_A"], maps["Delta_A"]
    times_phi, ident = _times(mu, phi), LinMap.identity(spec, word("A"))
    same = {"mu_AE": mu, "mu_EA": mu, "Delta_AE": delta, "Delta_EA": delta,
            "mu_EEA": compose(_times(mu, phi_inv), mu), "Delta_AEE": compose(delta, times_phi),
            "nu_AE": times_phi, "nu_EA": ident, "nu_EE": ident}
    if not strict_partial:
        same.update(mu_E=mu, Delta_E=delta)
    maps.update({gname: _retyped(m, gname) for gname, m in same.items()})
    pair = FrobeniusPair(decl, spec, maps, name="it")
    pair.notes["imputed"] = [] if strict_partial else ["mu_E", "Delta_E"]
    return pair


class Rank2Params(NamedTuple):
    """Parameters of the rank-2 classification family; all entries ring elements."""

    a: RingElem
    c_yy: RingElem
    c_yz: RingElem
    c_zz: RingElem
    d_yy: RingElem
    d_yz: RingElem
    d_zz: RingElem
    e_y: RingElem
    e_z: RingElem
    f_y: RingElem
    f_z: RingElem

    @staticmethod
    def over(decl: RingDecl, **kw) -> "Rank2Params":
        """The parameters kw, numbers, as constants of decl."""
        return Rank2Params(**{k: decl.const(v) for k, v in kw.items()})


def build_rank2(p: Rank2Params) -> FrobeniusPair:
    """The rank-2 family table over A = k[X]/((X-a)^2), E = <Y, Z> with trivial
    mu_E and Delta_E; admissibility is not enforced here (see
    check_rank2_constraints)."""
    pair = _rank2_pair(p, "rank2")
    pair.notes["rank2_family"] = (
        "nu_EA(Y) uses e_Y(X-a), not e_Y(X-t); admissibility constraints are"
        " checked as exact base-ring equalities"
    )
    return pair


def build_aps() -> FrobeniusPair:
    """The integral pair with A = Z[X]/(X^2), E = <Y, Z>, YZ = X, nu(1) = Y + Z:
    the rank-2 family at a = 0 with C = D = [[0,1],[1,0]] and e = f = (1,1)."""
    return _rank2_pair(Rank2Params.over(ring(INTEGERS), a=0, c_yy=0, c_yz=1, c_zz=0, d_yy=0,
                                        d_yz=1, d_zz=0, e_y=1, e_z=1, f_y=1, f_z=1), "aps")


def _rank2_pair(p: Rank2Params, name) -> FrobeniusPair:
    """The rank-2 family table at p, under name and with no notes.  E is A/(X - a)
    on Y and Z, so each map between A and E is ev(x) = x(a) = eps((X - a) x): A -> ()
    or X - a: () -> A, composed with one of p's tables C: EE -> (), D, e or f."""
    decl, a = p.a.ring, p.a
    alg = universal_algebra(decl, a + a, -(a * a))
    spec = BasisSpec(alg.labels, ("Y", "Z"), decl)
    maps = _algebra_maps(alg, spec)

    def on_e(yy, yz, zz):  # a symmetric table on E's basis pairs
        return {("Y", "Y"): yy, ("Y", "Z"): yz, ("Z", "Y"): yz, ("Z", "Z"): zz}

    ev = _linmap(spec, word("A"), (), {("1",): {(): decl.one()}, ("X",): {(): a}})
    x_minus_a = _linmap(spec, (), word("A"), {(): {("X",): decl.one(), ("1",): -a}})
    c = _linmap(spec, word("EE"), (), {k: {(): v} for k, v in on_e(p.c_yy, p.c_yz, p.c_zz).items()})
    d = _linmap(spec, (), word("EE"), {(): on_e(p.d_yy, p.d_yz, p.d_zz)})
    e = _linmap(spec, word("E"), (), {("Y",): {(): p.e_y}, ("Z",): {(): p.e_z}})
    f = _linmap(spec, (), word("E"), {(): {("Y",): p.f_y, ("Z",): p.f_z}})
    maps["mu_AE"] = act(LinMap.identity(spec, word("AE")), ev, (0,), ())
    maps["mu_EA"] = _mirror(maps["mu_AE"])
    maps["Delta_AE"] = act(LinMap.identity(spec, word("E")), x_minus_a, (), (0,))
    maps["Delta_EA"] = _mirror(maps["Delta_AE"])
    maps["mu_EEA"] = compose(x_minus_a, c)
    maps["Delta_AEE"] = compose(d, ev)
    maps["nu_AE"] = compose(f, ev)
    maps["nu_EA"] = compose(x_minus_a, e)
    for gname in ("mu_E", "Delta_E", "nu_EE"):
        maps[gname] = LinMap.zero(spec, *SIGNATURE[gname])
    return FrobeniusPair(decl, spec, maps, name=name)


def check_rank2_constraints(p: Rank2Params) -> list:
    """Exact base-ring checks of the four admissibility families.

    D*e = f is the dagger partner of C*f = e: it is forced by the Mobius
    coaction row mob_r4 on the rank-2 table, so the verifier and this checker
    agree exactly.
    """
    two = p.a.ring.const(2)
    violated = []
    if not (p.c_yy * p.f_y + p.c_yz * p.f_z == p.e_y
            and p.c_yz * p.f_y + p.c_zz * p.f_z == p.e_z):
        violated.append("C*f = e")
    if not (p.d_yy * p.e_y + p.d_yz * p.e_z == p.f_y
            and p.d_yz * p.e_y + p.d_zz * p.e_z == p.f_z):
        violated.append("D*e = f")
    if p.e_y * p.f_y + p.e_z * p.f_z != two:
        violated.append("e*f = 2")
    if p.c_yy * p.d_yy + two * p.c_yz * p.d_yz + p.c_zz * p.d_zz != two:
        violated.append("c*d = 2")
    return violated


def build_laurent_sqrt() -> FrobeniusPair:
    """The Laurent square-root pair: k = Z[a^{+-1}, b^{+-1}] with
    h = -2b^{-1}(a - b^{-1}), t = -b^{-2}(a^2 + h), xi = a + bX; the identity
    xi^2 = 2X - h holds symbolically, so the xi^2 = handle check passes."""
    decl = ring(INTEGERS, "a^-1", "b^-1")
    a, b = decl.gen("a"), decl.gen("b")
    b1, b2 = decl.gen("b", -1), decl.gen("b", -2)
    h = decl.const(-2) * b1 * (a - b1)
    t = -b2 * (a * a + h)
    alg = universal_algebra(decl, h, t)
    return build_sqrt(alg, {"1": a, "X": b}, name="laurent-sqrt")


DOUBLE_EXPONENTS = (-1, -2, -2, 1, -1, 0)
#: the names of the six exponents, as `--params` takes them
DOUBLE_KEYS = ("e0", "e1", "e2", "nu0", "nu1", "nu2")


def build_double(alg: FrobeniusAlgebra, phi_inv: dict, exponents=DOUBLE_EXPONENTS,
                 name="double") -> FrobeniusPair:
    """Double-tensor pair: E = A&A with merge-then-resplit structure maps
    scaled by powers of the handle element; comultiplications carry none.
    Each exponent is at most ring.MAX_POWER in absolute value, as phi^k takes
    |k| - 1 products: PairError refuses a larger one before any product."""
    for key, k in zip(DOUBLE_KEYS, exponents):
        if abs(k) > MAX_POWER:
            raise PairError(f"the double exponent {key}={k} is over the limit of {MAX_POWER}")
    e0, e1, e2, n0, n1, n2 = exponents
    phi = alg.handle_vec()
    if alg.mul_vec(phi, phi_inv) != _coords(alg.maps["eta"]):
        raise PairError("phi_inv is not an inverse of the handle element")

    labels = alg.labels
    pairs = {f"{l1}|{l2}": (l1, l2) for l1, l2 in product(labels, labels)}
    spec = BasisSpec(labels, tuple(pairs), alg.ring)
    maps = _algebra_maps(alg, spec)
    one = alg.ring.one()
    # A&A relabelled as E and back: the pair (l1, l2) is the E label "l1|l2"
    pack = LinMap(spec, word("AA"), word("E"),
                  {((e,), ls): one for e, ls in pairs.items()}, _normalized=True)
    unpack = LinMap(spec, word("E"), word("AA"),
                    {(ls, (e,)): one for e, ls in pairs.items()}, _normalized=True)
    mu, delta = maps["mu_A"], maps["Delta_A"]

    # act moves (gen, src, dst) on slot 0: merge takes E to A by multiplying its
    # two factors, resplit takes A to E by Delta_A, times[k] multiplies by phi^k
    merge = ((unpack, (0,), (0, 1)), (mu, (0, 1), (0,)))
    resplit = ((delta, (0,), (0, 1)), (pack, (0, 1), (0,)))
    times = {k: (_times(mu, alg.power_vec(phi, k, phi_inv)), (0,), (0,))
             for k in set(exponents)}
    # EE -> A: the product of all four factors
    merge2 = ((unpack, (1,), (1, 2)), (mu, (1, 2), (1,)), *merge, (mu, (0, 1), (0,)))
    # A -> EE: Delta_A, then Delta_A on each factor, then the middle transposition
    split2 = ((delta, (0,), (0, 1)), (delta, (0,), (0, 1)), (delta, (2,), (2, 3)),
              (None, (1, 2), (2, 1)), (pack, (0, 1), (0,)), (pack, (1, 2), (1,)))
    maps["mu_AE"] = _chain(spec, "AE", (unpack, (1,), (1, 2)), (mu, (0, 1), (0,)),
                           (mu, (0, 1), (0,)), times[e0], *resplit)
    maps["mu_EA"] = _mirror(maps["mu_AE"])
    maps["Delta_AE"] = _chain(spec, "E", *merge, (delta, (0,), (0, 1)),
                              (delta, (1,), (1, 2)), (pack, (1, 2), (1,)))
    maps["Delta_EA"] = _mirror(maps["Delta_AE"])
    maps["mu_EEA"] = _chain(spec, "EE", *merge2, times[e1])
    maps["mu_E"] = _chain(spec, "EE", *merge2, times[e2], *resplit)
    maps["Delta_AEE"] = _chain(spec, "A", *split2)
    maps["Delta_E"] = _chain(spec, "E", *merge, *split2)
    maps["nu_AE"] = _chain(spec, "A", times[n0], *resplit)
    maps["nu_EA"] = _chain(spec, "E", *merge, times[n1])
    maps["nu_EE"] = _chain(spec, "E", *merge, times[n2], *resplit)
    pair = FrobeniusPair(alg.ring, spec, maps, name=name, unit_label=alg.unit_label)
    pair.notes["exponents"] = list(exponents)
    return pair


#: the exponent-sensitive battery that the double construction can satisfy;
#: jointly it pins the canonical tuple uniquely (see search_double_exponents)
DOUBLE_SEARCH_EQUATIONS = (
    "mob_ee_handle",     # fixes e1
    "mob_nu_roundtrip",  # fixes n0 + n1
    "mod_assoc",         # fixes e0
    "cons_3",            # fixes e2 - e0
    "cons_1",            # consistency across e0, e1, e2
    "q_nuEE_square",     # fixes n2 given e2
    "q_dup_l5",          # fixes n0 given e0, e2, n2
)

_EXPONENT_OF_GEN = dict(mu_AE=0, mu_EA=0, mu_EEA=1, mu_E=2, nu_AE=3, nu_EA=4, nu_EE=5)


def search_double_exponents(alg: FrobeniusAlgebra, phi_inv: dict, lo=-3, hi=3) -> list:
    """Every exponent tuple in [lo, hi]^6 whose pair passes the battery, sorted.

    Each battery row only depends on the exponents of the generators it
    mentions.  The exponents are fixed one at a time, each row is checked as
    soon as the last exponent it depends on is fixed, and only the prefixes
    that pass every row checked so far are extended.  Verdicts are memoised
    on each row's exponents; a row is checked on the table of its prefix with
    the unfixed exponents at lo, assembled from at most hi - lo + 1 pairs.
    """
    by_name = {e.name: e for e in load_axioms()}
    rows_at = [[] for _ in range(7)]  # rows decided once that many exponents are fixed
    for name in DOUBLE_SEARCH_EQUATIONS:
        eq = by_name[name]
        deps = sorted({_EXPONENT_OF_GEN[g] for g in eq.generators if g in _EXPONENT_OF_GEN})
        rows_at[deps[-1] + 1 if deps else 0].append((eq, deps, {}))
    read = set().union(*(by_name[name].generators for name in DOUBLE_SEARCH_EQUATIONS))
    built = {}  # exponent value k: the spec and the read maps of the pair at (k,) * 6

    def extend(prefix):
        exps = prefix + (lo,) * (6 - len(prefix))
        for eq, deps, verdicts in rows_at[len(prefix)]:
            key = tuple(exps[j] for j in deps)
            if key not in verdicts:
                verdicts[key] = _check_equation(
                    eq, *_double_table(alg, phi_inv, exps, read, built), {})[0]
            if not verdicts[key]:
                return []
        if len(prefix) == 6:
            return [prefix]
        return [found for x in range(lo, hi + 1) for found in extend(prefix + (x,))]

    return extend(())


def _double_table(alg, phi_inv, exps, names, built):
    """(table, spec) of build_double(alg, phi_inv, exps), cut to the maps names,
    from the pairs at (k,) * 6 that built keeps by k, each built on first need:
    each map of _EXPONENT_OF_GEN from the pair at its exponent, others at exps[0]."""
    for k in set(exps) - built.keys():
        pair = build_double(alg, phi_inv, (k,) * 6)
        built[k] = pair.spec, {n: pair.generator_table()[n] for n in names}
    return {n: built[exps[_EXPONENT_OF_GEN.get(n, 0)]][1][n] for n in names}, built[exps[0]][0]


# -- serialization ----------------------------------------------------------------


def pair_to_json(pair: FrobeniusPair) -> str:
    """Canonical text form; field order and entry order are fixed."""
    obj = {
        "ring": {
            "domain": pair.ring.domain,
            "vars": [{"name": v.name, "invertible": v.invertible} for v in pair.ring.vars],
        },
        "basis": {"A": list(pair.spec.basis_a), "E": list(pair.spec.basis_e)},
        "maps": {},
        "meta": {"name": pair.name, "unit": pair.unit_label,
                 "notes": {k: pair.notes[k] for k in sorted(pair.notes)}},
    }
    for gname in sorted(pair.maps):
        m = pair.maps[gname]
        rows = []
        for t in pair.spec.tuples(m.dom):
            col = m.column(t)
            if not col:
                continue
            rows.append({
                "in": list(t),
                "out": [{"basis": list(o), "coeff": str(col[o])} for o in sorted(col)],
            })
        obj["maps"][gname] = rows
    return json.dumps(obj, indent=2) + "\n"


def load_pair(path) -> FrobeniusPair:
    with open(path, encoding="utf-8") as fh:
        return pair_from_json(fh.read())


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def pair_from_json(text) -> FrobeniusPair:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        raise PairError(f"not a structure file: {exc}") from None
    if not isinstance(obj, dict):
        raise PairError("not a structure file: expected a JSON object")

    def need(d, key, path, kind=None, default=None):
        """d[key] of a dict d, or default if given and key is absent; refused unless of kind."""
        if key not in d:
            if default is None:
                raise PairError(f"missing field {path}.{key}")
            return default
        if kind is not None and not isinstance(d[key], kind):
            raise PairError(f"field {path}.{key} must be {_JSON_KINDS[kind]}")
        return d[key]

    def shown(key):
        """A key as one line of a refusal: as it is if printable, else escaped."""
        return key if key.isprintable() else repr(key)[1:-1]

    def only(d, path, *fields):
        if not isinstance(d, dict):
            raise PairError(f"field {path} must be an object")
        if extra := [key for key in d if key not in fields]:
            raise PairError(f"unknown field {path}.{shown(extra[0])}")
        return d

    def labels(d, key, path):
        value = need(d, key, path, list)
        if not all(isinstance(lab, str) for lab in value):
            raise PairError(f"field {path}.{key} must be a list of strings")
        return tuple(value)

    only(obj, "$", "ring", "basis", "maps", "meta")
    ring_obj = only(need(obj, "ring", "$", dict), "$.ring", "domain", "vars")
    domain = need(ring_obj, "domain", "$.ring")
    var_decls = []
    for i, v in enumerate(need(ring_obj, "vars", "$.ring", list, default=[])):
        only(v, f"$.ring.vars[{i}]", "name", "invertible")
        var_decls.append(VarDecl(need(v, "name", f"$.ring.vars[{i}]", str),
                                 need(v, "invertible", f"$.ring.vars[{i}]", bool, default=False)))
    try:
        decl = RingDecl(domain, tuple(var_decls))
    except RingError as exc:
        raise PairError(f"$.ring: {exc}") from None

    basis = only(need(obj, "basis", "$", dict), "$.basis", "A", "E")
    spec = BasisSpec(labels(basis, "A", "$.basis"), labels(basis, "E", "$.basis"), decl)
    label_ok = {"A": set(spec.basis_a), "E": set(spec.basis_e)}

    raw_maps = need(obj, "maps", "$", dict)
    maps, parsed = {}, {}  # parsed: each distinct coefficient text's element
    for gname in raw_maps:
        if gname not in SIGNATURE:
            raise PairError(f"$.maps: unknown map name {shown(gname)}")
        dom, cod = SIGNATURE[gname]
        entries = {}
        for i, row in enumerate(need(raw_maps, gname, "$.maps", list)):
            path = f"$.maps.{gname}[{i}]"
            t = labels(only(row, path, "in", "out"), "in", path)
            if len(t) != len(dom) or any(lab not in label_ok[s] for lab, s in zip(t, dom)):
                raise PairError(f"signature mismatch for {gname}: bad input tuple {t}")
            for j, term in enumerate(need(row, "out", path, list)):
                o = labels(only(term, f"{path}.out[{j}]", "basis", "coeff"), "basis",
                           f"{path}.out[{j}]")
                if len(o) != len(cod) or any(lab not in label_ok[s] for lab, s in zip(o, cod)):
                    raise PairError(f"signature mismatch for {gname}: bad output tuple {o}")
                text = need(term, "coeff", f"{path}.out[{j}]", str)
                try:
                    c = parsed[text] if text in parsed else parsed.setdefault(text, decl.parse(text))
                except RingError as exc:
                    raise PairError(f"{path}.out[{j}].coeff: {exc}") from None
                if not c.is_zero():
                    entries[(o, t)] = entries.get((o, t), decl.zero()) + c
        maps[gname] = LinMap(spec, dom, cod, entries)

    meta = only(need(obj, "meta", "$", dict, default={}), "$.meta", "name", "unit", "notes")
    try:
        return FrobeniusPair(decl, spec, maps,
                             name=need(meta, "name", "$.meta", str, default="pair"),
                             unit_label=need(meta, "unit", "$.meta", str, default=spec.basis_a[0]),
                             notes=dict(need(meta, "notes", "$.meta", dict, default={})))
    except PairError as exc:  # a file names a given beta or gamma that differs by its field
        raise PairError(f"$.maps.{exc}") if str(exc).split()[0] in DERIVED else exc from None

