import itertools
import random
from fractions import Fraction

import pytest

from frobpair import tensor as tensor_mod
from frobpair.cli import build_builtin
from frobpair.pair import verify
from frobpair.ring import INTEGERS, MOD2, RATIONALS, ring
from frobpair.tensor import (
    BasisSpec,
    LinMap,
    TensorError,
    act,
    compose,
    equal,
    tensor,
    word,
)
from frobpair.theory import load_axioms

from helpers import product_by_multiplying, rank2_at_a1

Z = ring(INTEGERS)
SPEC = BasisSpec(("1", "X"), ("Y", "Z"), Z)
ONE = Z.one()


def aps_mu_a():
    # truncated polynomial multiplication, X^2 = 0
    return LinMap(SPEC, word("AA"), word("A"),
                  {(("1",), ("1", "1")): ONE, (("X",), ("1", "X")): ONE,
                   (("X",), ("X", "1")): ONE})


def aps_delta_a():
    return LinMap(SPEC, word("A"), word("AA"),
                  {(("1", "X"), ("1",)): ONE, (("X", "1"), ("1",)): ONE,
                   (("X", "X"), ("X",)): ONE})


def aps_eta():
    return LinMap(SPEC, (), word("A"), {(("1",), ()): ONE})


def aps_eps():
    return LinMap(SPEC, word("A"), (), {((), ("X",)): ONE})


def transposition(w, i):
    """Swap tensor factors i and i+1 (1-based) of the word w."""
    return act(LinMap.identity(SPEC, w), None, (i - 1, i), (i, i - 1))


def test_basis_specs_are_values():
    # act's spec test and FrobeniusPair's mismatch check take a spec built again
    again = BasisSpec(("1", "X"), ("Y", "Z"), ring(INTEGERS))
    assert again is not SPEC and again == SPEC and hash(again) == hash(SPEC)
    assert again != BasisSpec(("1", "X"), ("Z", "Y"), Z)
    assert again != BasisSpec(("1", "X"), ("Y", "Z"), ring(RATIONALS))
    assert again != (("1", "X"), ("Y", "Z"), Z)
    mu = aps_mu_a()
    assert equal(act(LinMap.identity(again, word("AA")), mu, (0, 1), (0,)), mu)[0]
    with pytest.raises(TensorError, match="^both sorts need a nonempty basis$"):
        BasisSpec(("1",), (), Z)
    with pytest.raises(TensorError, match="^duplicate basis labels within a sort$"):
        BasisSpec(("1", "1"), ("Y",), Z)


def test_compose_identity():
    mu = aps_mu_a()
    assert equal(compose(LinMap.identity(SPEC, word("A")), mu), mu)[0]
    assert equal(compose(mu, LinMap.identity(SPEC, word("AA"))), mu)[0]


def test_compose_eps_eta_is_zero_scalar():
    # counit of the unit: eps(1) = 0 in the truncated algebra
    composite = compose(aps_eps(), aps_eta())
    assert not composite.entries
    assert composite.dom == () and composite.cod == ()


def test_handle_operator_on_unit():
    # mu(Delta(1)) = 2X, expanded by hand from Delta(1) = 1&X + X&1
    handle = compose(aps_mu_a(), aps_delta_a())
    assert handle.column(("1",)) == {("X",): Z.const(2)}


def test_tensor_of_identities():
    lhs = tensor(LinMap.identity(SPEC, word("A")), LinMap.identity(SPEC, word("E")))
    assert equal(lhs, LinMap.identity(SPEC, word("AE")))[0]


def test_tensor_dimension_count():
    mu = aps_mu_a()
    t = tensor(mu, mu)
    assert t.dom == word("AAAA") and t.cod == word("AA")
    # 2x2 entry table squared: 4x4 table means up to 16 nonzero slots; count matches product rule
    assert len(t.entries) == len(mu.entries) ** 2


def test_transposition_swaps_tuples():
    tau = transposition(word("AA"), 1)
    assert tau.column(("1", "X")) == {("X", "1"): ONE}
    assert equal(compose(tau, tau), LinMap.identity(SPEC, word("AA")))[0]


def test_transposition_sort_bookkeeping():
    tau = transposition(word("AE"), 1)
    assert tau.cod == word("EA")
    with pytest.raises(TensorError, match="out of range"):
        transposition(word("AE"), 2)


def test_equal_reflexive_and_witness():
    mu, delta = aps_mu_a(), aps_delta_a()
    assert equal(mu, mu) == (True, None)
    handle = compose(mu, delta)
    ok, witness = equal(LinMap.identity(SPEC, word("A")), handle)
    assert not ok
    t, lhs_col, rhs_col = witness
    assert t == ("1",)
    assert lhs_col == {("1",): Z.one()}
    assert rhs_col == {("X",): Z.const(2)}


def test_equal_shape_witness():
    ok, witness = equal(aps_mu_a(), aps_delta_a())
    assert not ok and witness[0] == "shape"


def test_apply_identity():
    identity = LinMap.identity(SPEC, word("AA"))
    assert all(identity.column(t) == {t: ONE} for t in SPEC.tuples(word("AA")))
    assert len(identity.entries) == SPEC.dim(word("AA"))


def random_map(rng, spec, dom, cod):
    entries = {}
    for t in spec.tuples(dom):
        for o in spec.tuples(cod):
            if rng.random() < 0.4:
                c = rng.randint(-3, 3)
                if c:
                    entries[(o, t)] = spec.ring.const(c)
    return LinMap(spec, dom, cod, entries)


WORDS = [(), word("A"), word("E"), word("AE"), word("AA")]


def test_interchange_law():
    rng = random.Random(2024)
    for _ in range(60):
        w1, w2, w3 = (WORDS[rng.randrange(len(WORDS))] for _ in range(3))
        u1, u2, u3 = (WORDS[rng.randrange(len(WORDS))] for _ in range(3))
        f = random_map(rng, SPEC, w1, w2)
        g = random_map(rng, SPEC, w2, w3)
        f2 = random_map(rng, SPEC, u1, u2)
        g2 = random_map(rng, SPEC, u2, u3)
        lhs = compose(tensor(g, g2), tensor(f, f2))
        rhs = tensor(compose(g, f), compose(g2, f2))
        assert equal(lhs, rhs)[0]


def test_compose_and_tensor_associativity():
    rng = random.Random(11)
    for _ in range(60):
        w = [WORDS[rng.randrange(len(WORDS))] for _ in range(4)]
        f = random_map(rng, SPEC, w[0], w[1])
        g = random_map(rng, SPEC, w[1], w[2])
        h = random_map(rng, SPEC, w[2], w[3])
        assert equal(compose(h, compose(g, f)), compose(compose(h, g), f))[0]
        assert equal(tensor(f, tensor(g, h)), tensor(tensor(f, g), h))[0]


def test_braid_relation():
    for w3 in [word("AAA"), word("AEA"), word("EEA"), word("EEE")]:
        t1 = transposition(w3, 1)
        # tau_2 acts on whatever word tau_1 produced
        lhs = compose(transposition(compose(transposition(t1.cod, 2), t1).cod, 1),
                      compose(transposition(t1.cod, 2), t1))
        t2 = transposition(w3, 2)
        rhs = compose(transposition(compose(transposition(t2.cod, 1), t2).cod, 2),
                      compose(transposition(t2.cod, 1), t2))
        assert equal(lhs, rhs)[0]


def test_act_matches_kronecker_layer():
    # a generator on contiguous slots is (id (x) gen (x) id) after f
    rng = random.Random(5)
    for _ in range(60):
        left, right, gdom, gcod, fdom = (WORDS[rng.randrange(len(WORDS))] for _ in range(5))
        f = random_map(rng, SPEC, fdom, left + gdom + right)
        g = random_map(rng, SPEC, gdom, gcod)
        p = len(left)
        layer = tensor(tensor(LinMap.identity(SPEC, left), g), LinMap.identity(SPEC, right))
        got = act(f, g, range(p, p + len(gdom)), range(p, p + len(gcod)))
        assert equal(got, compose(layer, f))[0]


def test_act_places_outputs_and_keeps_the_rest_in_order():
    one = Z.one()
    # mu_A reads slots 2 and 0 of A E A (in that order) and writes slot 1 of E A
    merged = act(LinMap.identity(SPEC, word("AEA")), aps_mu_a(), (2, 0), (1,))
    assert merged.cod == word("EA")
    assert merged.column(("X", "Y", "1")) == {("Y", "X"): one}
    assert merged.column(("X", "Y", "X")) == {}
    # Delta_A's first output goes to slot 2, its second to slot 0
    split = act(LinMap.identity(SPEC, word("AE")), aps_delta_a(), (0,), (2, 0))
    assert split.cod == word("AEA")
    assert split.column(("X", "Z")) == {("X", "Z", "X"): one}
    # a pure move: the factor at slot 0 goes to slot 2
    moved = act(LinMap.identity(SPEC, word("AEE")), None, (0,), (2,))
    assert moved.cod == word("EEA")
    assert moved.column(("X", "Y", "Z")) == {("Y", "Z", "X"): one}


def test_act_rejects_bad_slots():
    ae = LinMap.identity(SPEC, word("AE"))
    with pytest.raises(TensorError, match="word mismatch"):
        act(ae, aps_mu_a(), (0, 1), (0,))
    with pytest.raises(TensorError, match="out of range"):
        act(ae, aps_mu_a(), (0, 2), (0,))
    with pytest.raises(TensorError, match="do not fit"):
        act(LinMap.identity(SPEC, word("AA")), aps_mu_a(), (0, 1), (1,))


def test_word_mismatch_raises():
    with pytest.raises(TensorError, match="word mismatch"):
        compose(aps_mu_a(), aps_mu_a())


def test_empty_word_has_one_tuple():
    assert list(SPEC.tuples(())) == [()]
    assert SPEC.dim(()) == 1


# -- products by 1 ------------------------------------------------------------------

ORACLE_RINGS = (Z, ring(RATIONALS), ring(MOD2), ring(INTEGERS, "t^-1"))


def entry_pool(d):
    """Nonzero entries: 1 as an int and as a Fraction, -1, and non-constants."""
    halves = (Fraction(1, 2),) if d.domain == RATIONALS else ()
    pool = [d.const(c) for c in (1, Fraction(1), -1, 2, -3, *halves)]
    if d.vars:
        pool += [d.parse("t"), d.parse("t^-1 - 2"), d.parse("1 - t")]
    return [c for c in pool if not c.is_zero()]


def pooled_map(rng, spec, dom, cod, pool):
    entries = {(o, t): rng.choice(pool) for t in spec.tuples(dom) for o in spec.tuples(cod)
               if rng.random() < 0.5}
    return LinMap(spec, dom, cod, entries, _normalized=True)


def with_cancelling_pair(rng, g, f, pool):
    """g, f and a key of g*f whose entry is two products that cancel."""
    row, col = rng.choice(list(g.spec.tuples(g.cod))), rng.choice(list(f.spec.tuples(f.dom)))
    m1, m2 = rng.sample(list(g.spec.tuples(g.dom)), 2)
    a, b = rng.choice(pool), rng.choice(pool)
    g_entries = {k: v for k, v in g.entries.items() if k[0] != row}
    g_entries.update({(row, m1): a, (row, m2): a})
    f_entries = {**f.entries, (m1, col): b, (m2, col): -b}
    return (LinMap(g.spec, g.dom, g.cod, g_entries, _normalized=True),
            LinMap(f.spec, f.dom, f.cod, f_entries, _normalized=True), (row, col))


def layer_entries(spec, w, gen, src, dst):
    """The entries of gen at the slots src of w, written to the slots dst,
    with the other factors kept in order: the matrix act applies after f."""
    n_out = len(w) - len(src) + len(dst)
    entries = {}
    for t in spec.tuples(w):
        rest = [t[p] for p in range(len(w)) if p not in src]
        for (o, i), v in gen.entries.items():
            if i == tuple(t[p] for p in src):
                out = dict(zip(dst, o))
                kept = iter(rest)
                entries[(tuple(out[q] if q in out else next(kept) for q in range(n_out)), t)] = v
    return entries


def test_compose_and_act_match_the_multiplying_oracle():
    rng = random.Random(17)
    words = [word("A"), word("E"), word("AE"), word("AA"), word("EAE")]
    for d in ORACLE_RINGS:
        spec, pool = BasisSpec(("1", "X"), ("Y", "Z"), d), entry_pool(d)
        for _ in range(40):
            dom, mid, cod = (rng.choice(words) for _ in range(3))
            g, f, key = with_cancelling_pair(rng, pooled_map(rng, spec, mid, cod, pool),
                                             pooled_map(rng, spec, dom, mid, pool), pool)
            want = product_by_multiplying(g.entries, f.entries)
            for got in (compose(g, f), act(f, g, range(len(mid)), range(len(cod)))):
                assert got.entries == want and key not in want
                assert all(not v.is_zero() for v in got.entries.values())
            # a generator on random slots of f's codomain, outputs at random slots
            src = tuple(rng.sample(range(len(mid)), rng.randint(0, min(2, len(mid)))))
            gcod = rng.choice([(), *words[:4]])
            dst = tuple(rng.sample(range(len(mid) - len(src) + len(gcod)), len(gcod)))
            gen = pooled_map(rng, spec, tuple(mid[p] for p in src), gcod, pool)
            got = act(f, gen, src, dst)
            want = product_by_multiplying(layer_entries(spec, mid, gen, src, dst), f.entries)
            assert got.entries == want and all(not v.is_zero() for v in got.entries.values())


def test_tensor_matches_the_kronecker_oracle():
    # tensor is two acts on an identity; the oracle multiplies every pair of entries
    rng = random.Random(31)
    for d in ORACLE_RINGS:
        spec, pool = BasisSpec(("1", "X"), ("Y", "Z"), d), entry_pool(d)
        for _ in range(20):
            f, g = (pooled_map(rng, spec, rng.choice(WORDS), rng.choice(WORDS), pool)
                    for _ in range(2))
            want = {(o1 + o2, i1 + i2): v1 * v2 for (o1, i1), v1 in f.entries.items()
                    for (o2, i2), v2 in g.entries.items()}
            got = tensor(f, g)
            assert (got.dom, got.cod) == (f.dom + g.dom, f.cod + g.cod)
            assert got.entries == {k: v for k, v in want.items() if not v.is_zero()}


def test_act_and_compose_refuse_mixed_rings():
    # same labels over another RingDecl: products by 1 never reach the ring
    # check, so the spec check is what keeps the rings apart
    mu = aps_mu_a()
    for other in (ring(RATIONALS), ring(INTEGERS, "t^-1")):
        spec = BasisSpec(SPEC.basis_a, SPEC.basis_e, other)
        with pytest.raises(TensorError, match="basis-spec mismatch"):
            compose(LinMap.identity(spec, word("A")), mu)
        with pytest.raises(TensorError, match="basis-spec mismatch"):
            compose(mu, LinMap.identity(spec, word("AA")))
        with pytest.raises(TensorError, match="basis-spec mismatch"):
            act(LinMap.identity(spec, word("AA")), mu, (0, 1), (0,))
        for f, g in ((LinMap.identity(spec, word("A")), mu), (mu, LinMap.identity(spec, word("A")))):
            with pytest.raises(TensorError, match="basis-spec mismatch"):
                tensor(f, g)  # two acts: a mismatch on either is refused


# -- move plans and column indices ----------------------------------------------------

def test_act_refusals_read_the_same_on_a_cold_and_a_warm_plan_cache():
    # the plan cache keeps no refusal: each one raises its own text every time,
    # whether or not a valid move on the same word was planned before it
    mu, delta = aps_mu_a(), aps_delta_a()
    other = BasisSpec(SPEC.basis_a, SPEC.basis_e, ring(RATIONALS))
    ae, aa = LinMap.identity(SPEC, word("AE")), LinMap.identity(SPEC, word("AA"))
    refusals = [
        (ae, mu, (0, 2), (0,), "source slots (0, 2) out of range for word ('A', 'E')"),
        (ae, mu, (0, -1), (0,), "source slots (0, -1) out of range for word ('A', 'E')"),
        (ae, mu, (0, 1), (0,), "word mismatch: ('A', 'A') at slots (0, 1) of ('A', 'E')"),
        (aa, mu, (0, 1), (1,), "target slots (1,) do not fit the image of slots (0, 1) "
                               "of ('A', 'A')"),
        (aa, delta, (0,), (0, 0), "target slots (0, 0) do not fit the image of slots (0,) "
                                  "of ('A', 'A')"),
        (aa, None, (0, 1), (0,), "target slots (0,) do not fit the image of slots (0, 1) "
                                 "of ('A', 'A')"),
        (LinMap.identity(other, word("AA")), mu, (0, 1), (0,), "basis-spec mismatch"),
        # out of range is named before a spec mismatch, as it always was
        (LinMap.identity(other, word("AA")), mu, (0, 5), (0,),
         "source slots (0, 5) out of range for word ('A', 'A')"),
    ]
    valid = {word("AE"): (None, (0, 1), (1, 0)), word("AA"): (mu, (0, 1), (0,))}
    for f, gen, src, dst, text in refusals:
        tensor_mod.move_plan.cache_clear()
        with pytest.raises(TensorError) as cold:
            act(f, gen, src, dst)
        good = valid[f.cod]
        act(LinMap.identity(SPEC, f.cod), *good)
        act(LinMap.identity(SPEC, f.cod), *good)
        for _ in range(2):
            with pytest.raises(TensorError) as warm:
                act(f, gen, src, dst)
            assert str(warm.value) == str(cold.value) == text
        assert tensor_mod.move_plan.cache_info().currsize == 1


def test_a_second_verify_of_the_same_pair_plans_no_new_move():
    pair, axioms = build_builtin("rank2", {}), load_axioms()
    first = verify(pair, axioms)
    before = tensor_mod.move_plan.cache_info()
    second = verify(pair, axioms)
    after = tensor_mod.move_plan.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert [(r.name, r.status) for r in first.records] == \
        [(r.name, r.status) for r in second.records]


def test_columns_group_the_entries_by_input_tuple():
    rng = random.Random(29)
    for d in ORACLE_RINGS:
        spec, pool = BasisSpec(("1", "X"), ("Y", "Z"), d), entry_pool(d)
        for dom, cod in ((word("AA"), word("A")), (word("E"), word("AE")), ((), word("A")),
                         (word("A"), ())):
            m = pooled_map(rng, spec, dom, cod, pool)
            grouped = {}
            for (o, t), v in m.entries.items():
                grouped.setdefault(t, {})[o] = v
            columns = m.columns()
            assert {t: {o: v for o, v, _ in col} for t, col in columns.items()} == grouped
            assert all(one == (v == d.one()) for col in columns.values() for _, v, one in col)
            assert m.columns() is columns  # built once
            assert all(m.column(t) == grouped.get(t, {}) for t in spec.tuples(dom))


def test_act_matches_the_multiplying_oracle_on_unit_zero_and_other_entries():
    # generators whose entries are 1, -1, 0 (dropped when the map is made) and
    # other values; each generator acts twice, the second time on a built index
    rng = random.Random(31)
    words = [word("A"), word("E"), word("AE"), word("AA"), word("EAE")]
    for d in ORACLE_RINGS:
        spec = BasisSpec(("1", "X"), ("Y", "Z"), d)
        pool = entry_pool(d)
        gen_pool = [d.one(), -d.one(), d.zero(), d.zero(), *pool]
        for _ in range(25):
            mid = rng.choice(words)
            src = tuple(rng.sample(range(len(mid)), rng.randint(0, min(2, len(mid)))))
            gcod = rng.choice([(), *words[:4]])
            dst = tuple(rng.sample(range(len(mid) - len(src) + len(gcod)), len(gcod)))
            gdom = tuple(mid[p] for p in src)
            gen = LinMap(spec, gdom, gcod, {(o, t): rng.choice(gen_pool)
                                            for t in spec.tuples(gdom)
                                            for o in spec.tuples(gcod)})
            assert all(not v.is_zero() for v in gen.entries.values())
            layer = layer_entries(spec, mid, gen, src, dst)
            for dom in rng.sample(words, 2):
                f = pooled_map(rng, spec, dom, mid, pool)
                got = act(f, gen, src, dst)
                assert got.entries == product_by_multiplying(layer, f.entries)
                assert all(not v.is_zero() for v in got.entries.values())


# -- a chain's first move -----------------------------------------------------------

def first_move_cases(table, w):
    """Every legal (gen, src, dst) on the word w: each generator of table at
    every ordered choice of slots that holds its domain, to every choice of
    target slots, and each reordering of every choice of slots."""
    for gen in (None, *table.values()):
        for src in itertools.chain.from_iterable(
                itertools.permutations(range(len(w)), k)
                for k in ((len(gen.dom),) if gen else range(len(w) + 1))):
            if gen and tuple(w[p] for p in src) != gen.dom:
                continue
            width = len(w) - len(src) + (len(gen.cod) if gen else len(src))
            for dst in itertools.permutations(range(width), len(gen.cod) if gen else len(src)):
                yield gen, src, dst


def test_first_move_on_an_identity_matches_act_on_its_entries():
    # act places a move on LinMap.identity without the identity's entries;
    # the same move on a plain map with those entries takes act's general
    # path, and both give the same entries in the same order, or the same
    # refusal, on seeded words of up to four circles
    rng = random.Random(38)
    pairs = [build_builtin(name, {}) for name in ("aps", "tt", "sqrt", "double")]
    moves, refusals = 0, set()
    for p in (*pairs, rank2_at_a1()):
        table = p.generator_table()
        for n in (0, 1, 2, 3, 3, 4):
            w = tuple(rng.choice("AE") for _ in range(n))
            plain = LinMap(p.spec, w, w, dict(LinMap.identity(p.spec, w).entries))
            assert type(plain) is LinMap
            for gen, src, dst in first_move_cases(table, w):
                got = act(LinMap.identity(p.spec, w), gen, src, dst)
                want = act(plain, gen, src, dst)
                assert (got.dom, got.cod) == (want.dom, want.cod)
                assert list(got.entries.items()) == list(want.entries.items()), (gen, src, dst)
                moves += 1
            for gen in table.values():
                bad = [tuple(range(len(gen.dom) - 1)) + (n,)] if gen.dom else []
                if len(gen.dom) <= n and tuple(w[:len(gen.dom)]) != gen.dom:
                    bad.append(tuple(range(len(gen.dom))))
                for src in bad:
                    texts = []
                    for f in (LinMap.identity(p.spec, w), plain):
                        with pytest.raises(TensorError) as refused:
                            act(f, gen, src, tuple(range(len(gen.cod))))
                        texts.append(str(refused.value))
                    assert texts[0] == texts[1]
                    refusals.add(texts[0].split(" ")[0])
    assert moves > 1000 and refusals == {"source", "word"}, (moves, refusals)
