"""Dual-route checks of the term evaluator, the cobordism evaluator and the
cube edge maps.

Second interpreters apply terms, cobordism words and edge moves to basis
tuples directly (generator columns spliced into tuples, no matrix
composition, Kronecker products or library placement kernel).  Both routes
must agree entrywise, and the verifier's verdicts and witnesses must match
what the naive route computes.
"""

import importlib.resources
import itertools
import random

from frobpair.cobordism import (
    DIAMOND_CASES,
    MERGE_GEN,
    MOBIUS_GEN,
    SPLIT_GEN,
    CobordismWord,
    evaluate,
    parse_cobordism,
)
from frobpair.cube import edge_map
from frobpair.pair import build_aps, build_it, build_tt, verify
from frobpair.theory import SIGNATURE, evaluate_term, load_axioms, typecheck

from diamonds import labelled_squares
from helpers import random_cube


def naive_apply(term, columns, ring_decl, start):
    """Apply a term to a single basis tuple, layer by layer."""
    _dom, _cod, layer_ins, _moves = typecheck(term)
    one = ring_decl.one()
    vec = {tuple(start): one}
    for layer, _in_word in zip(term, layer_ins):
        out = {}
        for tup, c in vec.items():
            frag_lists = []
            pos = 0
            for item in layer:
                if item in ("id_A", "id_E"):
                    frag_lists.append([((tup[pos],), one)])
                    pos += 1
                elif item == "swap":
                    frag_lists.append([((tup[pos + 1], tup[pos]), one)])
                    pos += 2
                else:
                    k = len(SIGNATURE[item][0])
                    sub = tup[pos:pos + k]
                    pos += k
                    frag_lists.append(list(columns[item].get(sub, {}).items()))
            for combo in itertools.product(*frag_lists):
                out_t = tuple(x for frag, _ in combo for x in frag)
                coeff = c
                for _, v in combo:
                    coeff = coeff * v
                s = out.get(out_t)
                out[out_t] = coeff if s is None else s + coeff
        vec = {t: v for t, v in out.items() if not v.is_zero()}
    return vec


def column_table(pair):
    cols = {}
    for name, m in pair.generator_table().items():
        table = {}
        for (o, t), v in m.entries.items():
            table.setdefault(t, {})[o] = v
        cols[name] = table
    return cols


def check_pair(pair):
    columns = column_table(pair)
    eqs = [e for e in load_axioms() if e.generators <= set(columns)]
    report = {r.name: r for r in verify(pair, load_axioms()).records}
    assert eqs
    for eq in eqs:
        dom, _cod, _, _ = typecheck(eq.lhs)
        differing = []
        for start in pair.spec.tuples(dom):
            lhs_direct = naive_apply(eq.lhs, columns, pair.ring, start)
            rhs_direct = naive_apply(eq.rhs, columns, pair.ring, start)
            lhs_map = evaluate_term(eq.lhs, pair.generator_table(), pair.spec)
            rhs_map = evaluate_term(eq.rhs, pair.generator_table(), pair.spec)
            assert lhs_map.column(start) == lhs_direct, (eq.name, start)
            assert rhs_map.column(start) == rhs_direct, (eq.name, start)
            if lhs_direct != rhs_direct:
                differing.append(start)
        record = report[eq.name]
        assert (record.status == "fail") == bool(differing), eq.name
        if differing:
            # the witness is the lexicographically first differing input
            assert record.witness[0] == min(differing), eq.name


def test_naive_interpreter_agrees_on_aps():
    check_pair(build_aps())


def test_naive_interpreter_agrees_on_tt():
    check_pair(build_tt())


def test_naive_interpreter_agrees_on_it_including_witnesses():
    check_pair(build_it())


# -- cobordism words ----------------------------------------------------------------

#: circles an event consumes from the running word
EVENT_WIDTH = {"birth": 0, "death": 1, "merge": 2, "split": 1, "mobius": 1, "swap": 2}


def naive_event(ev, w):
    """(generator, sorts written) of an event on the running word w, read
    straight from the generator tables; the generator is None for a swap."""
    p = ev.pos - 1
    if ev.kind == "swap":
        return None, (w[p + 1], w[p])
    if ev.kind == "birth":
        return "eta", ("A",)
    if ev.kind == "death":
        assert w[p] == "A"
        return "eps", ()
    table = {"merge": MERGE_GEN, "split": SPLIT_GEN, "mobius": MOBIUS_GEN}[ev.kind]
    return table[tuple(w[p:p + EVENT_WIDTH[ev.kind]]) + tuple(ev.sorts)], tuple(ev.sorts)


def naive_run(cob, pair, columns, start):
    """Apply a cobordism word to a single basis tuple, event by event,
    tracking the running word itself."""
    one = pair.ring.one()
    vec = {tuple(start): one}
    w = tuple(cob.input)
    for ev in cob.events:
        p, width = ev.pos - 1, EVENT_WIDTH[ev.kind]
        gen, written = naive_event(ev, w)
        w = w[:p] + written + w[p + width:]
        out = {}
        for t, c in vec.items():
            body = t[p:p + width]
            images = {body[::-1]: one} if gen is None else columns[gen].get(body, {})
            for o, v in images.items():
                key = t[:p] + o + t[p + width:]
                s = out.get(key)
                out[key] = c * v if s is None else s + c * v
        vec = {t: v for t, v in out.items() if not v.is_zero()}
    assert w == cob.words[-1]
    return vec


def diamond_words(cases):
    """The four cobordism words of every square the exchange suite compares."""
    for _name, *paths in labelled_squares(cases):
        for (start, first), (_middle, second) in paths:
            yield CobordismWord(start, first + second)


def test_naive_event_interpreter_agrees_on_diamond_words():
    torus = parse_cobordism(importlib.resources.files("frobpair")
                            .joinpath("data/torus.cob").read_text())
    cases = DIAMOND_CASES[:5] + [c for c in DIAMOND_CASES if c[0] == "case08_crossed_bridges"]
    words = [torus] + list(diamond_words(cases))
    assert {ev.kind for cob in words for ev in cob.events} == \
        {"birth", "death", "merge", "split", "swap", "mobius"}
    for pair in (build_aps(), build_tt()):
        columns = column_table(pair)
        for cob in words:
            m = evaluate(cob, pair)
            for start in pair.spec.tuples(cob.input):
                assert m.column(start) == naive_run(cob, pair, columns, start), \
                    (pair.name, cob.events, start)


# -- cube edge maps -------------------------------------------------------------------


def naive_edge_map(cube, pair, columns, b, k):
    """Entries of the edge map on (b, k), one input basis tuple at a time."""
    move = cube.edges[(b, k)]
    w_in = cube.vertices[b]
    if move.kind == "merge":
        sources = tuple(sorted((move.i, move.j)))
        gen = MERGE_GEN[(w_in[sources[0] - 1], w_in[sources[1] - 1], move.sorts[0])]
    else:
        sources = (move.i,)
        gen = SPLIT_GEN[(w_in[move.i - 1],) + tuple(move.sorts)]
    n_out = len(w_in) - len(sources) + len(move.outs)
    untouched = [p for p in range(1, len(w_in) + 1) if p not in sources]
    free = [p for p in range(1, n_out + 1) if p not in move.outs]
    entries = {}
    for t in pair.spec.tuples(w_in):
        for produced, c in columns[gen].get(tuple(t[p - 1] for p in sources), {}).items():
            o = [None] * n_out
            for slot, label in zip(move.outs, produced):
                o[slot - 1] = label
            for src, slot in zip(untouched, free):
                o[slot - 1] = t[src - 1]
            entries[(tuple(o), t)] = c
    return entries


def test_naive_edge_maps_agree_on_random_cubes():
    rng = random.Random(4242)
    seen = set()
    for pair in (build_aps(), build_tt()):
        columns = column_table(pair)
        for _ in range(12):
            cube = random_cube(rng)
            for (b, k), move in cube.edges.items():
                assert edge_map(cube, pair, b, k).entries == \
                    naive_edge_map(cube, pair, columns, b, k), (pair.name, b, k, move)
                if move.kind == "merge" and abs(move.i - move.j) > 1:
                    seen.add("non-adjacent merge")
                if move.kind == "split" and move.outs[0] > move.outs[1]:
                    seen.add("reordered split")
    assert seen == {"non-adjacent merge", "reordered split"}
