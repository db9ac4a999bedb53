import importlib.resources
import itertools
import json
import random
from collections import Counter

import pytest

from frobpair.cobordism import (
    DIAMOND_CASES,
    MERGE_GEN,
    MOBIUS_GEN,
    MOVES,
    SPLIT_GEN,
    CobordismError,
    CobordismWord,
    Move,
    compare_squares,
    diamond_exchange_suite,
    evaluate,
    event,
    interpret,
    parse_cobordism,
    pole_degree,
    square_plan,
    _interchanged,
)
from frobpair.cli import build_builtin, main
from frobpair.cube import check_d_squared
from frobpair.pair import (
    FrobeniusPair,
    build_aps,
    build_it,
    build_laurent_sqrt,
    build_tt,
    universal_algebra,
    _algebra_maps,
)
from frobpair.ring import INTEGERS, ring
from frobpair.tensor import (MAX_CIRCLES, MAX_TUPLES, BasisSpec, LinMap, TensorError, act, compose,
                             equal, word)
from frobpair.theory import SIGNATURE
from diamonds import build_diamonds, labelled_squares, numbered_squares, step


def universal_pair():
    decl = ring(INTEGERS, "h", "t")
    alg = universal_algebra(decl, decl.gen("h"), decl.gen("t"))
    spec = BasisSpec(("1", "X"), ("1", "X"), decl)
    return FrobeniusPair(decl, spec, _algebra_maps(alg, spec), name="universal")


# -- parsing ---------------------------------------------------------------------


def test_parse_simple_death():
    cob = parse_cobordism("input A\ndeath 1")
    assert cob.input == word("A") and cob.words[-1] == ()


def test_parse_ee_merge_both_outputs():
    for out in ("E", "A"):
        cob = parse_cobordism(f"input E E\nmerge 1 {out}")
        assert cob.words[-1] == word(out)


def test_parse_illegal_merge():
    with pytest.raises(CobordismError, match="no generator for AA->E"):
        parse_cobordism("input A A\nmerge 1 E")


def test_parse_position_out_of_range():
    with pytest.raises(CobordismError, match="out of range"):
        parse_cobordism("input A\nmerge 1 A")


def test_parse_event_arity():
    for text in ("input A\nsplit 1 A", "input A A\nmerge 1", "input A\ndeath 1 2",
                 "input A\nsplit 1 A A A"):
        with pytest.raises(CobordismError, match="line 2: malformed event"):
            parse_cobordism(text)


def test_events_and_words_take_their_arguments():
    # event() reads a 1-based position into Move slots: sources from it, outputs in their place
    assert Move("birth", (), (0,), ("A",)) == event("birth", 1, ("A",))
    assert hash(Move("birth", (), (0,), ("A",))) == hash(event("birth", 1, "A"))
    assert Move(kind="death", src=(1,), dst=()) == event("death", 2) and event("death", 2).sorts == ()
    assert event("split", 1, "EE") == Move("split", (0,), (0, 1), ("E", "E"))
    assert event("merge", 2, "A") == Move("merge", (1, 2), (1,), ("A",))
    assert event("mobius", 3, "E") == Move("mobius", (2,), (2,), ("E",))
    assert event("swap", 2) == Move("swap", (1, 2), (2, 1))
    events = [event("swap", 1), Move("merge", (0, 1), (0,), ("E",))]
    cob = CobordismWord(word("AE"), events)
    assert cob.input == word("AE") and cob.events == events and cob.events is not events
    assert cob.words == [word("AE"), word("EA"), word("E")] and len(cob.moves) == 2
    with pytest.raises(TypeError):
        CobordismWord(word("A"), [], words=[])


def test_parse_running_words():
    cob = parse_cobordism("input A E\nswap 1\nmerge 1 E\nmobius 1 A")
    assert cob.words == [word("AE"), word("EA"), word("E"), word("A")]


# -- evaluation ------------------------------------------------------------------


def test_cylinder_is_identity():
    pair = build_aps()
    cob = parse_cobordism("input A")
    assert equal(evaluate(cob, pair), LinMap.identity(pair.spec, word("A")))[0]


def test_sphere_scalar_zero():
    pair = universal_pair()
    cob = parse_cobordism("input\nbirth 1\ndeath 1")
    m = evaluate(cob, pair)
    assert m.dom == () and m.cod == () and not m.entries


def test_torus_scalar_two():
    # birth, split, merge, death = eps(mu(Delta(1))) = eps(2X - h) = 2
    pair = universal_pair()
    cob = parse_cobordism("input\nbirth 1\nsplit 1 A A\nmerge 1 A\ndeath 1")
    m = evaluate(cob, pair)
    assert m.column(()) == {(): pair.ring.const(2)}


def test_missing_generator_in_partial_pair():
    pair = build_it(strict_partial=True)
    cob = parse_cobordism("input E E\nmerge 1 E")
    with pytest.raises(CobordismError, match="missing generator mu_E"):
        evaluate(cob, pair)


def test_functoriality_on_random_words():
    rng = random.Random(31)
    pair = build_aps()
    made = 0
    while made < 40:
        w = tuple(rng.choice("AE") for _ in range(rng.randint(1, 3)))
        events = random_events(rng, w, 4)
        if events is None:
            continue
        cob = CobordismWord(w, events)
        k = rng.randint(0, len(events))
        first = CobordismWord(w, events[:k])
        second = CobordismWord(first.words[-1], events[k:])
        lhs = evaluate(cob, pair)
        rhs = compose(evaluate(second, pair), evaluate(first, pair))
        assert equal(lhs, rhs)[0]
        made += 1


def random_events(rng, w, n):
    events = []
    current = w
    for _ in range(n):
        choices = []
        for p in range(1, len(current) + 1):
            choices.append(event("birth", p, "A"))
            if current[p - 1] == "A":
                choices.append(event("death", p))
            for s in ("A", "E"):
                choices.append(event("mobius", p, s))
                for s2 in ("A", "E"):
                    choices.append(event("split", p, (s, s2)))
            if p < len(current):
                choices.append(event("swap", p))
                for s in ("A", "E"):
                    choices.append(event("merge", p, s))
        choices.append(event("birth", len(current) + 1, "A"))
        rng.shuffle(choices)
        for ev in choices:
            try:
                _, current = step(current, ev)
            except CobordismError:
                continue
            events.append(ev)
            break
        else:
            return None
    return events


def test_far_commutativity():
    # events acting on disjoint position ranges commute
    rng = random.Random(77)
    pair = build_aps()
    checked = 0
    while checked < 30:
        w = tuple(rng.choice("AE") for _ in range(rng.randint(4, 5)))
        evs = random_events(rng, w, 2)
        if evs is None:
            continue
        e1, e2 = evs
        pos1, pos2 = (min(e.src + e.dst) + 1 for e in evs)  # each event's 1-based position
        span1 = {pos1, pos1 + (1 if e1.kind in ("merge", "swap") else 0)}
        # positions of e2 in the intermediate word; require a gap so that the
        # second event also makes sense first, shifted back appropriately
        if e1.kind in ("birth", "split"):
            shift = 1
        elif e1.kind in ("death", "merge"):
            shift = -1
        else:
            shift = 0
        if pos2 <= max(span1) + 1:
            continue
        moved = event(e2.kind, pos2 - shift, e2.sorts)
        try:
            other = CobordismWord(w, [moved, e1])
        except CobordismError:
            continue
        one = CobordismWord(w, [e1, e2])
        if one.words[-1] != other.words[-1]:
            continue
        assert equal(evaluate(one, pair), evaluate(other, pair))[0]
        checked += 1


# -- pole degree -----------------------------------------------------------------


def test_pole_degree_examples():
    assert pole_degree("LL") == 0
    assert pole_degree("LR") == 1
    assert pole_degree("LRLR") == 2
    assert pole_degree("") == 0
    assert pole_degree("LRRL") == 0
    assert pole_degree("+-") == 1


def test_pole_degree_odd_rejected():
    with pytest.raises(CobordismError, match="even"):
        pole_degree("LLR")


from helpers import brute_force_pole_degrees as brute_force_degrees, cancel_pole_pairs, \
    diamond_by_paths, disjoint_saddles, double_z2, hand_placement, rank2_at_a1, random_cube, \
    random_integer_pair, record_act_chains


def test_interpret_refuses_an_unknown_kind():
    # a swap is placed by CobordismWord.append alone, never read by interpret
    for w, move in ((word("AE"), Move("swap", (0, 1), (1, 0))), (word("A"), Move("cap", (0,), ()))):
        with pytest.raises(CobordismError, match=f"^unknown move kind {move.kind!r}$"):
            interpret(w, *move)


def test_interpret_places_every_move_as_by_hand():
    # every kind of MOVES, every source and output slot order, on every word of
    # up to four circles: the generator is the table's, and the output word and
    # provenance are the hand placement's
    seen = Counter()
    for n in range(5):
        for w in itertools.product("AE", repeat=n):
            for kind, (arity, table) in MOVES.items():
                for src in itertools.permutations(range(n), arity):
                    for key in [k for k in table if k[:arity] == tuple(w[p] for p in src)]:
                        sorts = key[arity:]
                        for dst in itertools.permutations(range(n - arity + len(sorts)),
                                                          len(sorts)):
                            gen, w_out, provenance = interpret(w, kind, src, dst, sorts)
                            assert gen == table[key]
                            assert (w_out, provenance) == hand_placement(w, src, dst, sorts)
                            seen[kind] += 1
    assert seen == {"merge": 850, "split": 4050, "mobius": 519, "birth": 129, "death": 49}


def test_move_tables_read_off_the_signature_equal_the_hand_tables():
    # the move tables as they were written by hand before they were read off
    # theory.SIGNATURE; SPLIT_GEN's order decides which splits rng.choice draws
    merge = {("A", "A", "A"): "mu_A", ("A", "E", "E"): "mu_AE", ("E", "A", "E"): "mu_EA",
             ("E", "E", "A"): "mu_EEA", ("E", "E", "E"): "mu_E"}
    split = {("A", "A", "A"): "Delta_A", ("E", "A", "E"): "Delta_AE",
             ("E", "E", "A"): "Delta_EA", ("E", "E", "E"): "Delta_E",
             ("A", "E", "E"): "Delta_AEE"}
    mobius = {("A", "E"): "nu_AE", ("E", "A"): "nu_EA", ("E", "E"): "nu_EE"}
    assert MOVES == {"merge": (2, merge), "split": (1, split), "mobius": (1, mobius),
                     "birth": (0, {("A",): "eta"}), "death": (1, {("A",): "eps"})}
    assert (MERGE_GEN, SPLIT_GEN, MOBIUS_GEN) == (merge, split, mobius)
    assert list(SPLIT_GEN) == list(split)


def test_pole_degree_confluence_up_to_8():
    for n in range(0, 9, 2):
        for w in itertools.product("LR", repeat=n):
            assert brute_force_degrees(w) == {pole_degree(w)}


def test_pole_degree_rotation_and_insertion_invariance():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([0, 2, 4, 6, 8])
        w = [rng.choice("LR") for _ in range(n)]
        d = pole_degree(w)
        k = rng.randrange(n) if n else 0
        assert pole_degree(w[k:] + w[:k]) == d
        side = rng.choice("LR")
        i = rng.randrange(n + 1)
        assert pole_degree(w[:i] + [side, side] + w[i:]) == d


def test_pole_degree_matches_cancellation_oracle():
    # every even word of up to 14 letters: 21,845 words
    for n in range(0, 15, 2):
        for w in itertools.product("LR", repeat=n):
            assert pole_degree(w) == cancel_pole_pairs(w), w


def test_pole_degree_long_word():
    # 4,000 alternating pairs; 1,500 "RL" cancel the last 1,500 of them,
    # and the same-side pairs cancel among themselves
    w = "LR" * 4000 + "LL" * 3000 + "RL" * 1500 + "RR" * 1500
    assert len(w) == 20000
    assert pole_degree(w) == pole_degree(w[7:] + w[:7]) == 2500


def test_degree_total_and_essential(capsys):
    assert [pole_degree(w) for w in ("LR", "LL")] == [1, 0]
    assert main(["degree", "LR", "LL"]) == 0
    assert capsys.readouterr().out == "1 0 total=1 essential\n"
    assert main(["degree", "", ""]) == 0
    assert capsys.readouterr().out == "0 0 total=0 inessential\n"
    assert pole_degree("LRRL") == 0


# -- diamond suite ---------------------------------------------------------------

DIAMOND_CASE1 = [c for c in DIAMOND_CASES if c[0] == "case01_one_circle_linked"]


def test_diamond_passes_for_aps_and_fails_for_it():
    assert diamond_exchange_suite(build_aps()).ok()
    report = diamond_exchange_suite(build_it())
    failing_cases = {r.name.split("[")[0] for r in report.failures()}
    assert failing_cases  # the near-example fails some exchange
    assert "case09_chain" in failing_cases


def test_diamond_case1_uses_both_equality_families():
    # the two classic labelings of case 1: inessential root via EE intermediate
    # (mobius (2)) and essential root via AE/EE intermediates (consistency (3))
    report = diamond_exchange_suite(build_aps(), cases=DIAMOND_CASE1)
    names = [r.name for r in report.records]
    assert any("A>EE|EE>A" in n for n in names)
    assert any("E>AE|AE>E" in n for n in names)
    assert report.ok()


#: the pairs the benchmark runs `diamond` on
DIAMOND_PAIRS = pytest.mark.parametrize("build", [
    build_aps, build_tt, build_it, build_laurent_sqrt, lambda: build_builtin("double", {}),
    rank2_at_a1, double_z2,
], ids=["aps", "tt", "it", "sqrt", "double", "rank2-a1", "double-z2"])


@DIAMOND_PAIRS
def test_diamond_matches_path_oracle(build):
    # composing memoised edges gives the verdicts and witnesses of evaluating
    # every path whole
    pair = build()
    got = [(r.name, r.status, r.witness) for r in diamond_exchange_suite(pair).records]
    want = [(r.name, r.status, r.witness) for r in diamond_by_paths(pair)]
    assert got == want
    assert len(got) == 460


def shipped_diamonds_text():
    return importlib.resources.files("frobpair").joinpath("data/diamonds.json").read_text()


def shipped_diamonds():
    return json.loads(shipped_diamonds_text())


def test_diamonds_file_is_frozen():
    # golden gate: the shipped suite is exactly what the generator produces
    shipped = shipped_diamonds_text()
    assert shipped == build_diamonds()
    data = json.loads(shipped)
    assert data["cases"] == [case[0] for case in DIAMOND_CASES]
    assert (len(data["edges"]), len(data["squares"])) == (173, 460)


def shipped_squares():
    """[(record name, square of moves, class id)] of the shipped suite."""
    data = shipped_diamonds()
    moves = [(tuple(e["words"][0]), e["gen"], tuple(e["src"]), tuple(e["dst"]))
             for e in data["edges"]]
    return [(name, ((moves[a], moves[b]), (moves[c], moves[d])), cls)
            for name, (a, b, c, d), cls in data["squares"]]


def test_diamond_classes_are_numbered_by_their_first_square():
    squares = shipped_squares()
    assert (len(squares), len({sq for _n, sq, _c in squares}),
            len({cls for _n, _sq, cls in squares})) == (460, 300, 215)
    assert all(cls <= k and squares[cls][2] == cls for k, (_n, _sq, cls) in enumerate(squares))


@DIAMOND_PAIRS
def test_diamond_class_members_share_a_verdict(build):
    # every square compared by itself: the squares of a relabelling class
    # differ by slot permutations only, so they pass or fail together
    pair = build()
    squares = shipped_squares()
    verdicts = compare_squares(square_plan([sq for _n, sq, _c in squares]), pair.generator_table(),
                               pair.spec)
    by_class = {}
    for (_name, _sq, cls), (ok, _witness) in zip(squares, verdicts, strict=True):
        by_class.setdefault(cls, set()).add(ok)
    assert len(by_class) == 215 and all(len(oks) == 1 for oks in by_class.values())


@pytest.mark.parametrize("build,cases,failed", [
    (build_it, DIAMOND_CASES[6:7], 0), (build_it, DIAMOND_CASES[6:], 8),
    (lambda: build_builtin("double", {}), DIAMOND_CASES[6:7], 2),
    (lambda: build_builtin("double", {}), DIAMOND_CASES[6:], 13),
], ids=["it-case07", "it-case07_on", "double-case07", "double-case07_on"])
def test_diamond_subsets_compare_classes_that_start_outside_them(build, cases, failed):
    # a class's first square may lie in a case left out: the first selected
    # square stands for it instead, and a failing member keeps its own witness
    names = {case[0] for case in cases}
    selected = {k: cls for k, (name, _sq, cls) in enumerate(shipped_squares())
                if name.split("[")[0] in names}
    assert any(cls not in selected for cls in selected.values())  # a class starts outside
    pair = build()
    got = [(r.name, r.status, r.witness) for r in diamond_exchange_suite(pair, cases).records]
    assert got == [(r.name, r.status, r.witness) for r in diamond_by_paths(pair, cases)]
    assert sum(status == "fail" for _n, status, _w in got) == failed


@pytest.mark.parametrize("cases", [DIAMOND_CASES[:1], DIAMOND_CASE1, DIAMOND_CASES[9:],
                                   DIAMOND_CASES[12:] + DIAMOND_CASES[:2]],
                         ids=["first", "case1_by_name", "last_four", "out_of_order"])
def test_diamond_cases_select_their_records_in_generator_order(cases):
    names = {case[0] for case in cases}
    want = [name for name, *_paths in labelled_squares(DIAMOND_CASES)
            if name.split("[")[0] in names]
    report = diamond_exchange_suite(build_aps(), cases=cases)
    assert [r.name for r in report.records] == want
    assert report.meta == {"cases": len(cases)}


def test_diamond_edges_act_as_their_event_words():
    # folding an edge's swaps into its slots leaves its map unchanged
    edges = numbered_squares()[0]
    shipped = shipped_diamonds()["edges"]
    for pair in (build_aps(), build_builtin("double", {})):
        table = pair.generator_table()
        for (start, events), e in zip(edges, shipped, strict=True):
            got = act(LinMap.identity(pair.spec, word(e["words"][0])), table[e["gen"]],
                      e["src"], e["dst"])
            want = evaluate(CobordismWord(start, events), pair)
            assert equal(got, want)[0], events


def test_diamond_edges_keep_their_running_words():
    edges = numbered_squares()[0]
    for (start, events), e in zip(edges, shipped_diamonds()["edges"], strict=True):
        assert e["words"] == ["".join(w) for w in CobordismWord(start, events).words]


def wide_pair(n_a, n_e):
    """Zero maps on n_a A labels and n_e E labels: the diamond edges refuse a
    word before any map acts."""
    decl = ring(INTEGERS)
    spec = BasisSpec(tuple(f"a{k}" for k in range(n_a)), tuple(f"e{k}" for k in range(n_e)), decl)
    return FrobeniusPair(decl, spec, {g: LinMap.zero(spec, dom, cod) for g, (dom, cod)
                                      in SIGNATURE.items() if g not in ("eta", "beta", "gamma")},
                         name="wide")


@pytest.mark.parametrize("n_a,n_e,cases,named", [
    (2, 257, None, "EE spans 66049"),
    (2, 257, DIAMOND_CASES[2:3], "AEE spans 132098"),
    (257, 2, None, "AA spans 66049"),
    (16, 41, DIAMOND_CASES[11:12], "AAAE spans 167936"),
], ids=["two_e", "case03_three_circles", "two_a", "case12_four_circles"])
def test_diamond_refuses_the_first_wide_word_met(n_a, n_e, cases, named):
    # the texts of evaluating every edge's events in the order the squares meet them
    with pytest.raises(TensorError, match=f"^the word {named} basis tuples, "
                                          f"over the limit of {MAX_TUPLES}$"):
        diamond_exchange_suite(wide_pair(n_a, n_e), cases)


def test_diamond_acts_each_first_move_and_path_once(monkeypatch):
    # the 920 paths of the 460 squares are 363 distinct as events, 350 by value;
    # the first square of each of the 215 classes stands for it, and their
    # paths are 260 by value and start with 98 distinct moves.  The 55 classes
    # whose two saddles touch disjoint circles are decided without a map; the
    # paths of the other 160 are 150 by value and start with 53 distinct
    # moves.  The suite compares all 460 squares, whose other paths repeat
    # these by value: each path is a two-piece chain on its bottom word,
    # interned, and each distinct (word, prefix) is acted exactly once per call
    events = [path for _name, *two in labelled_squares(DIAMOND_CASES) for path in two]
    assert (len(events), len(set(events))) == (920, 363)
    assert len({path for _n, sq, _c in shipped_squares() for path in sq}) == 350
    pair = build_aps()
    reps = [sq for k, (_n, sq, cls) in enumerate(shipped_squares()) if k == cls]
    assert len({one for sq in reps for one, _two in sq}) == 98
    assert len({path for sq in reps for path in sq}) == 260
    kept = [sq for sq in reps if not disjoint_saddles(sq)]
    paths = {path for sq in kept for path in sq}
    firsts = {one for one, _two in paths}
    assert (len(kept), len(firsts), len(paths)) == (160, 53, 150)
    want = Counter([(one[0], (one[1:],)) for one in firsts]
                   + [(one[0], (one[1:], two[1:])) for one, two in paths])
    calls = record_act_chains(monkeypatch, pair)
    for _ in range(2):  # the memo lives for one call
        calls.clear()
        assert diamond_exchange_suite(pair).ok()
        assert len(calls) == 53 + 150 and Counter(calls) == want


def count_suite_planning(monkeypatch):
    """Patch the data-file reads, the interchange rule, the chain interning
    and tensor.equal that the suite reaches; returns their Counter."""
    import frobpair.cobordism as cob_mod

    counts = Counter()
    for module, name, key in ((importlib.resources, "files", "reads"),
                              (cob_mod, "_interchanged", "interchanged"),
                              (cob_mod, "prefix_chain", "chains"), (cob_mod, "equal", "equal")):
        def counted(*args, real=getattr(module, name), key=key):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_diamond_plans_once_per_process(monkeypatch):
    # the first call of a selection reads the file, tests the interchange rule
    # on all 460 squares and interns the 260 others' 520 chains; a later call,
    # also on a failing pair, only checks the pair, acts the planned chains
    # and compares
    import frobpair.cobordism as cob_mod

    pair = build_aps()
    cob_mod._suite_plan.cache_clear()
    counts = count_suite_planning(monkeypatch)
    assert diamond_exchange_suite(pair).ok()
    assert counts == Counter(reads=1, interchanged=460, chains=520, equal=260)
    plan = cob_mod._suite_plan(frozenset(case[0] for case in DIAMOND_CASES))
    prefixes = {id(p): p for _k, chains in plan[1][1] for chain in chains for p in chain}
    before = {k: (p.moves, p.dom, p.uses) for k, p in prefixes.items()}
    monkeypatch.setattr(cob_mod, "square_plan", lambda squares: pytest.fail("planned again"))
    for other in (build_it(), build_builtin("double", {})):
        counts.clear()
        assert not diamond_exchange_suite(other).ok()
        assert counts == Counter(equal=260), other.name
    counts.clear()
    calls = record_act_chains(monkeypatch, pair)
    assert diamond_exchange_suite(pair).ok()
    assert counts == Counter(equal=260) and len(calls) == 53 + 150
    assert {k: (p.moves, p.dom, p.uses) for k, p in prefixes.items()} == before


def test_diamond_plans_serve_interleaved_pairs_and_selections():
    # the kept plans of two selections, used by turns for three pairs, give
    # each call the records of evaluating every path whole
    runs = [(pair, cases, [(r.name, r.status, r.witness) for r in diamond_by_paths(pair, cases)])
            for pair in (build_aps(), build_it(), double_z2())
            for cases in (DIAMOND_CASES, DIAMOND_CASES[6:])]
    for _ in range(2):
        for pair, cases, want in runs:
            got = diamond_exchange_suite(pair, None if cases is DIAMOND_CASES else cases)
            assert [(r.name, r.status, r.witness) for r in got.records] == want, pair.name


def test_compare_squares_never_composes(monkeypatch):
    # a path's second move acts on its first move's map, so neither the diamond
    # suite nor d^2 composes two maps (the pair's beta and gamma are made first)
    import frobpair.cobordism as cob_mod
    import frobpair.cube as cube_mod
    import frobpair.pair as pair_mod
    import frobpair.tensor as tensor_mod

    pair = build_aps()
    pair.generator_table()
    for module in (tensor_mod, pair_mod, cube_mod, cob_mod):
        if hasattr(module, "compose"):
            monkeypatch.setattr(module, "compose", lambda g, f: pytest.fail("compose called"))
    assert diamond_exchange_suite(pair).ok()
    assert check_d_squared(random_cube(random.Random(8), n=4), pair) == (True, None)


def interchange_candidates():
    """(record name, square, class) of the shipped squares whose two saddles
    touch disjoint circles, by tests/helpers.disjoint_saddles."""
    return [(name, sq, cls) for name, sq, cls in shipped_squares() if disjoint_saddles(sq)]


def perturbed(square):
    """The square with its second path's second move reading its two sources,
    or writing its two outputs, in the other order; a merge of two sorts
    takes the generator of the swapped sorts."""
    one, (first, (w, gen, src, dst)) = square
    if len(dst) == 2:
        return one, (first, (w, gen, src, dst[::-1]))
    sorts = tuple(w[p] for p in src[::-1]) + SIGNATURE[gen][1]
    return one, (first, (w, MERGE_GEN[sorts], src[::-1], dst))


def path_map(path, table, spec):
    current = LinMap.identity(spec, path[0][0])
    for _w, gen, src, dst in path:
        current = act(current, table[gen], src, dst)
    return current


def test_interchange_rule_decides_the_disjoint_saddle_squares():
    # exactly the squares of cases 10-13, whose saddles touch disjoint circles;
    # the rule reads generator signatures only, so it needs no pair
    squares = shipped_squares()
    far = interchange_candidates()
    assert len(far) == 200 and len({cls for _n, _sq, cls in far}) == 55
    assert {name.split("[")[0] for name, _sq, _c in far} == {c[0] for c in DIAMOND_CASES[9:]}
    assert sum(name.split("[")[0] in {c[0] for c in DIAMOND_CASES[9:]}
               for name, _sq, _c in squares) == 200
    assert [sq for _n, sq, _c in squares if _interchanged(sq)] == \
        [sq for _n, sq, _c in far]


@DIAMOND_PAIRS
def test_interchange_rule_decides_no_failing_square(build):
    # the whole-path oracle fails 28 squares of it and 75 of double, none of them decided
    pair = build()
    failing = {r.name for r in diamond_by_paths(pair) if r.status == "fail"}
    decided = {name for name, sq, _c in shipped_squares() if _interchanged(sq)}
    assert len(decided) == 200 and not decided & failing


def test_interchange_rule_decides_no_perturbed_square():
    variants = [perturbed(sq) for _n, sq, _c in interchange_candidates()]
    assert len(variants) == 200 and not any(map(disjoint_saddles, variants))
    assert not any(_interchanged(sq) for sq in variants)


def test_interchange_rule_is_exact_under_random_tables():
    # random integer tables obey no axiom, so a square decided wrongly shows:
    # every perturbed square evaluates unequal under one of them, and every
    # square the rule decides, shipped or perturbed, evaluates equal under all
    shipped = [sq for _n, sq, _c in shipped_squares()]
    variants = [perturbed(sq) for _n, sq, _c in interchange_candidates()]
    rng = random.Random(39)
    pairs = [random_integer_pair(rng, f"random{k}") for k in range(3)]
    unequal, perturbations = set(), set(variants)
    for pair in pairs:
        table = pair.generator_table()
        for sq in shipped + variants:
            ok = equal(*(path_map(path, table, pair.spec) for path in sq))[0]
            if _interchanged(sq):
                assert ok, sq
            elif not ok and sq in perturbations:
                unequal.add(sq)
    assert unequal == set(variants)


def aps_without(*names):
    pair = build_aps()
    return FrobeniusPair(pair.ring, pair.spec,
                         {g: m for g, m in pair.maps.items() if g not in names}, name=pair.name)


def test_diamond_reports_the_first_missing_generator_met():
    # squares are compared out of their order, but a missing generator is
    # still the first one that the squares, in their order, meet: as when
    # every path is evaluated whole, for all 91 pairs of deleted generators
    names = sorted(set(build_aps().maps) - {"eta"})
    for gone in itertools.combinations(names, 2):
        pair = aps_without(*gone)
        with pytest.raises(CobordismError) as want:
            diamond_by_paths(pair)
        with pytest.raises(CobordismError) as got:
            diamond_exchange_suite(pair)
        assert str(got.value) == str(want.value), gone


def test_diamond_products_by_one_are_skipped(monkeypatch):
    # act and compose pass the other operand through when an entry is 1, so no
    # product of the double suite over all 13 cases has an operand equal to 1.
    # Each distinct path of the class representatives whose saddles do not
    # touch disjoint circles, and then of the 30 other squares of the 45
    # failing classes, is acted once: the count is that of acting those paths
    # one by one, and the 200 squares on disjoint circles add none
    from frobpair.ring import RingElem

    pair = build_builtin("double", {})
    table = pair.generator_table()
    squares = shipped_squares()
    failing = {cls for (_n, _sq, cls), record in zip(squares, diamond_by_paths(pair), strict=True)
               if record.status == "fail"}
    assert len(failing) == 45 and not any(disjoint_saddles(squares[cls][1]) for cls in failing)
    reps = {path for k, (_n, sq, cls) in enumerate(squares) if k == cls and not disjoint_saddles(sq)
            for path in sq}
    others = {path for k, (_n, sq, cls) in enumerate(squares) if k != cls and cls in failing
              for path in sq}
    products = []
    real_mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__",
                        lambda x, y: products.append((x, y)) or real_mul(x, y))
    for path in [*reps, *others]:
        path_map(path, table, pair.spec)
    want = len(products)
    products.clear()
    report = diamond_exchange_suite(pair, DIAMOND_CASES)
    assert report.meta["cases"] == len(DIAMOND_CASES) == 13 and len(report.records) == 460
    assert len(products) == want == 2412
    assert not any({(): 1} in (x.terms, y.terms) for x, y in products)


def test_parse_reads_each_event_once(monkeypatch):
    import frobpair.cobordism as cob_mod

    # interpret reads every event but the swap, which move_plan places alone
    reads = []
    real = cob_mod.interpret
    monkeypatch.setattr(cob_mod, "interpret",
                        lambda w, *move: reads.append(move) or real(w, *move))
    cob = parse_cobordism("input A E\nswap 1\nmerge 1 E\nmobius 1 A\nbirth 1\ndeath 2\n")
    assert reads == [tuple(ev) for ev in cob.events if ev.kind != "swap"] == [
        ("merge", (0, 1), (0,), ("E",)), ("mobius", (0,), (0,), ("A",)),
        ("birth", (), (0,), ("A",)), ("death", (1,), (), ())] and len(cob.moves) == 5


@pytest.mark.parametrize("text,message", [
    ("# a comment\ninput A E\n\nswap 1\nmerge 1 A\n", "line 5: no generator for EA->A"),
    ("input" + " A" * 17, "line 1: a word of 17 circles"),
    ("input" + " A" * 16 + "\nmerge 1 A\nbirth 2\nsplit 3 A A", "line 4: a word of 17 circles"),
], ids=["comment_and_blank_line", "input_word", "running_word"])
def test_parse_illegal_event_names_its_line(text, message):
    with pytest.raises(CobordismError, match=f"^{message}"):
        parse_cobordism(text)


def test_parse_circle_limit():
    # the input word and every running word are bounded; a split grows the word
    full = "input" + " A" * MAX_CIRCLES + "\n"
    cob = parse_cobordism(full + "merge 1 A\nsplit 1 A A\n")
    assert max(map(len, cob.words)) == MAX_CIRCLES
    for text in (full + "split 1 A A\n", full + "birth 1\n", full.replace("input", "input A")):
        with pytest.raises(CobordismError, match=f"a word of {MAX_CIRCLES + 1} circles"):
            parse_cobordism(text)
