import collections
import os
import random
import re
import subprocess
import sys

import pytest

import frobpair
from frobpair.ring import INTEGERS, ring
from frobpair.tensor import BasisSpec, LinMap, compose, equal, word
from frobpair.theory import (
    ITEMS,
    SIGNATURE,
    TheoryError,
    evaluate_term,
    load_axioms,
    parse_term,
    parse_theory,
    read_manifest,
    term_to_text,
    typecheck,
)
from helpers import typecheck_by_unification
from manifest import build_equations, build_manifest, dagger, mirror

Z = ring(INTEGERS)
SPEC = BasisSpec(("1", "X"), ("Y", "Z"), Z)


def test_parse_and_typecheck_assoc():
    term = parse_term("(mu_A (x) id_A) ; mu_A")
    dom, cod, _, _ = typecheck(term)
    assert dom == word("AAA") and cod == word("A")


def test_equation_shape_mismatch():
    with pytest.raises(TheoryError, match="typecheck"):
        parse_theory("eq bad [frobA]: mu_A == Delta_A")


def test_cancel_equation_typechecks():
    eqs = parse_theory(
        "eq cancel1 [cancel]: (id_A (x) Delta_AE) ; (beta (x) id_E) == mu_AE"
    )
    assert typecheck(eqs[0].lhs)[:2] == (word("AE"), word("E"))


def test_mobius_generator_typing():
    assert typecheck(parse_term("nu_AE"))[:2] == (word("A"), word("E"))
    assert typecheck(parse_term("eta ; Delta_AEE"))[:2] == ((), word("EE"))
    with pytest.raises(TheoryError, match="sort mismatch"):
        typecheck(parse_term("mu_E ; eps"))


def test_swap_sorts_inferred():
    dom, cod, _, _ = typecheck(parse_term("swap ; mu_AE"))
    assert dom == word("EA") and cod == word("E")


#: term -> (dom, cod, per-layer in-words), or the TheoryError text, for first
#: layers made of id_A, id_E, swap and generators
FIRST_LAYERS = {
    "id_A": ("A", "A", ("A",)),
    "id_E ; nu_EA": ("E", "A", ("E", "E")),
    "(id_A (x) id_E) ; mu_AE": ("AE", "E", ("AE", "AE")),
    "swap ; mu_AE": ("EA", "E", ("EA", "AE")),
    "(swap (x) id_A) ; (mu_AE (x) id_A)": ("EAA", "EA", ("EAA", "AEA")),
    "(mu_A (x) id_E) ; mu_AE": ("AAE", "E", ("AAE", "AE")),
    "(eta (x) id_E) ; mu_AE": ("E", "E", ("E", "AE")),
    "(eps (x) swap) ; mu_EA": ("AAE", "E", ("AAE", "EA")),
    "(id_E (x) swap) ; (id_E (x) mu_EEA)": ("EEE", "EA", ("EEE", "EEE")),
    "(Delta_E (x) swap) ; (mu_E (x) id_A (x) id_E)": ("EEA", "EAE", ("EEA", "EEAE")),
    "swap": "ambiguous swap sorts in term swap",
    "id_A ; id_E": "sort mismatch: A vs E",
    "id_A ; mu_A": "layer ('mu_A',) too wide for word ('A',)",
    "(id_A (x) id_E) ; id_A": "layer ('id_A',) does not cover word ('A', 'E')",
    "swap ; (id_A (x) id_A) ; mu_AE": "sort mismatch: A vs E",
    "eta ; swap": "swap needs two strands in word ('A',)",
    "(id_E (x) eta) ; mu_AE": "sort mismatch: E vs A",
    "(swap (x) id_E) ; (id_E (x) swap) ; mu_EEA":
        "layer ('mu_EEA',) does not cover word ('E', 'E', '?')",
}


@pytest.mark.parametrize("text", sorted(FIRST_LAYERS))
def test_typecheck_first_layers(text):
    want = FIRST_LAYERS[text]
    if isinstance(want, str):
        with pytest.raises(TheoryError) as refusal:
            typecheck(parse_term(text))
        assert str(refusal.value) == want
    else:
        dom, cod, ins, _ = typecheck(parse_term(text))
        assert ("".join(dom), "".join(cod), tuple("".join(w) for w in ins)) == want


#: term -> its per-layer act moves: (generator name, or None for a swap, source
#: slots, target slots) in the partly rewritten word; identity strands make none
LAYER_MOVES = {
    "id_A": ((),),
    "id_E ; nu_EA": ((), (("nu_EA", (0,), (0,)),)),
    "(id_A (x) id_E) ; mu_AE": ((), (("mu_AE", (0, 1), (0,)),)),
    "swap ; mu_AE": (((None, (0, 1), (1, 0)),), (("mu_AE", (0, 1), (0,)),)),
    "(swap (x) id_A) ; (mu_AE (x) id_A)": (((None, (0, 1), (1, 0)),),
                                           (("mu_AE", (0, 1), (0,)),)),
    "(mu_A (x) id_E) ; mu_AE": ((("mu_A", (0, 1), (0,)),), (("mu_AE", (0, 1), (0,)),)),
    "(eta (x) id_E) ; mu_AE": ((("eta", (), (0,)),), (("mu_AE", (0, 1), (0,)),)),
    "(eps (x) swap) ; mu_EA": ((("eps", (0,), ()), (None, (0, 1), (1, 0))),
                               (("mu_EA", (0, 1), (0,)),)),
    "(id_E (x) swap) ; (id_E (x) mu_EEA)": (((None, (1, 2), (2, 1)),),
                                            (("mu_EEA", (1, 2), (1,)),)),
    "(Delta_E (x) swap) ; (mu_E (x) id_A (x) id_E)": (
        (("Delta_E", (0,), (0, 1)), (None, (2, 3), (3, 2))), (("mu_E", (0, 1), (0,)),)),
    "(id_A (x) id_E (x) swap) ; (id_A (x) mu_E (x) id_A)": (
        ((None, (2, 3), (3, 2)),), (("mu_E", (1, 2), (1,)),)),
    "(id_A (x) swap (x) Delta_A) ; (id_A (x) id_E (x) mu_EA (x) id_A)": (
        ((None, (1, 2), (2, 1)), ("Delta_A", (3,), (3, 4))), (("mu_EA", (2, 3), (2,)),)),
    "(swap (x) Delta_AE (x) id_A) ; (id_E (x) mu_A (x) mu_EA)": (
        ((None, (0, 1), (1, 0)), ("Delta_AE", (2,), (2, 3))),
        (("mu_A", (1, 2), (1,)), ("mu_EA", (2, 3), (2,)))),
    "(eta (x) id_E (x) eps (x) eta) ; (mu_AE (x) id_A)": (
        (("eta", (), (0,)), ("eps", (2,), ()), ("eta", (), (2,))), (("mu_AE", (0, 1), (0,)),)),
    "(id_A (x) eps (x) gamma (x) beta) ; (mu_A (x) id_A)": (
        (("eps", (1,), ()), ("gamma", (), (1, 2)), ("beta", (3, 4), ())),
        (("mu_A", (0, 1), (0,)),)),
}


@pytest.mark.parametrize("text", sorted(LAYER_MOVES))
def test_typecheck_gives_each_layers_moves(text):
    assert typecheck(parse_term(text))[3] == LAYER_MOVES[text]


def test_layer_moves_cover_the_first_layers():
    assert {t for t, want in FIRST_LAYERS.items() if not isinstance(want, str)} <= set(LAYER_MOVES)


def _in_width(item):
    return 2 if item == "swap" else len(ITEMS[item][0])


def _out_width(item):
    return 2 if item == "swap" else len(ITEMS[item][1])


def random_oracle_term(rng):
    """1-4 layers of generators, id_A, id_E and swap, each layer drawn to
    cover the word below it by width, so that many terms typecheck; a layer
    now and then stops one strand short or runs past the word."""
    names = sorted(ITEMS) + ["swap"]
    term, width = [], rng.randint(0, 4)
    for _ in range(rng.randint(1, 4)):
        layer = [rng.choice(names)]
        short = 1 if rng.random() < 0.15 else 0  # strands left uncovered
        while sum(map(_in_width, layer)) < width - short or rng.random() < 0.1:
            layer.append(rng.choice(names))
        term.append(tuple(layer))
        width = sum(map(_out_width, layer))
    return tuple(term)


#: the kinds of typecheck refusal, each named by words of its text
REFUSALS = ("sort mismatch", "too wide", "does not cover", "swap needs", "ambiguous")


def typecheck_outcome_by_both(term):
    """The outcome of typecheck on term, checked against the unification
    oracle: "typed", or the refusal's kind, marked when the oracle's text
    prints an unknown as a _Var object, which may print as its sort or '?'."""
    try:
        want = typecheck_by_unification(term)
    except TheoryError as exc:
        with pytest.raises(TheoryError) as refusal:
            typecheck(term)
        pieces = re.split(r"<[\w.]+ object at 0x[0-9a-f]+>", str(exc))
        assert type(refusal.value) is type(exc)
        assert re.fullmatch("'[AE?]'".join(map(re.escape, pieces)), str(refusal.value)), term
        kind = next(kind for kind in REFUSALS if kind in str(exc))
        return kind + (" (unknowns)" if len(pieces) > 1 else "")
    assert typecheck(term) == want, term
    return "typed"


def test_typecheck_agrees_with_unification_on_the_manifest():
    for eq in load_axioms():
        assert typecheck_outcome_by_both(eq.lhs) == typecheck_outcome_by_both(eq.rhs) == "typed"


def test_typecheck_agrees_with_unification_on_random_terms():
    rng = random.Random(44)
    outcomes = collections.Counter(typecheck_outcome_by_both(random_oracle_term(rng))
                                   for _ in range(600))
    assert outcomes["typed"] >= 100 and outcomes["sort mismatch"] >= 100, outcomes
    for kind in REFUSALS[1:]:
        assert outcomes[kind] >= 3, outcomes
    assert sum(n for k, n in outcomes.items() if k.endswith("(unknowns)")) >= 5, outcomes


def test_unknown_generator():
    with pytest.raises(TheoryError, match="unknown generator"):
        parse_term("mu_A ; flux")


def test_dagger_declared_pairs():
    assert dagger(parse_term("mu_A")) == parse_term("Delta_A")
    assert dagger(parse_term("mu_AE ; Delta_AE")) == parse_term("mu_AE ; Delta_AE")


def random_term(rng, depth=3):
    items = list(SIGNATURE) + ["id_A", "id_E", "swap"]
    return tuple(
        tuple(rng.choice(items) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, depth))
    )


def test_dagger_mirror_involutions_on_random_terms():
    rng = random.Random(5)
    for _ in range(300):
        t = random_term(rng)
        assert dagger(dagger(t)) == t
        assert mirror(mirror(t)) == t


def test_mirror_of_compat_rhs():
    t = parse_term("(Delta_A (x) id_E) ; (id_A (x) mu_AE)")
    assert term_to_text(mirror(t)) == "(id_E (x) Delta_A) ; (mu_EA (x) id_A)"


def aps_maps():
    one = Z.one()
    return {
        "mu_A": LinMap(SPEC, word("AA"), word("A"),
                       {(("1",), ("1", "1")): one, (("X",), ("1", "X")): one,
                        (("X",), ("X", "1")): one}),
        "Delta_A": LinMap(SPEC, word("A"), word("AA"),
                          {(("1", "X"), ("1",)): one, (("X", "1"), ("1",)): one,
                           (("X", "X"), ("X",)): one}),
        "eta": LinMap(SPEC, (), word("A"), {(("1",), ()): one}),
        "eps": LinMap(SPEC, word("A"), (), {((), ("X",)): one}),
        "nu_AE": LinMap(SPEC, word("A"), word("E"),
                        {(("Y",), ("1",)): one, (("Z",), ("1",)): one}),
        "nu_EA": LinMap(SPEC, word("E"), word("A"),
                        {(("X",), ("Y",)): one, (("X",), ("Z",)): one}),
    }


def test_evaluate_unit_law():
    maps = aps_maps()
    lhs = evaluate_term(parse_term("(eta (x) id_A) ; mu_A"), maps, SPEC)
    assert equal(lhs, LinMap.identity(SPEC, word("A")))[0]


def test_evaluate_handle():
    maps = aps_maps()
    m = evaluate_term(parse_term("Delta_A ; mu_A"), maps, SPEC)
    assert m.column(("1",)) == {("X",): Z.const(2)}


def test_evaluate_nu_roundtrip():
    maps = aps_maps()
    m = evaluate_term(parse_term("nu_AE ; nu_EA"), maps, SPEC)
    assert m.column(("1",)) == {("X",): Z.const(2)}


def test_evaluate_is_functorial():
    rng = random.Random(17)
    maps = aps_maps()
    usable = [t for t in (random_term(rng) for _ in range(400)) if _evaluable(t, maps)]
    pairs = 0
    for t1 in usable:
        for t2 in usable:
            _d1, c1, _, _ = typecheck(t1)
            d2, _c2, _, _ = typecheck(t2)
            if c1 != d2:
                continue
            joint = evaluate_term(t1 + t2, maps, SPEC)
            split = compose(evaluate_term(t2, maps, SPEC), evaluate_term(t1, maps, SPEC))
            assert equal(joint, split)[0]
            pairs += 1
            if pairs > 40:
                return
    assert pairs > 0


def _evaluable(term, maps):
    try:
        typecheck(term)
    except TheoryError:
        return False
    return all(item in maps or item in ("id_A", "id_E", "swap")
               for layer in term for item in layer)


def test_manifest_is_frozen_and_typechecks():
    # golden gate: the shipped file is exactly what the generator produces
    import importlib.resources

    shipped = importlib.resources.files("frobpair").joinpath("data/axioms.eq").read_text()
    assert shipped == build_manifest()
    eqs = load_axioms()
    assert len(eqs) == len(build_equations())
    for eq in eqs:
        assert typecheck(eq.lhs)[:2] == typecheck(eq.rhs)[:2], eq.name


def test_manifest_generated_rows_are_mechanical():
    # every {generated} row of the shipped file is the dagger, mirror or
    # dagger-of-mirror image of the base row its suffix names
    eqs = {e.name: e for e in load_axioms()}
    transforms = (("_mrdg", lambda t: dagger(mirror(t))), ("_mr", mirror), ("_dg", dagger))
    generated = [e for e in eqs.values() if e.provenance == "generated"]
    assert {"mob_l2_dg", "mob_l3_dg", "mob_l4_dg", "compat_1_dg", "compat_1_mr"} <= {
        e.name for e in generated}
    for eq in generated:
        suffix, fn = next((sfx, fn) for sfx, fn in transforms if eq.name.endswith(sfx))
        base = eqs[eq.name.removesuffix(suffix).replace("mob_l", "mob_r")]
        assert base.provenance != "generated", eq.name
        assert (eq.group, eq.lhs, eq.rhs) == (base.group, fn(base.lhs), fn(base.rhs)), eq.name


def test_provenance_tags_parse():
    eqs = parse_theory("eq x [derived] {generated}: mu_A == mu_A\neq y [frobA]: eps == eps")
    assert eqs[0].provenance == "generated"
    assert eqs[1].provenance == "paper"


def test_parse_theory_rejects_bad_metadata():
    with pytest.raises(TheoryError, match="unknown group"):
        parse_theory("eq x [nogroup]: mu_A == mu_A")
    with pytest.raises(TheoryError, match="unknown provenance"):
        parse_theory("eq x [frobA] {guessed}: mu_A == mu_A")
    with pytest.raises(TheoryError, match="duplicate equation name"):
        parse_theory("eq x [frobA]: mu_A == mu_A\neq x [frobA]: eps == eps")
    with pytest.raises(TheoryError, match="line 1"):
        parse_theory("mu_A == mu_A")


def test_ambiguous_swap_rejected():
    with pytest.raises(TheoryError, match="ambiguous"):
        typecheck(parse_term("swap"))


# -- the manifest cache ---------------------------------------------------------------

def test_load_axioms_returns_a_new_list_each_call():
    first = load_axioms()
    names = [e.name for e in first]
    first.pop()
    first.append("junk")
    second = load_axioms()
    assert second is not first and [e.name for e in second] == names
    assert load_axioms() is not second


def test_load_axioms_reads_a_rewritten_file_again(tmp_path):
    path = tmp_path / "axioms.eq"
    path.write_text("eq x [frobA]: mu_A == mu_A\n")
    assert [e.name for e in load_axioms(str(path))] == ["x"]
    path.write_text("eq y [frobA]: eps == eps\neq z [frobA]: eta == eta\n")
    eqs = load_axioms(str(path))
    assert [(e.name, e.lhs) for e in eqs] == [("y", parse_term("eps")), ("z", parse_term("eta"))]
    path.write_text("eq x [frobA]: mu_A == mu_A\n")
    assert [e.name for e in load_axioms(str(path))] == ["x"]


def test_read_manifest_gives_the_equations_and_version_of_one_text(tmp_path):
    eqs, version = read_manifest()
    assert version == "1" and [e.name for e in eqs] == [e.name for e in load_axioms()]
    path = tmp_path / "axioms.eq"
    path.write_text("# version: 7\neq x [frobA]: mu_A == mu_A\n")
    eqs, version = read_manifest(path)
    assert [e.name for e in eqs] == ["x"] and version == "7"
    path.write_text("eq x [frobA]: mu_A == mu_A\n")
    assert read_manifest(path)[1] is None


def test_startup_loads_no_dataclasses():
    # a fresh process up to a loaded CLI and manifest, as each `frobpair` command
    # starts: dataclasses would bring inspect, ast, dis and tokenize with it
    env = {k: v for k, v in os.environ.items() if k != "FROBPAIR_AXIOMS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(frobpair.__file__))
    code = ("import sys, frobpair.cli; from frobpair.theory import load_axioms; load_axioms(); "
            "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          check=True, text=True)
    assert proc.stdout.split() == []


def test_equations_compare_by_identity():
    text = "eq unit_l [frobA]: (eta (x) id_A) ; mu_A == id_A"
    (a,), (b,) = parse_theory(text), parse_theory(text)
    # each parse interns its own prefixes, so the sides are distinct objects
    assert a.sides[0][0] is not b.sides[0][0]
    # the same fields make no equal equation: only the one object equals itself
    assert (a.name, a.group, a.provenance, a.lhs, a.rhs) == (b.name, b.group, b.provenance,
                                                              b.lhs, b.rhs)
    assert a == a and a != b and len({a, b}) == 2


def test_importing_the_cli_parses_no_manifest():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frobpair.__file__)))
    # parse_theory is counted from before the other modules load
    code = ("import frobpair.theory as t; calls = []; parse = t.parse_theory; "
            "t.parse_theory = lambda text: calls.append(text) or parse(text); "
            "import frobpair.cli; print(len(calls), t._parsed_manifest.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          check=True, text=True)
    assert proc.stdout.split() == ["0", "0"]
