"""String-diagram term language over the fixed Frobenius-pair signature.

A term is a sequence of layers read bottom to top; a layer is a horizontal
tensor of items (generator names, id_A, id_E, swap).  Equations pair two
terms that must typecheck to the same (domain, codomain) words.  The shipped
axiom manifest, data/axioms.eq, is read by load_axioms(); its generator lives
in tests/manifest.py.
"""

from __future__ import annotations

import functools
import importlib.resources
import re

from .ring import FrobpairError
from .tensor import LinMap, act, move_plan

A, E = "A", "E"

#: name -> (domain word, codomain word)
SIGNATURE = {
    "mu_A": ((A, A), (A,)),
    "eta": ((), (A,)),
    "eps": ((A,), ()),
    "Delta_A": ((A,), (A, A)),
    "beta": ((A, A), ()),
    "gamma": ((), (A, A)),
    "mu_AE": ((A, E), (E,)),
    "mu_EA": ((E, A), (E,)),
    "Delta_AE": ((E,), (A, E)),
    "Delta_EA": ((E,), (E, A)),
    "mu_E": ((E, E), (E,)),
    "Delta_E": ((E,), (E, E)),
    "mu_EEA": ((E, E), (A,)),
    "Delta_AEE": ((A,), (E, E)),
    "nu_AE": ((A,), (E,)),
    "nu_EA": ((E,), (A,)),
    "nu_EE": ((E,), (E,)),
}

#: every layer item but swap: name -> (domain word, codomain word); the
#: identities are the items that make no act move
ITEMS = {**SIGNATURE, "id_A": ((A,), (A,)), "id_E": ((E,), (E,))}


class TheoryError(FrobpairError):
    """Syntax or type errors in terms and equations."""


# -- terms ---------------------------------------------------------------------


def parse_term(text):
    """Parse layers joined by ';', items within a layer joined by '(x)'."""
    layers = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk.startswith("(") and chunk.endswith(")") and _outer_parens(chunk):
            chunk = chunk[1:-1].strip()
        if not chunk:
            raise TheoryError(f"empty layer in term {text!r}")
        items = tuple(item.strip() for item in chunk.split("(x)"))
        for item in items:
            if item not in ITEMS and item != "swap":
                raise TheoryError(f"unknown generator {item!r}")
        layers.append(items)
    return tuple(layers)


def _outer_parens(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(s) - 1
    return False


def term_to_text(term) -> str:
    parts = []
    for layer in term:
        body = " (x) ".join(layer)
        parts.append(f"({body})" if len(layer) > 1 else body)
    return " ; ".join(parts)


def typecheck(term):
    """Infer (domain, codomain) words; returns (dom, cod, per-layer in-words,
    per-layer act moves).

    dom holds the sort of each strand of the first layer, None until a
    generator or identity reads that strand.  A strand of a partly rewritten
    word is a sort, or the position in dom of the domain strand whose sort it
    carries, as swaps pass strands on unread; a term whose dom is not all
    fixed after the last layer is rejected as ambiguous.  A layer's moves are
    (generator name, or None for a swap, source slots, target slots) in the
    partly rewritten word; identities make none.
    """
    width = sum(2 if item == "swap" else len(ITEMS[item][0]) for item in term[0])
    dom = [None] * width

    def sorts(w):  # each strand as its sort, or '?' while that is unfixed
        return tuple(s if isinstance(s, str) else dom[s] or "?" for s in w)

    current = tuple(range(width))
    layer_ins, pieces = [], []
    for layer in term:
        layer_ins.append(current)
        out, pos, moves = [], 0, []
        for item in layer:
            slot = len(out)  # the item's first slot in the partly rewritten word
            if item == "swap":
                if pos + 1 >= len(current):
                    raise TheoryError(f"swap needs two strands in word {sorts(current)}")
                out.extend((current[pos + 1], current[pos]))
                moves.append((None, (slot, slot + 1), (slot + 1, slot)))
                pos += 2
                continue
            gdom, gcod = ITEMS[item]
            if pos + len(gdom) > len(current):
                raise TheoryError(f"layer {layer} too wide for word {sorts(current)}")
            for strand, want in zip(current[pos:], gdom):
                if isinstance(strand, int):
                    if dom[strand] is None:
                        dom[strand] = want
                    strand = dom[strand]
                if strand != want:
                    raise TheoryError(f"sort mismatch: {strand} vs {want}")
            out.extend(gcod)
            if item in SIGNATURE:
                moves.append((item, tuple(range(slot, slot + len(gdom))),
                              tuple(range(slot, slot + len(gcod)))))
            pos += len(gdom)
        if pos != len(current):
            raise TheoryError(f"layer {layer} does not cover word {sorts(current)}")
        current = tuple(out)
        pieces.append(tuple(moves))
    if None in dom:
        raise TheoryError(f"ambiguous swap sorts in term {term_to_text(term)}")
    return tuple(dom), sorts(current), [sorts(w) for w in layer_ins], tuple(pieces)


class Prefix:
    """One piece of a chain on the word dom: the act moves it applies after
    the pieces before it (after the identity on dom, if it is the first), and
    how many chains start with the prefix it ends."""

    def __init__(self, moves: tuple, dom: tuple, uses: int = 0):
        self.moves, self.dom, self.uses = moves, dom, uses


def prefix_chain(dom, pieces, interned) -> tuple:
    """The Prefix chain on the word dom of a sequence of pieces, each a tuple
    of moves: each prefix is interned in interned and counted as one more use."""
    chain = []
    for k in range(1, len(pieces) + 1):
        piece = interned.get((dom, pieces[:k]))
        if piece is None:
            piece = interned[(dom, pieces[:k])] = Prefix(pieces[k - 1], dom)
        piece.uses += 1
        chain.append(piece)
    return tuple(chain)


def evaluate_side(side, gen_maps, spec, memo) -> LinMap:
    """The LinMap of a Prefix chain: from the identity on its domain, each
    move acts in turn through act(), its generator taken from gen_maps.

    A prefix with more than one use is held in memo (Prefix -> [LinMap, uses
    left]) until its last use, so each distinct prefix is evaluated once.
    """
    current = None
    for piece in side:
        held = memo.get(piece)
        if held:
            current, held[1] = held[0], held[1] - 1
            if not held[1]:
                del memo[piece]
            continue
        if current is None:
            current = LinMap.identity(spec, piece.dom)
        for gen, src, dst in piece.moves:
            current = act(current, None if gen is None else gen_maps[gen], src, dst)
        if piece.uses > 1:
            memo[piece] = [current, piece.uses - 1]
    return current


def evaluate_term(term, gen_maps, spec) -> LinMap:
    """The LinMap of a term, layer by layer from the identity on its domain."""
    dom, _cod, _layer_ins, pieces = typecheck(term)
    return evaluate_side(prefix_chain(dom, pieces, {}), gen_maps, spec, {})


# -- equations -------------------------------------------------------------------

GROUPS = (
    "frobA", "moduleE", "comoduleE", "cancel", "muDeltaE", "EEA",
    "compat", "consistency", "derived", "mobius", "quarantine",
)

PROVENANCES = ("paper", "corrected", "generated")


class Equation:
    """Two terms that typecheck to the same words, checked when made; equations
    compare by identity.

    sides holds the Prefix chains of lhs and rhs on their domain, one piece
    per layer with the layer's moves, interned in `pieces`, so that the
    equations made with one dict share their prefixes;
    words holds every word that evaluating them meets, each layer's in-word and
    the word after each of its moves; generators, the names they use.
    """

    def __init__(self, name: str, group: str, provenance: str, lhs: tuple, rhs: tuple,
                 pieces: dict = None):
        self.name, self.group, self.provenance = name, group, provenance
        self.lhs, self.rhs = lhs, rhs
        ld, lc, l_ins, l_pieces = typecheck(lhs)
        rd, rc, r_ins, r_pieces = typecheck(rhs)
        if (ld, lc) != (rd, rc):
            raise TheoryError(f"equation {name}: sides typecheck to {ld}->{lc} vs {rd}->{rc}")
        if group not in GROUPS:
            raise TheoryError(f"equation {name}: unknown group {group}")
        if provenance not in PROVENANCES:
            raise TheoryError(f"equation {name}: unknown provenance {provenance}")
        pieces = {} if pieces is None else pieces
        self.sides = prefix_chain(ld, l_pieces, pieces), prefix_chain(ld, r_pieces, pieces)
        self.words = []
        for w, piece in zip(l_ins + r_ins, l_pieces + r_pieces):  # replay each move's word
            self.words.append(w)
            for gen, src, dst in piece:
                w = move_plan(w, src, dst, gen and (*SIGNATURE[gen], True))[2]
                self.words.append(w)
        self.generators = frozenset(
            gen for piece in l_pieces + r_pieces for gen, _src, _dst in piece if gen is not None)


def parse_theory(text) -> list:
    """Parse an equation file: `eq NAME [GROUP] {PROVENANCE}: TERM == TERM`.

    The provenance tag is optional and defaults to paper.  Lines starting
    with '#' and blank lines are ignored.
    """
    equations = []
    seen = set()
    pieces = {}  # the prefixes the equations share
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.startswith("eq "):
                raise TheoryError("expected 'eq'")
            head, _, body = line[3:].partition(":")
            if not body:
                raise TheoryError("missing ':'")
            head = head.strip()
            provenance = "paper"
            if head.endswith("}"):
                head, _, prov = head[:-1].rpartition("{")
                provenance = prov.strip()
                head = head.strip()
            if not head.endswith("]"):
                raise TheoryError("missing [GROUP]")
            name, _, group = head[:-1].partition("[")
            name, group = name.strip(), group.strip()
            lhs_text, sep, rhs_text = body.partition("==")
            if not sep:
                raise TheoryError("missing '=='")
            eq = Equation(name, group, provenance, parse_term(lhs_text), parse_term(rhs_text),
                          pieces)
            if name in seen:
                raise TheoryError(f"duplicate equation name {name}")
            seen.add(name)
            equations.append(eq)
        except TheoryError as exc:
            raise TheoryError(f"line {lineno}: {exc}") from None
    return equations


def _manifest_text(path):
    if path is None:
        return importlib.resources.files("frobpair").joinpath("data/axioms.eq").read_text()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_axioms(path=None) -> list:
    """The axioms of a manifest file, or of the shipped default."""
    return read_manifest(path)[0]


def read_manifest(path=None):
    """(axioms as a new list, value of the first `# version:` line or None) of a
    manifest file or the shipped default, from one read; each text is parsed once."""
    equations, version = _parsed_manifest(_manifest_text(path))
    return list(equations), version


@functools.lru_cache(maxsize=8)  # keyed on the text, so an edited file is parsed again
def _parsed_manifest(text) -> tuple:
    found = re.search(r"^# version:(.*)$", text, re.MULTILINE)
    return tuple(parse_theory(text)), found and found.group(1).strip()
