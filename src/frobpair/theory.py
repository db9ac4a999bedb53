"""String-diagram term language over the fixed Frobenius-pair signature.

A term is a sequence of layers read bottom to top; a layer is a horizontal
tensor of items (generator names, id_A, id_E, swap).  Equations pair two
terms that must typecheck to the same (domain, codomain) words.  The shipped
axiom manifest is generated by build_manifest() and frozen as data/axioms.eq.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import InitVar, dataclass, field

from .tensor import LinMap, act, word

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

#: upside-down partners; the nu family pairs within itself
DAGGER = {
    "mu_A": "Delta_A", "Delta_A": "mu_A",
    "eta": "eps", "eps": "eta",
    "beta": "gamma", "gamma": "beta",
    "mu_AE": "Delta_AE", "Delta_AE": "mu_AE",
    "mu_EA": "Delta_EA", "Delta_EA": "mu_EA",
    "mu_E": "Delta_E", "Delta_E": "mu_E",
    "mu_EEA": "Delta_AEE", "Delta_AEE": "mu_EEA",
    "nu_AE": "nu_EA", "nu_EA": "nu_AE",
    "nu_EE": "nu_EE",
}

#: left-right reflection partners; everything else is mirror-symmetric
MIRROR = {
    "mu_AE": "mu_EA", "mu_EA": "mu_AE",
    "Delta_AE": "Delta_EA", "Delta_EA": "Delta_AE",
}


class TheoryError(ValueError):
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
            if item not in SIGNATURE and item not in ("id_A", "id_E", "swap"):
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


class _Var:
    """Sort unknown introduced by a swap in a leading layer."""

    __slots__ = ()


def _resolve(x, subst):
    while x in subst:
        x = subst[x]
    return x


def _unify(x, y, subst):
    x, y = _resolve(x, subst), _resolve(y, subst)
    if x is y or x == y:
        return
    if isinstance(x, _Var):
        subst[x] = y
    elif isinstance(y, _Var):
        subst[y] = x
    else:
        raise TheoryError(f"sort mismatch: {x} vs {y}")


def typecheck(term):
    """Infer (domain, codomain) words; returns (dom, cod, per-layer in-words).

    Swap sorts are inferred by unification; a term whose swap sorts stay
    undetermined is rejected as ambiguous.
    """
    subst = {}
    layer_ins = []
    current = None  # None until the first layer fixes the domain
    for layer in term:
        if current is None:
            # build the domain from the items themselves
            dom = []
            for item in layer:
                if item == "id_A":
                    dom.append(A)
                elif item == "id_E":
                    dom.append(E)
                elif item == "swap":
                    dom.extend((_Var(), _Var()))
                else:
                    dom.extend(SIGNATURE[item][0])
            current = tuple(dom)
            term_dom = current
        layer_ins.append(current)
        out, pos = [], 0
        for item in layer:
            if item in ("id_A", "id_E"):
                want = A if item == "id_A" else E
                if pos >= len(current):
                    raise TheoryError(f"layer {layer} too wide for word {current}")
                _unify(current[pos], want, subst)
                out.append(want)
                pos += 1
            elif item == "swap":
                if pos + 1 >= len(current):
                    raise TheoryError(f"swap needs two strands in word {current}")
                out.extend((current[pos + 1], current[pos]))
                pos += 2
            else:
                gdom, gcod = SIGNATURE[item]
                if pos + len(gdom) > len(current):
                    raise TheoryError(f"layer {layer} too wide for word {current}")
                for k, want in enumerate(gdom):
                    _unify(current[pos + k], want, subst)
                out.extend(gcod)
                pos += len(gdom)
        if pos != len(current):
            raise TheoryError(f"layer {layer} does not cover word {current}")
        current = tuple(out)

    def ground(w):
        out = []
        for s in w:
            s = _resolve(s, subst)
            if isinstance(s, _Var):
                raise TheoryError(f"ambiguous swap sorts in term {term_to_text(term)}")
            out.append(s)
        return tuple(out)

    return ground(term_dom), ground(current), [ground(w) for w in layer_ins]


def dagger(term):
    """Upside-down term: reversed layers, each generator replaced by its partner."""
    return tuple(
        tuple(DAGGER.get(item, item) for item in layer) for layer in reversed(term)
    )


def mirror(term):
    """Left-right reflection: each layer reversed, handed generators swapped."""
    return tuple(
        tuple(MIRROR.get(item, item) for item in reversed(layer)) for layer in term
    )


def generators_used(term):
    return {item for layer in term for item in layer if item in SIGNATURE}


@dataclass(eq=False)
class Prefix:
    """The first layers of a term over its domain (layer None for none), and
    how many equation sides start with them."""

    layer: tuple
    dom: tuple
    uses: int = 0


def _prefixes(dom, term, pieces) -> tuple:
    """The Prefix chain of a term on the domain dom, from no layer to every
    layer: each prefix is interned in pieces and counted as one more use."""
    chain = []
    for k in range(len(term) + 1):
        piece = pieces.get((dom, term[:k]))
        if piece is None:
            piece = pieces[(dom, term[:k])] = Prefix(term[k - 1] if k else None, dom)
        piece.uses += 1
        chain.append(piece)
    return tuple(chain)


def evaluate_side(side, gen_maps, spec, memo) -> LinMap:
    """The LinMap of a Prefix chain: each generator or swap of a layer acts on
    its own strands through act(); identity strands pass through untouched.

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
        if piece.layer is None:
            current = LinMap.identity(spec, word(piece.dom))
        pos = 0  # slot of the next item in the partly rewritten word
        for item in piece.layer or ():
            if item == "swap":
                current = act(current, None, (pos, pos + 1), (pos + 1, pos))
                pos += 2
            elif item in SIGNATURE:
                gen = gen_maps[item]
                current = act(current, gen, range(pos, pos + len(gen.dom)),
                              range(pos, pos + len(gen.cod)))
                pos += len(gen.cod)
            else:
                pos += 1
        if piece.uses > 1:
            memo[piece] = [current, piece.uses - 1]
    return current


def evaluate_term(term, gen_maps, spec) -> LinMap:
    """The LinMap of a term, layer by layer from the identity on its domain."""
    dom, _cod, _layer_ins = typecheck(term)
    return evaluate_side(_prefixes(dom, term, {}), gen_maps, spec, {})


# -- equations -------------------------------------------------------------------

GROUPS = (
    "frobA", "moduleE", "comoduleE", "cancel", "muDeltaE", "EEA",
    "compat", "consistency", "derived", "mobius", "quarantine",
)

PROVENANCES = ("paper", "corrected", "generated")


@dataclass(frozen=True)
class Equation:
    """Two terms that typecheck to the same words, checked when made.

    sides holds the Prefix chains of lhs and rhs on their domain, interned in
    `pieces`, so that the equations made with one dict share their prefixes.
    """

    name: str
    group: str
    provenance: str
    lhs: tuple
    rhs: tuple
    pieces: InitVar[dict] = None
    sides: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self, pieces):
        ld, lc, _ = typecheck(self.lhs)
        rd, rc, _ = typecheck(self.rhs)
        if (ld, lc) != (rd, rc):
            raise TheoryError(f"equation {self.name}: sides typecheck to {ld}->{lc} vs {rd}->{rc}")
        if self.group not in GROUPS:
            raise TheoryError(f"equation {self.name}: unknown group {self.group}")
        if self.provenance not in PROVENANCES:
            raise TheoryError(f"equation {self.name}: unknown provenance {self.provenance}")
        pieces = {} if pieces is None else pieces
        object.__setattr__(self, "sides", (_prefixes(ld, self.lhs, pieces),
                                           _prefixes(ld, self.rhs, pieces)))

    def generators(self):
        return generators_used(self.lhs) | generators_used(self.rhs)

    def words(self):
        dom, cod, _ = typecheck(self.lhs)
        return dom, cod

    def text(self) -> str:
        return (
            f"eq {self.name} [{self.group}] {{{self.provenance}}}: "
            f"{term_to_text(self.lhs)} == {term_to_text(self.rhs)}"
        )


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
    """Load the axiom manifest from a file, or the shipped default."""
    return parse_theory(_manifest_text(path))


def manifest_version(path=None):
    """The value of the first `# version:` line of a manifest file (or the
    shipped one), or None if it has none."""
    found = re.search(r"^# version:(.*)$", _manifest_text(path), re.MULTILINE)
    return found and found.group(1).strip()


# -- manifest generation -----------------------------------------------------------
#
# Base rows are written out; upside-down and mirror-image rows are generated
# mechanically and tagged {generated}.  The quarantine group carries the
# Mobius-array rows whose original form does not determine a unique well-typed
# reading; they are reported but never scored.

_FROB_A = [
    ("fa_assoc", "(mu_A (x) id_A) ; mu_A == (id_A (x) mu_A) ; mu_A"),
    ("fa_unit_l", "(eta (x) id_A) ; mu_A == id_A"),
    ("fa_unit_r", "(id_A (x) eta) ; mu_A == id_A"),
    ("fa_coassoc", "Delta_A ; (Delta_A (x) id_A) == Delta_A ; (id_A (x) Delta_A)"),
    ("fa_counit_l", "Delta_A ; (eps (x) id_A) == id_A"),
    ("fa_counit_r", "Delta_A ; (id_A (x) eps) == id_A"),
    ("fa_frob_l", "mu_A ; Delta_A == (Delta_A (x) id_A) ; (id_A (x) mu_A)"),
    ("fa_frob_r", "mu_A ; Delta_A == (id_A (x) Delta_A) ; (mu_A (x) id_A)"),
    ("fa_cancel_l", "(id_A (x) gamma) ; (beta (x) id_A) == id_A"),
    ("fa_cancel_r", "(gamma (x) id_A) ; (id_A (x) beta) == id_A"),
    ("fa_comm", "swap ; mu_A == mu_A"),
    ("fa_cocomm", "Delta_A ; swap == Delta_A"),
]

_MODULE_E = [
    ("mod_assoc", "(mu_A (x) id_E) ; mu_AE == (id_A (x) mu_AE) ; mu_AE"),
    ("mod_unit", "(eta (x) id_E) ; mu_AE == id_E"),
    ("mod_sym", "swap ; mu_AE == mu_EA"),
]

_COMODULE_E = [
    ("comod_coassoc", "Delta_AE ; (Delta_A (x) id_E) == Delta_AE ; (id_A (x) Delta_AE)"),
    ("comod_counit", "Delta_AE ; (eps (x) id_E) == id_E"),
    ("comod_sym", "Delta_AE ; swap == Delta_EA"),
]

_CANCEL = [
    ("cancel_action", "(id_A (x) Delta_AE) ; (beta (x) id_E) == mu_AE"),
    ("cancel_coaction", "(gamma (x) id_E) ; (id_A (x) mu_AE) == Delta_AE"),
]

_MU_DELTA_E = [
    ("me_assoc", "(mu_E (x) id_E) ; mu_E == (id_E (x) mu_E) ; mu_E"),
    ("me_comm", "swap ; mu_E == mu_E"),
    ("me_coassoc", "Delta_E ; (Delta_E (x) id_E) == Delta_E ; (id_E (x) Delta_E)"),
    ("me_cocomm", "Delta_E ; swap == Delta_E"),
    ("me_module_map", "(mu_AE (x) id_E) ; mu_E == (id_A (x) mu_E) ; mu_AE"),
    ("me_comodule_map", "Delta_E ; (Delta_AE (x) id_E) == Delta_AE ; (id_A (x) Delta_E)"),
    ("me_compat_l", "mu_E ; Delta_E == (Delta_E (x) id_E) ; (id_E (x) mu_E)"),
    ("me_compat_r", "mu_E ; Delta_E == (id_E (x) Delta_E) ; (mu_E (x) id_E)"),
]

_EEA = [
    ("eea_act_assoc", "(mu_EEA (x) id_E) ; mu_AE == (id_E (x) mu_EEA) ; mu_EA"),
    ("eea_assoc", "(mu_E (x) id_E) ; mu_EEA == (id_E (x) mu_E) ; mu_EEA"),
    ("eea_coact_coassoc", "Delta_AE ; (Delta_AEE (x) id_E) == Delta_EA ; (id_E (x) Delta_AEE)"),
    ("eea_coassoc", "Delta_AEE ; (Delta_E (x) id_E) == Delta_AEE ; (id_E (x) Delta_E)"),
]

_COMPAT_BASE = [
    ("compat_1", "mu_AE ; Delta_AE == (Delta_A (x) id_E) ; (id_A (x) mu_AE)"),
    ("compat_2", "mu_E ; Delta_AE == (Delta_AE (x) id_E) ; (id_A (x) mu_E)"),
    ("compat_3", "mu_EEA ; Delta_AEE == (Delta_EA (x) id_E) ; (id_E (x) mu_AE)"),
]

_CONSISTENCY = [
    ("cons_1", "(mu_EEA (x) id_E) ; mu_AE == (mu_E (x) id_E) ; mu_E"),
    ("cons_2", "mu_EEA ; Delta_AEE == mu_E ; Delta_E"),
    ("cons_3", "Delta_AE ; mu_AE == Delta_E ; mu_E"),
]

_DERIVED_BASE = [
    ("der_beta_sym", "swap ; beta == beta"),
    ("der_copairing_two_sided",
     "(id_A (x) gamma) ; (mu_A (x) id_A) == (gamma (x) id_A) ; (id_A (x) mu_A)"),
    ("der_eea_module_map", "(id_A (x) mu_EEA) ; mu_A == (mu_AE (x) id_E) ; mu_EEA"),
]

# Mobius array: top line (1)(2)(3), then right-column rows of lines 2..8.
# Left-column rows are generated as daggers of the right-column rows (the
# left-hand relations are declared to be the upside-down right-hand ones).
_MOBIUS_TOP = [
    ("mob_nu_roundtrip", "paper", "nu_AE ; nu_EA == Delta_A ; mu_A"),
    ("mob_ee_handle", "paper", "Delta_AEE ; mu_EEA == Delta_A ; mu_A"),
]

_MOBIUS_RIGHT_DAGGERED = [
    # (name, provenance, text); the left-column partner of each of these
    # lines is recovered mechanically as the dagger (suffix _dg)
    ("mob_r2", "paper", "Delta_EA ; (nu_EA (x) id_A) == nu_EA ; Delta_A"),
    ("mob_r3", "paper", "Delta_A ; (nu_AE (x) id_A) == nu_AE ; Delta_EA"),
    ("mob_r4", "paper", "Delta_AEE ; (nu_EA (x) id_E) == Delta_A ; (id_A (x) nu_AE)"),
]

_MOBIUS_EXTRA = [
    # lines 5 and 7: the right entries are unambiguous under the nu_EE retype;
    # their original left partners are quarantine rows (the duplicate and the
    # mu^A_{A,E} row).  Line 8 is recovered from its left entry.
    ("mob_r5", "corrected", "Delta_E ; (nu_EA (x) id_E) == nu_EE ; Delta_AE"),
    ("mob_r7", "corrected", "Delta_AE ; (id_A (x) nu_EE) == nu_EE ; Delta_AE"),
    ("mob_l8", "corrected", "(nu_EE (x) id_E) ; mu_E == mu_E ; nu_EE"),
]

_QUARANTINE = [
    # original rows noted; all readings use the corrected nu_EE: E -> E
    ("q_nuEE_square", "nu_EE ; nu_EE == Delta_E ; mu_E",
     "(nu_E^E)^2 = mu_E Delta_E; the source typing of nu_E^E is E -> A"),
    ("q_dup_l5", "(nu_AE (x) id_E) ; mu_E == mu_AE ; nu_EE",
     "mu_E(nu_A^E (x) |_E) = nu_E^E mu_{A,E}^E; appears twice (array lines 4 and 5)"),
    ("q_l6", "(nu_EE (x) id_E) ; mu_EEA == mu_E ; nu_EA",
     "original 'nu_A^E mu_E = mu_{E,E}^A' is missing a tensor factor; dagger reconstruction"),
    ("q_r6a", "nu_AE ; Delta_E == Delta_AEE ; (nu_EE (x) id_E)",
     "original 'Delta_E nu_E^E = (nu_E^E (x) |_E) Delta_A^{E,E} : A -> E(x)E'; reading with domain A"),
    ("q_r6b", "nu_EE ; Delta_E == Delta_E ; (nu_EE (x) id_E)",
     "same original row read with domain E; also the reading of line 8 right"),
    ("q_l7", "(id_A (x) nu_EE) ; mu_AE == mu_AE ; nu_EE",
     "original 'mu_{A,E}^A(|_A (x) nu_E^E)' typechecks only under the source typing nu_EE: E -> A"),
    ("q_r8b", "Delta_AEE ; (nu_EA (x) id_E) == nu_AE ; Delta_AE",
     "original '(nu^E_A (x) |_E) Delta_E = Delta_E nu^E_E : A -> A(x)E' read at the stated type"),
]


def _eq_from_text(name, group, provenance, text) -> Equation:
    lhs, _, rhs = text.partition("==")
    return Equation(name, group, provenance, parse_term(lhs), parse_term(rhs))


def _closure(base_eqs, group):
    """Close a list of equations under dagger and mirror, deduplicating."""
    out = list(base_eqs)
    seen = {frozenset((term_to_text(e.lhs), term_to_text(e.rhs))) for e in base_eqs}
    for eq in base_eqs:
        for suffix, fn in (("_dg", dagger), ("_mr", mirror), ("_mrdg", lambda t: dagger(mirror(t)))):
            lhs, rhs = fn(eq.lhs), fn(eq.rhs)
            key = frozenset((term_to_text(lhs), term_to_text(rhs)))
            if key in seen:
                continue
            seen.add(key)
            out.append(Equation(eq.name + suffix, group, "generated", lhs, rhs))
    return out


def build_equations() -> list:
    """The full shipped manifest as Equation objects, in file order."""
    eqs = []
    for group, rows in (
        ("frobA", _FROB_A), ("moduleE", _MODULE_E), ("comoduleE", _COMODULE_E),
        ("cancel", _CANCEL), ("muDeltaE", _MU_DELTA_E), ("EEA", _EEA),
        ("consistency", _CONSISTENCY),
    ):
        eqs.extend(_eq_from_text(name, group, "paper", text) for name, text in rows)

    compat = [_eq_from_text(n, "compat", "paper", t) for n, t in _COMPAT_BASE]
    eqs.extend(_closure(compat, "compat"))

    derived = [_eq_from_text(n, "derived", "corrected", t) for n, t in _DERIVED_BASE]
    eqs.extend(_closure(derived, "derived"))

    for name, provenance, text in _MOBIUS_TOP:
        eqs.append(_eq_from_text(name, "mobius", provenance, text))
    for name, provenance, text in _MOBIUS_RIGHT_DAGGERED:
        eq = _eq_from_text(name, "mobius", provenance, text)
        eqs.append(eq)
        eqs.append(Equation(name.replace("_r", "_l") + "_dg", "mobius", "generated",
                            dagger(eq.lhs), dagger(eq.rhs)))
    for name, provenance, text in _MOBIUS_EXTRA:
        eqs.append(_eq_from_text(name, "mobius", provenance, text))

    for name, text, _note in _QUARANTINE:
        eqs.append(_eq_from_text(name, "quarantine", "corrected", text))

    names = [e.name for e in eqs]
    assert len(names) == len(set(names))
    return eqs


MANIFEST_VERSION = "1"


def build_manifest() -> str:
    """Render the manifest file; data/axioms.eq is this string, verbatim."""
    lines = [
        "# Axiom manifest for commutative Frobenius pairs with Mobius maps.",
        f"# version: {MANIFEST_VERSION}",
        "# Generated by frobpair.theory.build_manifest(); do not edit by hand.",
        "# Provenance: {paper} = verbatim source row, {corrected} = repaired or",
        "# reconstructed reading, {generated} = mechanical dagger/mirror image",
        "# of a base row.  The derived group holds relations that follow from",
        "# the axioms (pairing symmetry, the two-sided copairing definition,",
        "# A-linearity of the E-pair (co)multiplication into A) and is checked",
        "# but expected to be a consequence of the other groups.",
        "# The quarantine group holds rows with no unique well-typed reading;",
        "# they are evaluated and reported but excluded from pass/fail scoring.",
        "",
    ]
    group = None
    quarantine_notes = {name: note for name, _t, note in _QUARANTINE}
    for eq in build_equations():
        if eq.group != group:
            group = eq.group
            lines.append(f"# -- group: {group}")
        note = quarantine_notes.get(eq.name)
        if note:
            lines.append(f"# original: {note}")
        lines.append(eq.text())
    lines.append("")
    return "\n".join(lines)
