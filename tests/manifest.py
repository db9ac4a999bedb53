"""The generator of the shipped axiom manifest, `frobpair/data/axioms.eq`.

Base rows are written out; upside-down (dagger) and mirror-image rows are
generated mechanically and tagged {generated}.  The program only loads the
frozen file; `tests/test_theory.py` checks that it equals build_manifest(),
byte for byte.  To change the manifest, edit the rows here and write

    PYTHONPATH=src:tests python -c "import manifest; \
        print(manifest.build_manifest(), end='')" > src/frobpair/data/axioms.eq
"""

from frobpair.theory import Equation, parse_term, term_to_text

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


# -- rows ----------------------------------------------------------------------------
#
# The quarantine group carries the Mobius-array rows whose original form does
# not determine a unique well-typed reading; they are reported but never scored.

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
        "# Generated by build_manifest() in tests/manifest.py; do not edit by hand.",
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
        lines.append(f"eq {eq.name} [{eq.group}] {{{eq.provenance}}}: "
                     f"{term_to_text(eq.lhs)} == {term_to_text(eq.rhs)}")
    lines.append("")
    return "\n".join(lines)
