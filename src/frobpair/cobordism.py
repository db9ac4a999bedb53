"""Morse-decomposed cobordism words, their TQFT evaluation, the two-saddle
exchange suite, and the pole-degree computation for virtual circles.

A cobordism word lists events acting on a running word of labelled circles:
births and deaths of inessential circles, merges, splits, cross-cap (mobius)
events, and swaps.  Evaluation applies each event's generator under a chosen
Frobenius pair to the circles it touches; the other circles pass through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .tensor import MAX_CIRCLES, LinMap, act, equal, word
from .pair import VerifyRecord, VerifyReport

SORT_NAMES = ("A", "E")


class CobordismError(ValueError):
    """Illegal events, positions, or sort transitions."""


#: (in sorts) + out sort -> generator
MERGE_GEN = {
    ("A", "A", "A"): "mu_A",
    ("A", "E", "E"): "mu_AE",
    ("E", "A", "E"): "mu_EA",
    ("E", "E", "A"): "mu_EEA",
    ("E", "E", "E"): "mu_E",
}
SPLIT_GEN = {
    ("A", "A", "A"): "Delta_A",
    ("E", "A", "E"): "Delta_AE",
    ("E", "E", "A"): "Delta_EA",
    ("E", "E", "E"): "Delta_E",
    ("A", "E", "E"): "Delta_AEE",
}
MOBIUS_GEN = {("A", "E"): "nu_AE", ("E", "A"): "nu_EA", ("E", "E"): "nu_EE"}


@dataclass(frozen=True)
class Event:
    kind: str            # birth | death | merge | split | mobius | swap
    pos: int             # 1-based position of the (first) circle acted on
    sorts: tuple = ()    # out sort(s) where the generator table needs them


def birth(pos):
    return Event("birth", pos)


def death(pos):
    return Event("death", pos)


def merge(pos, out_sort):
    return Event("merge", pos, (out_sort,))


def split(pos, out_sorts):
    return Event("split", pos, tuple(out_sorts))


def mobius(pos, out_sort):
    return Event("mobius", pos, (out_sort,))


def swap(pos):
    return Event("swap", pos)


def step(current, event):
    """Apply one event to a running word; returns (generator, new word).

    The generator is None for a swap, which only reorders circles.
    """
    w = list(current)
    k, p = event.kind, event.pos
    if k == "birth":
        if not 1 <= p <= len(w) + 1:
            raise CobordismError(f"position {p} out of range")
        return "eta", tuple(w[:p - 1] + ["A"] + w[p - 1:])
    if k == "death":
        if not 1 <= p <= len(w):
            raise CobordismError(f"position {p} out of range")
        if w[p - 1] != "A":
            raise CobordismError(f"no counit for sort {w[p - 1]}")
        return "eps", tuple(w[:p - 1] + w[p:])
    if k == "swap":
        if not 1 <= p < len(w):
            raise CobordismError(f"position {p} out of range")
        w[p - 1], w[p] = w[p], w[p - 1]
        return None, tuple(w)
    if k == "merge":
        if not 1 <= p < len(w):
            raise CobordismError(f"position {p} out of range")
        key = (w[p - 1], w[p], event.sorts[0])
        gen = MERGE_GEN.get(key)
        if gen is None:
            raise CobordismError(f"no generator for {key[0]}{key[1]}->{key[2]}")
        return gen, tuple(w[:p - 1] + [event.sorts[0]] + w[p + 1:])
    if k == "split":
        if not 1 <= p <= len(w):
            raise CobordismError(f"position {p} out of range")
        key = (w[p - 1],) + tuple(event.sorts)
        gen = SPLIT_GEN.get(key)
        if gen is None:
            raise CobordismError(f"no generator for {key[0]}->{key[1]}{key[2]}")
        return gen, tuple(w[:p - 1] + list(event.sorts) + w[p:])
    if k == "mobius":
        if not 1 <= p <= len(w):
            raise CobordismError(f"position {p} out of range")
        key = (w[p - 1], event.sorts[0])
        gen = MOBIUS_GEN.get(key)
        if gen is None:
            raise CobordismError(f"no generator for {key[0]}->{key[1]}")
        return gen, tuple(w[:p - 1] + [event.sorts[0]] + w[p:])
    raise CobordismError(f"unknown event kind {k}")


@dataclass
class CobordismWord:
    input: tuple
    events: list
    words: list = field(default_factory=list)  # running words, input first

    def __post_init__(self):
        current = tuple(self.input)
        self.words = []
        for ev in [None, *self.events]:  # None stands for the input word
            if ev is not None:
                _, current = step(current, ev)
            if len(current) > MAX_CIRCLES:
                raise CobordismError(f"a word of {len(current)} circles is over the "
                                     f"limit of {MAX_CIRCLES}")
            self.words.append(current)

    @property
    def output(self):
        return self.words[-1]


#: event keyword -> (fields on its line, constructor taking the fields after it)
EVENT_FIELDS = {
    "birth": (2, birth), "death": (2, death), "swap": (2, swap), "merge": (3, merge),
    "split": (4, lambda pos, s1, s2: split(pos, (s1, s2))), "mobius": (3, mobius),
}


def parse_cobordism(text) -> CobordismWord:
    """One event per line after an `input` line, e.g.::

        input A E A
        merge 1 E
        birth 2
        mobius 1 A
        swap 2
        split 1 E E
        death 1
    """
    input_word = None
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            head = parts[0]
            if head == "input":
                if input_word is not None:
                    raise CobordismError("duplicate input line")
                input_word = word(parts[1:])
                continue
            if input_word is None:
                raise CobordismError("first line must declare the input word")
            if head not in EVENT_FIELDS:
                raise CobordismError(f"unknown event {head!r}")
            n_fields, make = EVENT_FIELDS[head]
            if len(parts) != n_fields:
                raise CobordismError(f"malformed event {line!r}")
            events.append(make(int(parts[1]), *parts[2:]))
        except (IndexError, ValueError) as exc:
            if isinstance(exc, CobordismError):
                raise CobordismError(f"line {lineno}: {exc}") from None
            raise CobordismError(f"line {lineno}: malformed event {line!r}") from None
    if input_word is None:
        raise CobordismError("missing input line")
    try:
        return CobordismWord(input_word, events)
    except CobordismError as exc:
        raise CobordismError(str(exc)) from None


def evaluate(cob: CobordismWord, pair) -> LinMap:
    """The composite LinMap of a cobordism word under a pair's generator table."""
    table = pair.generator_table()
    current = LinMap.identity(pair.spec, word(cob.input))
    for ev, w in zip(cob.events, cob.words):
        p = ev.pos - 1
        if ev.kind == "swap":
            current = act(current, None, (p, p + 1), (p + 1, p))
            continue
        gen, _ = step(w, ev)
        if gen not in table:
            raise CobordismError(f"pair {pair.name!r} is missing generator {gen}")
        m = table[gen]
        current = act(current, m, range(p, p + len(m.dom)), range(p, p + len(m.cod)))
    return current


# -- pole words -----------------------------------------------------------------


def _normalize_pole(w):
    out = []
    for ch in w:
        if ch in ("+", "L", "left"):
            out.append("L")
        elif ch in ("-", "R", "right"):
            out.append("R")
        else:
            raise CobordismError(f"unknown pole side {ch!r}")
    return out


def pole_degree(w) -> int:
    """Cancel cyclically-adjacent same-side pole pairs until none remain;
    the surviving word alternates and has length 2*degree."""
    w = _normalize_pole(w)
    if len(w) % 2:
        raise CobordismError("pole count must be even")
    changed = True
    while changed and w:
        changed = False
        n = len(w)
        for i in range(n):
            j = (i + 1) % n
            if i != j and w[i] == w[j]:
                w = [w[k] for k in range(n) if k not in (i, j)]
                changed = True
                break
    return len(w) // 2


def total_degree(components) -> int:
    return sum(pole_degree(c) for c in components)


def is_essential(components) -> bool:
    return total_degree(components) > 0


# -- the two-saddle exchange suite ------------------------------------------------
#
# The thirteen two-crossing connection cases, encoded as squares.  Each case
# fixes the number of circles at the bottom vertex and the four edges as
# position-level saddle templates ("merge"/"split"/"cross" plus bookkeeping
# swaps); the sort labelling of every circle at every vertex is enumerated
# mechanically from the generator signature.  A "cross" is a saddle taking a
# connected circle to a connected circle: it can only be labelled by a nu
# generator, which enforces that at least one side is essential.

DIAMOND_CASES = [
    # (name, circles at A, v at A, w at B, w at A, v at C)
    ("case01_one_circle_linked", 1,
     [("split", 1)], [("merge", 1)], [("split", 1)], [("merge", 1)]),
    ("case02_one_circle_nested", 1,
     [("split", 1)], [("split", 2)], [("split", 1)], [("split", 1)]),
    ("case03_one_circle_disjoint", 1,
     [("split", 1)], [("split", 2)], [("split", 1)], [("split", 1), ("swap", 2)]),
    ("case04_bridge_self_left_near", 2,
     [("merge", 1)], [("split", 1)], [("split", 1)], [("merge", 2)]),
    ("case05_bridge_self_left_far", 2,
     [("merge", 1)], [("split", 1)], [("split", 1)], [("swap", 1), ("merge", 2), ("swap", 1)]),
    ("case06_bridge_self_right", 2,
     [("merge", 1)], [("split", 1)], [("split", 2)], [("merge", 1)]),
    ("case07_parallel_bridges", 2,
     [("merge", 1)], [("split", 1)], [("merge", 1)], [("split", 1)]),
    ("case08_crossed_bridges", 2,
     [("merge", 1)], [("cross", 1)], [("merge", 1)], [("cross", 1)]),
    ("case09_chain", 3,
     [("merge", 1)], [("merge", 1)], [("merge", 2)], [("merge", 1)]),
    ("case10_bridge_far_self", 3,
     [("merge", 1)], [("split", 2)], [("split", 3)], [("merge", 1)]),
    ("case11_two_far_selfs", 2,
     [("split", 1)], [("split", 3)], [("split", 2)], [("split", 1)]),
    ("case12_far_bridges", 4,
     [("merge", 1)], [("merge", 2)], [("merge", 3)], [("merge", 1)]),
    ("case13_self_far_bridge", 3,
     [("split", 1)], [("merge", 3)], [("merge", 2)], [("split", 1)]),
]


def _edge_labelings(w, steps):
    """All (events, out_word) pairs realizing the position templates on w."""
    options = [([], tuple(w))]
    for kind, pos in steps:
        nxt = []
        for events, cur in options:
            if kind == "swap":
                ev = swap(pos)
                nxt.append((events + [ev], step(cur, ev)[1]))
            elif kind == "merge":
                for out in SORT_NAMES:
                    if (cur[pos - 1], cur[pos], out) in MERGE_GEN:
                        ev = merge(pos, out)
                        nxt.append((events + [ev], step(cur, ev)[1]))
            elif kind == "split":
                for s1 in SORT_NAMES:
                    for s2 in SORT_NAMES:
                        if (cur[pos - 1], s1, s2) in SPLIT_GEN:
                            ev = split(pos, (s1, s2))
                            nxt.append((events + [ev], step(cur, ev)[1]))
            elif kind == "cross":
                for out in SORT_NAMES:
                    if (cur[pos - 1], out) in MOBIUS_GEN:
                        ev = mobius(pos, out)
                        nxt.append((events + [ev], step(cur, ev)[1]))
        options = nxt
    return options


def _reverse_events(events, words):
    """The upside-down edge: each saddle read in the other direction."""
    out = []
    for ev, before, after in zip(reversed(events), reversed(words[:-1]), reversed(words[1:])):
        p = ev.pos
        if ev.kind == "swap":
            out.append(swap(p))
        elif ev.kind == "merge":
            out.append(split(p, (before[p - 1], before[p])))
        elif ev.kind == "split":
            out.append(merge(p, before[p - 1]))
        elif ev.kind == "mobius":
            out.append(mobius(p, before[p - 1]))
        else:
            raise CobordismError(f"cannot reverse {ev.kind}")
    return out


def diamond_exchange_suite(pair, cases=None) -> VerifyReport:
    """For every connection case and every signature-legal labelling, compare
    the two saddle orders around the square, in both directions:
    bottom paths A->B->D vs A->C->D and side paths B->A->C vs B->D->C."""
    if cases is None:
        cases = DIAMOND_CASES
    records = []
    for name, n0, v_a, w_b, w_a, v_c in cases:
        for a_word in product(SORT_NAMES, repeat=n0):
            for v_events, b_word in _edge_labelings(a_word, v_a):
                for w_events, d_word in _edge_labelings(b_word, w_b):
                    for w2_events, c_word in _edge_labelings(a_word, w_a):
                        for v2_events, d2_word in _edge_labelings(c_word, v_c):
                            if d_word != d2_word:
                                continue
                            label = "".join(a_word) + ">" + "".join(b_word) + "|" + \
                                "".join(c_word) + ">" + "".join(d_word)
                            abd = CobordismWord(a_word, v_events + w_events)
                            acd = CobordismWord(a_word, w2_events + v2_events)
                            ok1, wit1 = equal(evaluate(abd, pair), evaluate(acd, pair))
                            records.append(VerifyRecord(
                                f"{name}[{label}]/bottom", "diamond", "paper",
                                "pass" if ok1 else "fail", witness=wit1))
                            rev_v = _reverse_events(v_events, abd.words[:len(v_events) + 1])
                            bac = CobordismWord(b_word, rev_v + w2_events)
                            rev_v2 = _reverse_events(
                                v2_events, acd.words[len(w2_events):])
                            bdc = CobordismWord(b_word, w_events + rev_v2)
                            ok2, wit2 = equal(evaluate(bac, pair), evaluate(bdc, pair))
                            records.append(VerifyRecord(
                                f"{name}[{label}]/side", "diamond", "paper",
                                "pass" if ok2 else "fail", witness=wit2))
    return VerifyReport(pair.name, records, meta={"cases": len(cases)})
