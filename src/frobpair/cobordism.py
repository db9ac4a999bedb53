"""Morse-decomposed cobordism words, their TQFT evaluation, the two-saddle
exchange suite, and the pole-degree computation for virtual circles.

A cobordism word lists events acting on a running word of labelled circles:
births and deaths of inessential circles, merges, splits, cross-cap (mobius)
events, and swaps.  Evaluation applies each event's generator under a chosen
Frobenius pair to the circles it touches; the other circles pass through.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from typing import NamedTuple

from .tensor import MAX_CIRCLES, LinMap, equal, move_plan, word
from .pair import VerifyRecord, VerifyReport
from .ring import FrobpairError
from .theory import SIGNATURE, evaluate_side, prefix_chain

class CobordismError(FrobpairError):
    """Illegal events, positions, or sort transitions."""


#: move kind -> (number of source circles, generator by source sorts + output
#: sorts): every SIGNATURE generator with the kind's numbers of inputs and outputs
MOVES = {kind: (n_in, {dom + cod: name for name, (dom, cod) in SIGNATURE.items()
                       if (len(dom), len(cod)) == (n_in, n_out)})
         for kind, n_in, n_out in (("merge", 2, 1), ("split", 1, 2), ("mobius", 1, 1),
                                   ("birth", 0, 1), ("death", 1, 0))}
MERGE_GEN, SPLIT_GEN, MOBIUS_GEN = (MOVES[kind][1] for kind in ("merge", "split", "mobius"))


class Move(NamedTuple):
    """One move on a word of circles: its kind (a key of MOVES, or swap), the
    0-based slots it reads, in the order its generator reads them, the slots
    of the new word it writes, and their sorts."""
    kind: str
    src: tuple
    dst: tuple
    sorts: tuple = ()


def interpret(w, kind, src, dst, sorts):
    """Read one move on the word w: (generator, output word, provenance).

    The generator reads the circles at the 0-based slots src in that order and
    writes the output sorts to the slots dst of the new word; tensor.move_plan
    places them, every other circle in its relative order, and each slot's
    provenance: the source slots it may hold, its own for an untouched circle
    and all of src for an output.  Raises CobordismError on an illegal move.
    """
    if kind not in MOVES:
        raise CobordismError(f"unknown move kind {kind!r}")
    arity, table = MOVES[kind]
    n_in, n_out = len(w), len(w) - arity + len(dst)
    if len(src) != arity or src and not 0 <= min(src) <= max(src) < n_in:
        raise CobordismError(f"{kind} positions {','.join(str(p + 1) for p in src)} out of range")
    if arity == 2 and src[0] == src[1]:  # a move reads at most two circles
        raise CobordismError(f"{kind} names circle {src[0] + 1} twice")
    key = tuple([w[p] for p in src]) + tuple(sorts)
    if key not in table:
        raise CobordismError(f"no generator for {''.join(key[:arity])}->{''.join(key[arity:])}")
    if dst and not 0 <= min(dst) <= max(dst) < n_out:
        raise CobordismError(f"{kind} outputs {','.join(str(p + 1) for p in dst)} out of range")
    if len(dst) == 2 and dst[0] == dst[1]:  # and a generator writes at most two
        raise CobordismError(f"{kind} names output {dst[0] + 1} twice")
    place, _pick, w_out = move_plan(w, src, dst, (key[:arity], key[arity:], True))
    return table[key], w_out, place((src,) * len(dst) + tuple(zip(range(n_in))))


def _capped(w):
    if len(w) > MAX_CIRCLES:
        raise CobordismError(f"a word of {len(w)} circles is over the limit of {MAX_CIRCLES}")
    return w


class CobordismWord:
    def __init__(self, input: tuple, events: list):
        self.input, self.events = input, []  # events: the Moves read, in order
        self.words = [_capped(tuple(input))]  # running words, input first
        self.moves = []  # (generator, source, output slots) per event
        for ev in events:
            self.append(ev)

    def append(self, move):
        """Read one more Move on the running word: a swap is placed by
        tensor.move_plan alone, every other move by interpret."""
        w = self.words[-1]
        if move.kind == "swap":
            if not set(move.src + move.dst) <= set(range(len(w))):
                raise CobordismError(
                    f"swap positions {','.join(str(p + 1) for p in move.src)} out of range")
            gen, current = None, move_plan(w, move.src, move.dst, None)[2]
        else:
            gen, current, _provenance = interpret(w, *move)
        self.words.append(_capped(current))
        self.moves.append((gen, move.src, move.dst))
        self.events.append(move)


def event(kind, pos, sorts=()):
    """The Move of an event at the 1-based position pos: its sources start at
    pos and its outputs take their place; a swap exchanges pos and pos + 1."""
    p = pos - 1
    if kind == "swap":
        return Move(kind, (p, p + 1), (p + 1, p))
    return Move(kind, tuple(range(p, p + MOVES[kind][0])), tuple(range(p, p + len(sorts))),
                tuple(sorts))


#: event keyword -> the number of fields on its line
EVENT_FIELDS = {"birth": 2, "death": 2, "swap": 2, "merge": 3, "split": 4, "mobius": 3}


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
    cob = None  # read event by event, so an illegal one is named by its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            head = parts[0]
            if head == "input":
                if cob is not None:
                    raise CobordismError("duplicate input line")
                cob = CobordismWord(word(parts[1:]), [])
                continue
            if cob is None:
                raise CobordismError("first line must declare the input word")
            if head not in EVENT_FIELDS:
                raise CobordismError(f"unknown event {head!r}")
            if len(parts) != EVENT_FIELDS[head]:
                raise CobordismError(f"malformed event {line!r}")
            cob.append(event(head, int(parts[1]), ("A",) if head == "birth" else parts[2:]))
        except (IndexError, ValueError) as exc:
            if isinstance(exc, CobordismError):
                raise CobordismError(f"line {lineno}: {exc}") from None
            raise CobordismError(f"line {lineno}: malformed event {line!r}") from None
    if cob is None:
        raise CobordismError("missing input line")
    return cob


def table_with(pair, gens, error=CobordismError):
    """The pair's generator table, once it has each of gens; error names the
    first one it lacks."""
    table = pair.generator_table()
    for gen in gens:
        if gen not in table:
            raise error(f"pair {pair.name!r} is missing generator {gen}")
    return table


def _table_for(cob: CobordismWord, pair):
    """The pair's generator table, once no running word of cob is too wide for
    the pair and no event's generator is missing from it."""
    for w in cob.words:
        pair.spec.check_dim(w)
    return table_with(pair, (gen for gen, _src, _dst in cob.moves if gen is not None))


def evaluate(cob: CobordismWord, pair) -> LinMap:
    """The composite LinMap of a cobordism word under a pair's generator table:
    one chain of the moves read when the word was built, through
    theory.evaluate_side."""
    chain = prefix_chain(word(cob.input), (tuple(cob.moves),), {})
    return evaluate_side(chain, _table_for(cob, pair), pair.spec, {})


# -- pole words -----------------------------------------------------------------


def _normalize_pole(w):
    out = []
    for ch in w:
        if ch in ("+", "L"):
            out.append("L")
        elif ch in ("-", "R"):
            out.append("R")
        else:
            raise CobordismError(f"unknown pole side {ch!r}")
    return out


def pole_degree(w) -> int:
    """Cancel adjacent same-side pole pairs in one stack pass.  The survivor
    alternates and has even length, so its two ends differ and no cyclic pair
    is left: it has length 2*degree."""
    w = _normalize_pole(w)
    if len(w) % 2:
        raise CobordismError("pole count must be even")
    stack = []
    for side in w:
        if stack and stack[-1] == side:
            stack.pop()
        else:
            stack.append(side)
    return len(stack) // 2


# -- the two-saddle exchange suite ------------------------------------------------
#
# The thirteen two-crossing connection cases, encoded as squares.  Each case
# fixes the number of circles at the bottom vertex and the four edges as
# position-level saddle templates ("merge"/"split"/"cross" plus bookkeeping
# swaps); the sort labelling of every circle at every vertex is enumerated
# mechanically from the generator signature by tests/diamonds.py, which ships
# the labelled squares as data/diamonds.json.  A "cross" is a saddle taking a
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


def square_plan(squares) -> tuple:
    """compare_squares' plan of squares, which no table changes: their number,
    then (index, its paths' Prefix chains) of each square the interchange rule
    leaves, in square_order.  A square is two paths, a path two moves in the
    order they apply, a move (word, generator, source slots, output slots).

    The rule leaves out, as (True, None), a square whose paths, on one bottom
    word, apply the same generators to the same circles, each second move
    reading only circles its first left untouched, and put every circle in
    the same slot: by the interchange law (f x 1)(1 x g) = f x g = (1 x g)(f x 1),
    each composite entry is then one product, at a key no other product meets.
    Each other path is a two-piece chain on its bottom word, interned in one
    dict, so theory.evaluate_side acts each distinct first move and each
    distinct path once.  No Prefix changes once planned: a plan serves any table.
    """
    left, interned = [k for k, square in enumerate(squares) if not _interchanged(square)], {}
    chains = [tuple(prefix_chain(path[0][0], tuple((move[1:],) for move in path), interned)
                    for path in squares[k]) for k in left]
    return len(squares), tuple((left[i], chains[i])
                               for i in square_order([squares[k] for k in left]))


def compare_squares(plan, table, spec) -> list:
    """tensor.equal's (ok, witness) for each square of a square_plan, in list
    order: each planned square's two chains, under table and one memo."""
    size, planned = plan
    verdicts, memo = [(True, None)] * size, {}
    for k, chains in planned:
        verdicts[k] = equal(*(evaluate_side(chain, table, spec, memo) for chain in chains))
    return verdicts


def _interchanged(square) -> bool:
    """square_plan's interchange rule, traced by act's own tensor.move_plan pickers on
    the SIGNATURE words every pair's maps have; an output is (generator, sources, index)."""
    ends = []
    for path in square:
        w, names, made, applied = path[0][0], tuple(range(len(path[0][0]))), (), set()
        for _word, gen, src, dst in path:
            sig = gen and (*SIGNATURE[gen], True)
            place, pick, w = move_plan(w, src, dst, sig)
            read = pick(names)
            if not set(made).isdisjoint(read):
                return False
            made = tuple((gen, read, j) for j in range(len(sig[1]))) if sig else ()
            applied.add((gen, read))
            names = place(made + names)
        ends.append((path[0][0], names, applied))
    return ends[0] == ends[1]


def square_order(squares) -> list:
    """The indices of squares in the order compare_squares compares them: by
    where their earlier path first appears, which holds few paths at once."""
    first = {path: k for k, path in enumerate(dict.fromkeys(p for sq in squares for p in sq))}
    return sorted(range(len(squares)), key=lambda k: min(map(first.get, squares[k])))


def diamond_exchange_suite(pair, cases=None) -> VerifyReport:
    """For every connection case and every signature-legal labelling, compare
    the two saddle orders around the square, in both directions:
    bottom paths A->B->D vs A->C->D and side paths B->A->C vs B->D->C.

    The squares of cases (all of DIAMOND_CASES by default) are read from
    data/diamonds.json, each shipped edge one move, and planned once per
    selection (_suite_plan).  One compare_squares call takes them all: of the
    460, square_plan decides 200 unevaluated, and equal is called 260 times.
    Each square is reported in its own order, with its own witness.  Every
    shipped edge is checked against the pair first, in the order the squares
    meet them, so a missing generator or an over-wide running word is
    reported as the first one met.
    """
    if cases is None:
        cases = DIAMOND_CASES
    names, plan, checks = _suite_plan(frozenset(case[0] for case in cases))
    for check in checks:  # a generator name, or a running word
        table_with(pair, (check,)) if isinstance(check, str) else pair.spec.check_dim(check)
    records = [VerifyRecord(name, "diamond", "paper", "pass" if ok else "fail", witness=witness)
               for name, (ok, witness) in zip(names, compare_squares(
                   plan, pair.generator_table(), pair.spec))]
    return VerifyReport(pair.name, records, meta={"cases": len(cases)})


@functools.lru_cache(maxsize=4)  # keyed on the selected case names
def _suite_plan(names) -> tuple:
    """diamond_exchange_suite's plan of the cases named, which no pair changes: the
    selected squares' names, their square_plan, and each distinct running word and
    generator of their edges, in the order the squares meet them."""
    data = json.loads(importlib.resources.files("frobpair").joinpath("data/diamonds.json")
                      .read_text())
    squares = [square[:2] for square in data["squares"] if square[0].split("[")[0] in names]
    edges = [data["edges"][e] for _name, four in squares for e in four]
    checks = dict.fromkeys(c for edge in edges for c in (*map(word, edge["words"]), edge["gen"]))
    moves = [(word(edge["words"][0]), edge["gen"], tuple(edge["src"]), tuple(edge["dst"]))
             for edge in data["edges"]]
    return (tuple(name for name, _four in squares),
            square_plan([((moves[a], moves[b]), (moves[c], moves[d]))
                         for _name, (a, b, c, d) in squares]), tuple(checks))
