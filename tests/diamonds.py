"""The generator of the shipped saddle-exchange suite, `frobpair/data/diamonds.json`.

Every signature-legal sort labelling of every connection case of
`frobpair.cobordism.DIAMOND_CASES` is enumerated mechanically from the
generator signature; each labelling gives two squares, the bottom one and the
side one.  A square is two paths and a path is two edges, each edge the
events of one saddle plus bookkeeping swaps on a start word.

The file holds the case names, the distinct edges numbered in the order the
squares meet them, and the squares in record order, each by its record name,
the edge numbers of its two paths and its relabelling class.  Two squares are
in one class when they differ only by the order of their circles or of their
two paths (see relabelling_key); they then pass or fail together, and a class
is numbered by the index of its first square.  The 460 squares fall into 215
classes.  An edge is folded into one move, its swaps absorbed into the slot
maps: the generator, the 0-based source slots it reads and the output slots
it writes, every other circle keeping its relative order (as `tensor.act`
places them).  It keeps its running words, the start word first, so that the
program refuses an over-wide word by the same name as evaluating the edge's
events would.

The program only loads the frozen file; `tests/test_cobordism.py` checks that
it equals build_diamonds(), byte for byte.  To change the suite, edit
DIAMOND_CASES or the enumeration here and write

    PYTHONPATH=src:tests python -c "import diamonds; \
        print(diamonds.build_diamonds(), end='')" > src/frobpair/data/diamonds.json
"""

import json
from itertools import permutations, product

from frobpair.cobordism import DIAMOND_CASES, MOVES, CobordismWord, Event, swap
from frobpair.tensor import SORTS


def step(current, event):
    """Apply one event to a running word; returns (generator, new word), the
    generator None for a swap, which only reorders circles."""
    cob = CobordismWord(current, [event])
    return cob.moves[0][0], cob.words[-1]


def edge_labelings(w, steps):
    """All (events, out_word) pairs realizing the position templates on w."""
    options = [([], tuple(w))]
    for kind, pos in steps:
        nxt = []
        for events, cur in options:
            if kind == "swap":
                labelled = [swap(pos)]
            else:
                move = "mobius" if kind == "cross" else kind
                arity, table = MOVES[move]
                labelled = [Event(move, pos, key[arity:]) for key in sorted(table)
                            if key[:arity] == cur[pos - 1:pos - 1 + arity]]
            nxt.extend((events + [ev], step(cur, ev)[1]) for ev in labelled)
        options = nxt
    return options


#: move kind -> the kind of the same move read upside down
REVERSED = {"merge": "split", "split": "merge", "mobius": "mobius"}


def reverse_events(start, events):
    """The upside-down edge of events on start, from their end back to start:
    each move read in the other direction, writing the sorts it consumed."""
    words = CobordismWord(start, events).words
    return [ev if ev.kind == "swap" else
            Event(REVERSED[ev.kind], ev.pos, before[ev.pos - 1:ev.pos - 1 + MOVES[ev.kind][0]])
            for ev, before in zip(reversed(events), reversed(words[:-1]))]


def labelled_squares(cases):
    """(record name, path, other path) for both directions of every
    signature-legal labelling of every case.  A path is its two edges in the
    order they apply, each a (start word, events) pair."""
    for name, n0, v_a, w_b, w_a, v_c in cases:
        for a_word in product(SORTS, repeat=n0):
            for v_events, b_word in edge_labelings(a_word, v_a):
                for w_events, d_word in edge_labelings(b_word, w_b):
                    for w2_events, c_word in edge_labelings(a_word, w_a):
                        for v2_events, d2_word in edge_labelings(c_word, v_c):
                            if d_word != d2_word:
                                continue
                            label = f"{name}[{''.join(a_word)}>{''.join(b_word)}|" \
                                f"{''.join(c_word)}>{''.join(d_word)}]"
                            v, w = (a_word, tuple(v_events)), (b_word, tuple(w_events))
                            w2, v2 = (a_word, tuple(w2_events)), (c_word, tuple(v2_events))
                            rev_v = (b_word, tuple(reverse_events(a_word, v_events)))
                            rev_v2 = (d_word, tuple(reverse_events(c_word, v2_events)))
                            yield f"{label}/bottom", (v, w), (w2, v2)
                            yield f"{label}/side", (rev_v, w2), (w, rev_v2)


def numbered_squares():
    """(the distinct edges of DIAMOND_CASES in the order the squares meet
    them, [(record name, the four edge numbers of its two paths)] in record
    order)."""
    number, squares = {}, []
    for name, *paths in labelled_squares(DIAMOND_CASES):
        squares.append((name, [number.setdefault(edge, len(number))
                               for path in paths for edge in path]))
    return list(number), squares


def fold(start, events):
    """The edge of events on start as one move: (running words, generator,
    source slots, output slots).  Raises AssertionError unless the edge has
    one generator and keeps its untouched circles in their relative order."""
    cob = CobordismWord(start, events)
    (gen,) = [g for g, _s, _d in cob.moves if g is not None]
    origin = list(range(len(start)))  # slot -> start slot, or ~j for output j
    for g, s, d in cob.moves:
        if g is None:  # a swap
            p, q = s
            origin[p], origin[q] = origin[q], origin[p]
            continue
        src, outputs = [origin[p] for p in s], {q: ~j for j, q in enumerate(d)}
        rest = iter([o for p, o in enumerate(origin) if p not in s])
        origin = [outputs[q] if q in outputs else next(rest)
                  for q in range(len(origin) - len(s) + len(d))]
    untouched = [o for o in origin if o >= 0]
    assert untouched == sorted(untouched), (start, events)
    return cob.words, gen, tuple(src), tuple(origin.index(~j) for j in range(len(outputs)))


def relabelling_key(paths):
    """The least description of a square over every renaming of its bottom
    circles and both orders of its two paths; paths are two paths of two
    folded moves (running words, generator, source slots, output slots).

    A bottom circle is named by its new number and a circle a move makes by
    (path, step, output index); each move is recorded as (generator, input
    names, output names), and the top word as the sorted (first path's name,
    second path's name) pairs, slot by slot.  Two squares with one key have
    path maps that differ by the same input and output slot permutations on
    both sides, so they are equal for one exactly when they are for the other.
    """
    bottom = paths[0][0][0][0]
    keys = []
    for perm in permutations(range(len(bottom))):
        sorts = tuple(bottom[perm.index(k)] for k in range(len(bottom)))
        for order in (paths, paths[::-1]):
            moves, tops = [], []
            for p, path in enumerate(order):
                names = [(-1, 0, k) for k in perm]  # slot -> circle name
                for s, (_words, gen, src, dst) in enumerate(path):
                    outs = {q: (p, s, j) for j, q in enumerate(dst)}
                    moves.append((gen, tuple(names[q] for q in src), tuple(outs.values())))
                    rest = iter([n for q, n in enumerate(names) if q not in src])
                    names = [outs[q] if q in outs else next(rest)
                             for q in range(len(names) - len(src) + len(dst))]
                tops.append(names)
            keys.append((sorts, tuple(moves), tuple(sorted(zip(*tops)))))
    return min(keys)


def relabelling_classes(folded, squares) -> list:
    """For each square (record name, four edge numbers), the index of the
    first square with its relabelling_key; folded holds the folded edges."""
    first = {}
    return [first.setdefault(relabelling_key(((folded[a], folded[b]), (folded[c], folded[d]))), k)
            for k, (_name, (a, b, c, d)) in enumerate(squares)]


def build_diamonds() -> str:
    """Render the suite file; data/diamonds.json is this string, verbatim."""
    edges, squares = numbered_squares()
    folded = [fold(*edge) for edge in edges]
    rows = [json.dumps({"words": ["".join(w) for w in words], "gen": gen, "src": src,
                        "dst": dst})
            for words, gen, src, dst in folded]
    classed = [[name, four, cls] for (name, four), cls
               in zip(squares, relabelling_classes(folded, squares))]
    return "{\n" + f'"cases": {json.dumps([case[0] for case in DIAMOND_CASES])},\n' + \
        '"edges": [\n' + ",\n".join(rows) + "\n],\n" + \
        '"squares": [\n' + ",\n".join(json.dumps(square) for square in classed) + "\n]\n}\n"
