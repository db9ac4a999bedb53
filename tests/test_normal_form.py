"""A-only cobordism words against their topological normal form.

A commutative Frobenius algebra is a 2D TQFT (Abrams 1996; Kock, LMS Student
Texts 59): a connected surface with k inputs, m outputs and genus g evaluates
to Delta^(m) o (phi .)^g o mu^(k), where phi = mu_A(Delta_A(eta(1))) is the
handle element, mu^(0) is eta and Delta^(0) is eps.  A word's map is the
tensor product of its components' maps, each component reading its input
circles and writing its output circles in their own slots.

The normal form here is a dense product over the pair's generator tables,
built apart from `frobpair.theory.evaluate_side`; `cobordism.evaluate` must
give the same map on random open and closed words for every builtin (each
passes the frobA axioms) and a different map on some word for random tables
that fail them.
"""

import itertools
import random

import pytest

from frobpair.cli import BUILTINS, build_builtin
from frobpair.cobordism import CobordismWord, birth, death, evaluate, merge, split, swap
from frobpair.pair import verify

from helpers import random_integer_pair

MAX_WIDTH = 5  # circles at once


def random_word(rng, closed):
    """(CobordismWord, its components) of a random A-only word of about 14
    events.  A component is (input slots, output slots, genus), slots in
    increasing order; a closed word has no input and ends with no circle."""
    width = 0 if closed else rng.randint(0, 3)
    parent, chi = list(range(width)), []  # union-find over circle pieces, inputs
    # first; chi: (piece, Euler characteristic of an event on it)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    slots, events = list(range(width)), []  # the piece of each running circle
    for _ in range(rng.randint(10, 18)):
        n = len(slots)
        kind = rng.choice(["birth"] * (n < MAX_WIDTH) + ["death"] * (n > 0)
                          + ["split"] * (0 < n < MAX_WIDTH) + ["merge", "swap"] * (n > 1))
        if kind == "birth":
            p = rng.randrange(n + 1)
            parent.append(len(parent))
            slots.insert(p, parent[-1])
            chi.append((parent[-1], 1))
            events.append(birth(p + 1))
        elif kind == "death":
            p = rng.randrange(n)
            chi.append((slots.pop(p), 1))
            events.append(death(p + 1))
        elif kind == "split":
            p = rng.randrange(n)
            slots.insert(p, slots[p])
            chi.append((slots[p], -1))
            events.append(split(p + 1, "AA"))
        else:
            p = rng.randrange(n - 1)
            if kind == "merge":
                parent[find(slots[p + 1])] = find(slots[p])
                chi.append((slots.pop(p + 1), -1))
                events.append(merge(p + 1, "A"))
            else:
                slots[p], slots[p + 1] = slots[p + 1], slots[p]
                events.append(swap(p + 1))
    while closed and slots:
        p = rng.randrange(len(slots))
        chi.append((slots.pop(p), 1))
        events.append(death(p + 1))
    components = {}  # root -> [input slots, output slots, Euler characteristic]
    for x in range(len(parent)):
        components.setdefault(find(x), [[], [], 0])
    for q in range(width):
        components[find(q)][0].append(q)
    for q, x in enumerate(slots):
        components[find(x)][1].append(q)
    for x, c in chi:
        components[find(x)][2] += c
    out = []
    for ins, outs, euler in components.values():
        genus, odd = divmod(2 - len(ins) - len(outs) - euler, 2)
        assert genus >= 0 and not odd
        out.append((tuple(ins), tuple(outs), genus))
    return CobordismWord(("A",) * width, events), out


class Algebra:
    """A's generators from a pair's table, dense on vectors {label tuple: value}."""

    def __init__(self, pair):
        table = pair.generator_table()
        self.zero, self.one = pair.ring.zero(), pair.ring.one()
        # generator -> input labels -> [(output labels, value)]
        self.columns = {gen: {} for gen in ("mu_A", "Delta_A", "eta", "eps")}
        for gen, columns in self.columns.items():
            for (o, t), v in table[gen].entries.items():
                columns.setdefault(t, []).append((o, v))
        self.unit = self.apply("eta", {(): self.one})
        self.phi = self.apply("mu_A", self.apply("Delta_A", self.unit))

    def apply(self, gen, vector, keep=0):
        """gen on the slots of each tuple after its first keep, which pass through."""
        out = {}
        for t, x in vector.items():
            for o, v in self.columns[gen].get(t[keep:], ()):
                out[t[:keep] + o] = out.get(t[:keep] + o, self.zero) + x * v
        return {o: v for o, v in out.items() if not v.is_zero()}

    def mul(self, x, y):
        return self.apply("mu_A", {a + b: u * v for a, u in x.items() for b, v in y.items()})

    def component(self, labels, m, genus):
        """Delta^(m) o (phi .)^genus o mu^(k) on the input labels: a vector over
        m-tuples, multiplying from the left and splitting the last factor."""
        x = {labels[:1]: self.one} if labels else self.unit
        for a in labels[1:]:
            x = self.mul(x, {(a,): self.one})
        for _ in range(genus):
            x = self.mul(x, self.phi)
        if m == 0:
            return self.apply("eps", x)
        for k in range(m - 1):
            x = self.apply("Delta_A", x, keep=k)
        return x

    def normal_form(self, width, components, labels):
        """{(output tuple, input tuple): value} of a word with these components:
        each component's map on its input circles, its outputs put in their slots."""
        entries = {}
        for t in itertools.product(labels, repeat=width):
            partial = {(None,) * sum(len(outs) for _i, outs, _g in components): self.one}
            for ins, outs, genus in components:
                vector = self.component(tuple(t[q] for q in ins), len(outs), genus)
                partial = {place(o, outs, w): u * v for o, u in partial.items()
                           for w, v in vector.items()}
            entries.update(((o, t), v) for o, v in partial.items() if not v.is_zero())
        return entries


def place(o, slots, labels):
    o = list(o)
    for q, a in zip(slots, labels):
        o[q] = a
    return tuple(o)


def nonzero(linmap):
    return {key: v for key, v in linmap.entries.items() if not v.is_zero()}


WORDS = [random_word(random.Random(seed), closed=seed % 4 == 0) for seed in range(100)]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_words_evaluate_to_their_normal_form(name):
    pair = build_builtin(name, {})
    assert verify(pair, groups=["frobA"]).ok()
    algebra, labels = Algebra(pair), pair.spec.labels("A")
    for cob, components in WORDS:
        want = algebra.normal_form(len(cob.input), components, labels)
        assert nonzero(evaluate(cob, pair)) == want, (cob.events, components)


def test_the_normal_form_catches_tables_that_fail_frob_a():
    for seed in range(5):
        pair = random_integer_pair(random.Random(seed))
        assert not verify(pair, groups=["frobA"]).ok()
        algebra, labels = Algebra(pair), pair.spec.labels("A")
        caught = [cob for cob, components in WORDS if nonzero(evaluate(cob, pair))
                  != algebra.normal_form(len(cob.input), components, labels)]
        assert caught, seed
