"""Seeded mutation fuzz of the shipped data files through the CLI.

Each mutant of a pair, cube, cobordism or axiom-manifest file must give an
answer (exit 0 or 1) or one `error:` line with exit 2, never a traceback and
never a line that prints an object's address.
"""

import importlib.resources
import json
import random
import re

import pytest

from frobpair.cli import main
from frobpair.tensor import MAX_CIRCLES

DATA = importlib.resources.files("frobpair").joinpath("data")


def delete_span(rng, text):
    i = rng.randrange(len(text))
    return text[:i] + text[i + rng.randint(1, 40):]


def swap_token(rng, text):
    tokens = re.findall(r"\w+|[^\w\s]|\s+", text)
    a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
    tokens[a], tokens[b] = tokens[b], tokens[a]
    return "".join(tokens)


def replace_number(rng, text):
    m = rng.choice(list(re.finditer(r"-?\d+", text)))
    new = rng.choice(["0", "-1", "2", "3", "17", "1.5", "1e9", str(10 ** 6), str(10 ** 30)])
    return text[:m.start()] + new + text[m.end():]


def duplicate_line(rng, text):
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    return "".join(lines[:k + 1] + lines[k:])


def insert_punctuation(rng, text):
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(',:;{}[]"#*-/=') + text[i:]


def repeat_sort(rng, text):
    """One sort letter, the start of the input line, or an identity strand of
    a manifest term, repeated past the circle limit."""
    m = rng.choice(list(re.finditer(r'"[AE]"|(?<=^input)|\bid_[AE]\b', text, re.M)))
    k = rng.randint(MAX_CIRCLES + 1, MAX_CIRCLES + 8)
    if not m.group():
        new = " A" * k
    else:
        new = (" (x) " if m.group().startswith("id_") else ", ").join([m.group()] * k)
    return text[:m.start()] + new + text[m.end():]


def insert_field(rng, text):
    """A field "zz": 0 first in one JSON object; a text with no { is left as it is."""
    starts = [m.end() for m in re.finditer(r"\{", text)]
    if not starts:
        return text
    i = rng.choice(starts)
    return text[:i] + ('"zz": 0' if text[i:].lstrip().startswith("}") else '"zz": 0, ') + text[i:]


MUTATIONS = (delete_span, swap_token, replace_number, duplicate_line, insert_punctuation,
             repeat_sort, insert_field)

#: shipped file -> the command line its mutant is read by (MUTANT marks its place)
TARGETS = {
    "aps.json": ("cube", "--pair", "MUTANT", str(DATA.joinpath("fig13.cube"))),
    "fig13.cube": ("cube", "--builtin", "aps", "MUTANT"),
    "merge1.cube": ("cube", "--builtin", "aps", "MUTANT", "--coeff", "z"),
    "split1.cube": ("cube", "--builtin", "aps", "MUTANT", "--coeff", "z2"),
    "torus.cob": ("eval", "--builtin", "aps", "MUTANT"),
    "axioms.eq": ("verify", "--builtin", "aps", "--axioms", "MUTANT"),
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_mutants_exit_cleanly(tmp_path, capsys, name):
    rng = random.Random(name)
    text = DATA.joinpath(name).read_text()
    path = tmp_path / name
    argv = [str(path) if a == "MUTANT" else a for a in TARGETS[name]]
    codes, over_limit, unknown_field = set(), 0, 0
    for _ in range(150):
        mutation = rng.choice(MUTATIONS)
        mutant = mutation(rng, text)
        path.write_text(mutant)
        code = main(argv)
        out = capsys.readouterr()
        context = f"{mutation.__name__} mutant of {name}:\n{mutant}"
        assert code in (0, 1, 2), context
        assert "Traceback" not in out.err, context
        assert " object at 0x" not in out.out + out.err, context
        if code == 2:
            assert out.err.startswith("error: ") and out.err.count("\n") == 1, context
            over_limit += "over the limit" in out.err
            unknown_field += "unknown field" in out.err
        codes.add(code)
    assert 0 in codes and 2 in codes
    assert over_limit or name in ("aps.json", "axioms.eq")
    assert unknown_field or not name.endswith((".json", ".cube"))


def without_zz(value):
    if isinstance(value, dict):
        return {k: without_zz(v) for k, v in value.items() if k != "zz"}
    return [without_zz(v) for v in value] if isinstance(value, list) else value


def test_insert_field_adds_one_field_to_one_object():
    rng = random.Random(0)
    assert insert_field(rng, "input A\nmerge 1 A\n") == "input A\nmerge 1 A\n"
    for text in ("{}", '{"a": {"b": 1}, "c": { }}', DATA.joinpath("fig13.cube").read_text()):
        for _ in range(10):
            mutant = insert_field(rng, text)
            assert mutant.count('"zz"') == 1
            assert without_zz(json.loads(mutant)) == json.loads(text)
