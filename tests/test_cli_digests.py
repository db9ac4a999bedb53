"""Golden digests of whole CLI runs: the same argv must give the same bytes.

Each digest is the sha256 of the exit code, stdout and stderr of one
in-process `frobpair` run; a `diamond` run is made twice in one process, and
`diamond --builtin it` once more in a fresh interpreter, so that the kept and
the newly made suite plan both give the pinned bytes.  A `construct` run
pins a builtin's whole pair file.  A change that claims to keep every answer
keeps every digest here; a change that means to alter an answer records the new
digest and says why.  Print the current table with

    PYTHONPATH=src python3 tests/test_cli_digests.py
"""

import contextlib
import hashlib
import importlib.resources
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from frobpair.cli import main
from frobpair.pair import pair_to_json
from helpers import (cube_to_json, double_z2, item_one_cubes, random_cube, random_integer_pair,
                     rank2_at_a1, twice_bad_coefficient_pair)

ROOT = Path(__file__).resolve().parent.parent
DATA = importlib.resources.files("frobpair").joinpath("data")
APS_FILE = str(DATA.joinpath("aps.json"))
#: a ten-circle word of both sorts with merge, split, mobius and swap events
MIXED10 = str(Path(__file__).parent / "data" / "mixed10.cob")
#: stand in an argv for the paths of the files the test writes: the ROADMAP's
#: non-complex repro cube, a random six-crossing cube, the benchmark's two
#: pair files, a pair file with one bad coefficient text in two rows and a
#: seeded random integer table, which fails many saddle-exchange squares
REPRO = "<repro cube>"
RANDOM6 = "<random n=6 cube>"
RANK2_A1 = "<rank2-a1 pair>"
DOUBLE_Z2 = "<double-z2 pair>"
BAD_COEFF = "<twice bad coefficient pair>"
RANDOM_TABLE = "<random integer table>"
#: malformed cube files, one for each refusal that loading a cube file can
#: give once its fields parse: each of the vertex scan's, and a bad edge key
#: (a file cannot hold an edge on a 1-bit: an edge key's * reads as a 0)
BAD_CUBES = ("missing-vertex", "missing-edge", "illegal-move", "wrong-word", "square",
             "edge-key")
#: `snf` inputs, so that a change to the text of U or V declares itself:
#: a diagonal matrix, a zero matrix and a 3 x 4 matrix with torsion 2, 2, 6
SNF_MATRICES = {"diagonal": [[2, 0], [0, 3]], "zero": [[0, 0, 0], [0, 0, 0]],
                "torsion": [[2, 4, 4, 0], [-6, 6, 12, 2], [10, -4, -16, 6]]}

SOURCES = {
    "aps": ("--builtin", "aps"),
    "tt": ("--builtin", "tt"),
    "it": ("--builtin", "it"),
    "sqrt": ("--builtin", "sqrt"),
    "rank2": ("--builtin", "rank2"),
    "double": ("--builtin", "double"),
    "it-strict": ("--builtin", "it", "--strict-partial"),
    "aps-file": ("--pair", APS_FILE),
    "tt-l1": ("--builtin", "tt", "--specialize", "l=1"),
    "it-t1": ("--builtin", "it", "--specialize", "t=1"),
    "sqrt-a1b1": ("--builtin", "sqrt", "--specialize", "a=1,b=1"),
    # three refusals: an unknown variable and two non-units for invertible ones
    "tt-q1": ("--builtin", "tt", "--specialize", "q=1"),
    "tt-l0": ("--builtin", "tt", "--specialize", "l=0"),
    "sqrt-a2b1": ("--builtin", "sqrt", "--specialize", "a=2,b=1"),
    "rank2-a1-file": ("--pair", RANK2_A1),
    "double-z2-file": ("--pair", DOUBLE_Z2),
    "bad-coeff-file": ("--pair", BAD_COEFF),
    "random-table-file": ("--pair", RANDOM_TABLE),
    # the benchmark's median algebra job: one rank-2 pair, admissible or not
    "rank2-ok": ("--builtin", "rank2", "--params", "a=1,cYZ=1,dYZ=1,eY=1,eZ=1,fY=1,fZ=1"),
    "rank2-bad": ("--builtin", "rank2", "--params", "a=-2,cYY=3,cYZ=-1,dZZ=2,eY=1,fZ=-3"),
    # the README's rank-2 example and a set with every parameter nonzero
    "rank2-readme": ("--builtin", "rank2", "--params", "a=0,cYZ=1,dYZ=1,eY=1,eZ=1,fY=1,fZ=1"),
    "rank2-full": ("--builtin", "rank2", "--params",
                   "a=-2,cYY=3,cYZ=-1,cZZ=2,dYY=-3,dYZ=5,dZZ=1,eY=4,eZ=-1,fY=2,fZ=-5"),
    "double-z2h1": ("--builtin", "double", "--params", "algebra=z2h1"),
    "matrix": (),  # snf reads no pair
}

COMMANDS = {
    "construct": ("construct",),
    "verify-text": ("verify",),
    "verify-json": ("verify", "--report", "json"),
    "diamond": ("diamond",),
    "eval-torus": ("eval", str(DATA.joinpath("torus.cob"))),
    "eval-mixed10": ("eval", MIXED10),
    **{f"cube-{name}-{coeff}": ("cube", str(DATA.joinpath(f"{name}.cube")), "--coeff", coeff)
       for name in ("fig13", "merge1", "split1") for coeff in ("q", "z", "z2")},
    "cube-repro-q": ("cube", REPRO, "--coeff", "q"),
    **{f"cube-random6-{coeff}": ("cube", RANDOM6, "--coeff", coeff) for coeff in ("q", "z", "z2")},
    **{f"cube-bad-{name}": ("cube", f"<{name} cube>", "--coeff", "q") for name in BAD_CUBES},
    **{f"snf-{name}": ("snf", f"<{name} matrix>") for name in SNF_MATRICES},
}

DIGESTS = {
    ("aps", "verify-text"): "89e32f3c72615aab1c26516327e2b4461c453d913d05f3fad4a68fc5c5a01899",
    ("aps", "verify-json"): "af30dfe98f7171afdc681a3bd459a33b482f6bf624a8ea96963e33a90e65cb31",
    ("aps", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("tt", "verify-text"): "89e32f3c72615aab1c26516327e2b4461c453d913d05f3fad4a68fc5c5a01899",
    ("tt", "verify-json"): "09bfbff7d8b1116485d835a3667905fe5ed342c7b3770245c28ff762b2da2f90",
    ("tt", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("it", "verify-text"): "45ff74cd8e9bf7c0131a3a51c7527ce8eddd6ac68966695f9ff8b96106af4ed7",
    ("it", "verify-json"): "aec619fa5c81fedbd36790715e52205657f2de4e9dd490ceeb88b8bd1ef5b702",
    ("it", "diamond"): "3dcf49d4a055660662ed6770ccadfe06d707a1b3946efe9b61ff2c9ce91fbe7e",
    ("sqrt", "verify-text"): "89e32f3c72615aab1c26516327e2b4461c453d913d05f3fad4a68fc5c5a01899",
    ("sqrt", "verify-json"): "7a2f7ba9677b2f40ef44b4d0a93d321887b13e81eebebbab415d61464febaf94",
    ("sqrt", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("rank2", "verify-text"): "6bb4cae5187581f47ffc75deb8c83977857f1b28bb0cdff94ad2cbe603a32406",
    ("rank2", "verify-json"): "9b3317dc7750db5140c646dd0e7f6a4bae7d215f1769d7ef561291b6ae539dd7",
    ("rank2", "diamond"): "2e6efd134627c5c08bc2db4ac30a0208332987e1efe1a602c6bb0b9fa6733b28",
    ("double", "verify-text"): "d98f2ed3ff3f7a2203567e9beff830b5a7f5fb9e0104388f4d021470a068015b",
    ("double", "verify-json"): "3af70a114a3db7fcaac815566c4afafc50cd3cea01eb8ab34b3830c826c90604",
    ("double", "diamond"): "200f1cf86fb2bfe253638ca1c205c912b14d5b97ed7fed3f45af225c3e3a18b9",
    ("it-strict", "verify-text"): "8f35448c7d97367569251d35eed26c4b4b57be6db0552e8962ea368cd23f998f",
    ("it-strict", "verify-json"): "d316a5d6a07705ab367b0e8f2b994c5ce7c0b9e0b4a8dffad9080046125d1668",
    ("it-strict", "diamond"): "c8deb258d52db2d951bf478b2460919a6edd250130b1b13e294ed88b3ec0bcba",
    ("aps-file", "verify-text"): "89e32f3c72615aab1c26516327e2b4461c453d913d05f3fad4a68fc5c5a01899",
    ("aps-file", "verify-json"): "af30dfe98f7171afdc681a3bd459a33b482f6bf624a8ea96963e33a90e65cb31",
    ("aps-file", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("aps", "eval-torus"): "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    ("tt", "eval-torus"): "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    ("it", "eval-torus"): "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    ("sqrt", "eval-torus"): "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    ("aps-file", "eval-torus"): "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    ("aps", "eval-mixed10"): "29395815e388e9e7262c38233368f0d49240b7685d53511588a5828c72d78886",
    ("tt", "eval-mixed10"): "24e03738315169e419d3f88392abf02cce4992985d70658fb9d26eff9a66a491",
    ("double", "eval-mixed10"): "6d18727e33eb8039fe5bf8acda461ca04547fdeeada255802214ba3a1dd87553",
    ("aps", "cube-fig13-q"): "1aae485e21f4c33c9df5dbccc01b0f0fc2f19387ac78647b39c45a160b40e26d",
    ("aps", "cube-fig13-z"): "950d9cc2287414ff55dacac9864a4cf2cc9f4878f3c6d6fe405ab227776869b8",
    ("aps", "cube-fig13-z2"): "1aae485e21f4c33c9df5dbccc01b0f0fc2f19387ac78647b39c45a160b40e26d",
    ("aps", "cube-merge1-q"): "ac524f96060acb9e01c39e47a2f721a77c042ad3d618144477bc27398d0b9451",
    ("aps", "cube-merge1-z"): "2189507307f7fcf213d802ea411702dc818821b9da458f01e660064a56f1c33e",
    ("aps", "cube-merge1-z2"): "ac524f96060acb9e01c39e47a2f721a77c042ad3d618144477bc27398d0b9451",
    ("aps", "cube-split1-q"): "4f42a96e3fffd273e2cb96bb0abc3c3a06e0c6a895a796c87312c72676aadc6a",
    ("aps", "cube-split1-z"): "37a3c63bf475ac6cc7caa78e8526593f72069d9e996a8ca379f0f7ad9130ce2d",
    ("aps", "cube-split1-z2"): "4f42a96e3fffd273e2cb96bb0abc3c3a06e0c6a895a796c87312c72676aadc6a",
    ("tt-l1", "cube-fig13-z2"): "7b3d3598fe30de1ab25ec3ae8661081a2e384031b7340b45086e1d7fd547d810",
    ("tt-l1", "cube-merge1-z2"): "ac524f96060acb9e01c39e47a2f721a77c042ad3d618144477bc27398d0b9451",
    ("tt-l1", "cube-split1-z2"): "4f42a96e3fffd273e2cb96bb0abc3c3a06e0c6a895a796c87312c72676aadc6a",
    ("sqrt-a1b1", "cube-fig13-q"): "7b3d3598fe30de1ab25ec3ae8661081a2e384031b7340b45086e1d7fd547d810",
    ("sqrt-a1b1", "cube-fig13-z"): "92973177f005ce70437f1566e7c11939a9fe590e8bed2a30e6e65ba47523aa90",
    ("tt-q1", "cube-fig13-z2"): "5ae14c87c396cdba256ebe59992b7434a810cbac348894d7a3a8f187e18f9e0f",
    ("tt-l0", "cube-fig13-z2"): "a62c3fc1d3d8f0053a7d84a655b5438232eb28882bffe0e5bdc2b398cbeebec5",
    ("sqrt-a2b1", "cube-fig13-z"): "499cd667bcfbe95b81bd14febe0f5e55b2b8565dc454c3511da0b915b043df8c",
    ("it-t1", "cube-repro-q"): "3c2d77cb7fea68471d255a9b12421cb7c13c28af6c904a06d53c939a7191d2ae",
    ("aps", "cube-random6-q"): "67537056b494cdaba01583f20ca1622cdbdf2a281eb37a0fb212c890a544f2c2",
    ("aps", "cube-random6-z"): "059098cc05f4384228d14394b78d1a3ac74629d65c650ead49cc10ba6a3001ea",
    ("aps", "cube-random6-z2"): "2fcd2a787b257c25515e273295350411d41badc1b6a2be755eed87279ba4f223",
    ("rank2-a1-file", "cube-random6-q"): "67537056b494cdaba01583f20ca1622cdbdf2a281eb37a0fb212c890a544f2c2",
    ("rank2-a1-file", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("double-z2-file", "diamond"): "30a1bdb344eb5b2db8951154c13696ae89ecce4d82a46cdf11ffe33523aadd09",
    ("aps", "cube-bad-missing-vertex"): "d17fbb3aefbae7651237dfd8e6ff83b525de14db8b0640dcb1a01296fc88c53c",
    ("aps", "cube-bad-missing-edge"): "7dc1b801a94a4155782bee9ebded5236625673040a76cc41583c0bb1e59edc4d",
    ("aps", "cube-bad-illegal-move"): "53a526671cd7ac87cb9f3af13c086179bb034b1565147f253f1f0c5c29219d8a",
    ("aps", "cube-bad-wrong-word"): "127154dba30b0406fd2b08eccafa36f6458306c336fe09ff24549372b86baae2",
    ("aps", "cube-bad-square"): "b1d1bace731085021e585ea593994e0923e06433503d6de1cb6a3061213fa3eb",
    ("aps", "cube-bad-edge-key"): "4834fba5e98c740d913c5ca57d113fe47af62d36ee771bc0a2f68bc3cda92c7e",
    ("rank2-ok", "verify-text"): "89e32f3c72615aab1c26516327e2b4461c453d913d05f3fad4a68fc5c5a01899",
    ("rank2-ok", "verify-json"): "6730bce46efaf2f4d69e8d0a3f95c9c28339ddf2f14a77a5bcf960c64aebcd92",
    ("rank2-bad", "verify-text"): "ab45176e7b44779bfb7d641c998eeca98237e3849dd16e772990a916ae5f6d01",
    ("rank2-bad", "verify-json"): "3380db0f0541befda8dcc4bb25db0182baf43a54d22ead4f5a7b4c06f5beb538",
    ("bad-coeff-file", "verify-text"): "49addb634ca7f2297e0eac003e86d618e6ecb14ccb93505668e73b65495a4427",
    ("random-table-file", "diamond"): "7fa068cb15b59668bccc733804aea2f0432dc38d0e318a7d648f89f6f3ade527",
    ("matrix", "snf-diagonal"): "914d33e1181f74d695f048ec4f1f050d9e183a2345eb6f8094e646f379551706",
    ("matrix", "snf-zero"): "97cd607927937bffba851e702fe81deda77e61745d938ea1cca77b14de4bc68d",
    ("matrix", "snf-torsion"): "3cdac35ac0d0904339626f562aa3c5e299c1583aecc9fa905e19288673a0ed90",
    ("aps", "construct"): "3d04ab4fd13f3837f6585d06ad381b5db6bb3c13e3d00eda171f4e1e9c9463e7",
    ("tt", "construct"): "c67d3085596a0a2f1b05af09f28048289b7c53c2d3a91ff0a878fc0c6b8ebbfb",
    ("it", "construct"): "aa6524616cd331f2f9bcd8aabe1e569c6c419dcc0462520bca82ba43c367e38c",
    ("it-strict", "construct"): "ae66dd7c6493b98df005b906a6871c9f1168483e597d258d078d8f23f2637e21",
    ("sqrt", "construct"): "74bcb20744ef4d68c68813162f08d1412977a3c59b093b8cd521b5abe036ddbe",
    ("rank2", "construct"): "b046d7bdb76fe462b7bd342433722efe60a0fe143a5c2ae2d91cac72f98f7509",
    ("rank2-readme", "construct"): "a389d4f0d80d27c518b4842aba224df1e3dcb44868ac3d924024ee5058ce8889",
    ("rank2-full", "construct"): "7a2cd3217757a8d82f6bdcf699267d3be9eb31ef87b23027c5419f9951e463dd",
    ("double", "construct"): "d4453c945a90aa0c37e3edb0ee463727e32207abdc5f397b9a8258dcaf0bc164",
    ("double-z2h1", "construct"): "e59c02059a3666d83c451338289c6ce86c1f260ed801aa1d0f87bb5d819858d7",
}


def bad_cubes() -> dict:
    """{name: text} of the BAD_CUBES: a random cube with three crossings and one
    flaw each, and two splits whose square sends an untouched circle to two
    far slots."""
    def flawed(change):
        obj = json.loads(cube_to_json(random_cube(random.Random(3), n=3)))
        change(obj["vertices"], obj["edges"])
        return json.dumps(obj)

    def split(i, *outs):
        return {"kind": "split", "i": i, "outs": list(outs), "sorts": ["A", "A"]}

    square = {"n": 2, "vertices": {"00": ["A"] * 2, "01": ["A"] * 3, "10": ["A"] * 3,
                                   "11": ["A"] * 4},
              "edges": {"*0": split(1, 1, 2), "0*": split(2, 2, 3), "1*": split(3, 3, 4),
                        "*1": split(1, 1, 4)}}
    return {"missing-vertex": flawed(lambda v, e: v.update({"0x1": v.pop("011")})),
            "missing-edge": flawed(lambda v, e: e.pop("1*0")),
            "illegal-move": flawed(lambda v, e: e["01*"].update(j=5)),
            "wrong-word": flawed(lambda v, e: v.update({"111": ["A", "E"]})),
            "square": json.dumps(square),
            "edge-key": flawed(lambda v, e: e.update({"0x*": e["00*"]}))}


def random_table_text() -> str:
    """The pair file of helpers.random_integer_pair drawn from random.Random(39),
    which leaves out the random beta and gamma it draws: a pair may give them
    only as the generator table derives them."""
    return pair_to_json(random_integer_pair(random.Random(39)))


def write_inputs(directory) -> dict:
    """{placeholder: path} of the files the runs read, written under directory:
    the fourth of helpers.item_one_cubes, which under `it` at t=1 is not a
    chain complex (`cube` finds it by d^2), a random cube with six crossings,
    whose integer homology under `aps` has torsion 2 in degrees 1, 2 and 4,
    the pair files that the benchmark writes with pair_to_json, the pair file
    of helpers.twice_bad_coefficient_pair, random_table_text, whose `diamond`
    run prints one FAIL line per failing square, and the malformed cubes of
    bad_cubes and the SNF_MATRICES."""
    texts = {REPRO: ("repro.cube", cube_to_json(item_one_cubes()[3])),
             RANDOM6: ("random6.cube", cube_to_json(random_cube(random.Random(6), n=6))),
             RANK2_A1: ("rank2-a1.json", pair_to_json(rank2_at_a1())),
             DOUBLE_Z2: ("double-z2.json", pair_to_json(double_z2())),
             BAD_COEFF: ("bad-coeff.json", twice_bad_coefficient_pair()),
             RANDOM_TABLE: ("random-table.json", random_table_text()),
             **{f"<{name} cube>": (f"{name}.cube", text) for name, text in bad_cubes().items()},
             **{f"<{name} matrix>": (f"{name}.json", json.dumps(m))
                for name, m in SNF_MATRICES.items()}}
    paths = {}
    for placeholder, (name, text) in texts.items():
        paths[placeholder] = Path(directory) / name
        paths[placeholder].write_text(text, encoding="utf-8")
    return {placeholder: str(path) for placeholder, path in paths.items()}


def digest(source, command, inputs) -> str:
    """sha256 of the exit code, stdout and stderr of one CLI run; inputs maps
    each placeholder to the path it stands for."""
    argv = [*COMMANDS[command][:1], *SOURCES[source], *COMMANDS[command][1:]]
    argv = [inputs.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("source,command", sorted(DIGESTS))
def test_cli_run_digest(source, command, inputs, monkeypatch):
    # a diamond run is made twice: the second on the suite plan the first kept
    monkeypatch.delenv("FROBPAIR_AXIOMS", raising=False)
    for _ in range(2 if command == "diamond" else 1):
        assert digest(source, command, inputs) == DIGESTS[source, command]


def test_cli_diamond_digest_in_a_fresh_process():
    # a new interpreter plans the suite on its first call
    env = {k: v for k, v in os.environ.items() if k != "FROBPAIR_AXIOMS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "frobpair.cli", "diamond", "--builtin", "it"],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    blob = json.dumps([proc.returncode, proc.stdout, proc.stderr])
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGESTS["it", "diamond"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_inputs(scratch)
        for source, command in DIGESTS:
            print(f'    ("{source}", "{command}"): "{digest(source, command, paths)}",')
