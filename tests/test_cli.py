import argparse
import importlib
import importlib.resources
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest

import frobpair
from frobpair import cli, cobordism
from frobpair.cli import BUILTINS, InputError, _parser, build_builtin, main
from frobpair.pair import FrobeniusPair, pair_to_json
from frobpair.ring import FrobpairError
from frobpair.tensor import LinMap
from frobpair.theory import SIGNATURE
from helpers import cube_to_json, item_one_cubes, random_cube, unit_pivot_inputs

TEST_DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_aps_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "aps")
    assert code == 0
    assert "RESULT: ok" in out


def test_verify_it_exit_one_failures_confined(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "it", "--report", "json")
    assert code == 1
    obj = json.loads(out)
    scored_fails = [e for e in obj["equations"]
                    if e["status"] == "fail" and e["group"] != "quarantine"]
    assert {e["group"] for e in scored_fails} == {"consistency"}
    # provenance of every failed equation is visible in the report
    assert all("provenance" in e for e in scored_fails)


def test_verify_rank2_params(capsys):
    code, _, _ = run(capsys, "verify", "--builtin", "rank2", "--params",
                     "a=0,cYZ=1,dYZ=1,eY=1,eZ=1,fY=1,fZ=1")
    assert code == 0


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--builtin", "aps", "--report", "json")
    code2, out2, _ = run(capsys, "verify", "--builtin", "aps", "--report", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_matches_golden(capsys):
    golden = TEST_DATA / "golden_aps_report.json"
    _, out, _ = run(capsys, "verify", "--builtin", "aps", "--report", "json")
    assert out == golden.read_text()


def test_verify_group_filter(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "it", "--groups", "frobA,mobius")
    assert code == 0  # consistency excluded, so nothing scored fails
    assert "cons_1" not in out


def test_verify_bad_input_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--pair", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "aps.json"
    code, _, _ = run(capsys, "construct", "--builtin", "aps", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--pair", str(path))
    assert code == 0
    # byte-identical to a second construct (canonical form)
    path2 = tmp_path / "aps2.json"
    run(capsys, "construct", "--builtin", "aps", "-o", str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_eval_torus_scalar(tmp_path, capsys):
    cob = tmp_path / "torus.cob"
    cob.write_text(importlib.resources.files("frobpair")
                   .joinpath("data/torus.cob").read_text())
    pair = tmp_path / "aps.json"
    run(capsys, "construct", "--builtin", "aps", "-o", str(pair))
    code, out, _ = run(capsys, "eval", "--pair", str(pair), str(cob))
    assert code == 0
    assert out.strip() == "2"


def test_eval_cylinder(tmp_path, capsys):
    cob = tmp_path / "cyl.cob"
    cob.write_text("input A\n")
    code, out, _ = run(capsys, "eval", "--builtin", "aps", str(cob))
    assert code == 0
    assert "1 -> (1)*1" in out and "X -> (1)*X" in out


def test_diamond_exit_codes(capsys):
    code, out, _ = run(capsys, "diamond", "--builtin", "aps")
    assert code == 0 and "0 fail" in out
    code, out, _ = run(capsys, "diamond", "--builtin", "it")
    assert code == 1


@pytest.mark.parametrize("gone,reported", [
    (("Delta_AE", "Delta_E"), "Delta_E"),
    (("Delta_AE", "mu_E"), "mu_E"),
    (("Delta_AE", "nu_AE"), "Delta_AE"),
])
def test_diamond_names_the_first_missing_generator(tmp_path, capsys, gone, reported):
    # with two generators deleted from aps.json, diamond names the one that
    # the squares meet first, whatever order it compares them in
    shipped = importlib.resources.files("frobpair").joinpath("data/aps.json").read_text()
    obj = json.loads(shipped)
    obj["maps"] = {g: rows for g, rows in obj["maps"].items() if g not in gone}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "diamond", "--pair", str(path))
    assert (code, out, err) == (2, "", f"error: pair 'aps' is missing generator {reported}\n")


def test_cube_betti_split(tmp_path, capsys):
    cube = tmp_path / "split1.cube"
    cube.write_text(importlib.resources.files("frobpair")
                    .joinpath("data/split1.cube").read_text())
    pair = tmp_path / "aps.json"
    run(capsys, "construct", "--builtin", "aps", "-o", str(pair))
    code, out, _ = run(capsys, "cube", "--pair", str(pair), str(cube), "--coeff", "q")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "betti: 0 2"
    assert lines[-1] == "sign: (-1)^(ones before flipped index)"


def test_cube_specialize_tt(tmp_path, capsys):
    cube = tmp_path / "merge1.cube"
    cube.write_text(importlib.resources.files("frobpair")
                    .joinpath("data/merge1.cube").read_text())
    code, out, _ = run(capsys, "cube", "--builtin", "tt", str(cube),
                       "--coeff", "z2", "--specialize", "l=1")
    assert code == 0
    assert out.startswith("betti: ")


def test_degree_output_format(capsys):
    code, out, _ = run(capsys, "degree", "+-", "++")
    assert code == 0
    assert out.strip() == "1 0 total=1 essential"
    code, out, _ = run(capsys, "degree")
    assert out.strip() == "total=0 inessential"


def test_degree_odd_rejected(capsys):
    code, _, err = run(capsys, "degree", "+-+")
    assert code == 2 and "even" in err


def test_snf_output(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[2, 0], [0, 3]]")
    code, out, _ = run(capsys, "snf", str(path))
    assert code == 0
    assert "D:" in out and "1 0" in out and "0 6" in out


@pytest.mark.parametrize("matrix,diagonal", [
    ([[-5, 9, -7, -1, -6, 6, 5, 6], [3, -3, -6, 6, -9, 3, 4, -9], [5, -1, -2, 9, -6, 1, -9, -9],
      [-9, 8, -9, 3, -3, 4, -9, 7], [-2, 5, 6, 8, -2, 2, -2, -2], [5, 0, -9, 4, 8, -6, -4, 0],
      [-6, 1, 7, 4, 7, -3, 0, 0], [9, 6, 7, 3, 9, -8, 6, -2]], [1] * 7 + [15047580]),
    (unit_pivot_inputs()[1][4], [1] * 23 + [4]),
], ids=["dense-8x8", "sparse-24x27"])
def test_snf_finishes_where_entries_grew(tmp_path, matrix, diagonal):
    # pivots by size alone with floor quotients grew the entries of these two
    # without bound: snf ran for minutes.  A child process, so a hang times out
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "frobpair.cli", "snf", str(path)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    d = [[int(x) for x in line.split()] for line in lines[1:lines.index("U:")]]
    assert [d[k][k] for k in range(min(len(d), len(d[0])))] == diagonal


def test_axioms_env_override(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "mini.eq"
    custom.write_text("eq only [frobA]: mu_A == mu_A\n")
    monkeypatch.setenv("FROBPAIR_AXIOMS", str(custom))
    code, out, _ = run(capsys, "verify", "--builtin", "aps")
    assert code == 0
    assert "only" in out and "fa_assoc" not in out


@pytest.mark.parametrize("header,version", [("# version: 7\n", "7"), ("", None)],
                         ids=["version_7", "no_version"])
@pytest.mark.parametrize("via", ["option", "env"])
def test_axioms_file_version_in_json_report(tmp_path, capsys, monkeypatch, header, version, via):
    shipped = importlib.resources.files("frobpair").joinpath("data/axioms.eq").read_text()
    custom = tmp_path / "axioms.eq"
    custom.write_text(header + "\n".join(line for line in shipped.splitlines()
                                         if not line.startswith("# version:")) + "\n")
    argv = ["verify", "--builtin", "aps", "--report", "json"]
    if via == "option":
        argv += ["--axioms", str(custom)]
    else:
        monkeypatch.setenv("FROBPAIR_AXIOMS", str(custom))
    code, out, _ = run(capsys, *argv)
    obj = json.loads(out)
    assert code == 0 and obj["equations"]
    assert obj.get("manifest_version") == version
    assert ("manifest_version" in obj) == (version is not None)


def test_verify_reads_the_axioms_file_once(tmp_path, capsys, monkeypatch):
    # the version and the equations come from one read, so they cannot disagree
    custom = tmp_path / "axioms.eq"
    custom.write_text("# version: 3\neq only [frobA]: mu_A == mu_A\n")
    real_open, opened = open, []

    def counting_open(file, *args, **kwargs):
        if str(file) == str(custom):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run(capsys, "verify", "--builtin", "aps", "--report", "json",
                       "--axioms", str(custom))
    obj = json.loads(out)
    assert code == 0 and obj["manifest_version"] == "3"
    assert [e["name"] for e in obj["equations"]] == ["only"]
    assert len(opened) == 1

def test_verify_strict_partial_it(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "it", "--strict-partial")
    assert code == 0
    assert "SKIP cons_1" in out


def assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("verify", "--builtin", "aps"), "--strict-partial applies to --builtin it, not to aps"),
    (("construct", "--builtin", "double"), "--strict-partial applies to --builtin it, not to double"),
    (("verify", "--pair", "PAIR"), "--strict-partial applies to --builtin it, not to --pair"),
    (("diamond", "--pair", "PAIR"), "--strict-partial applies to --builtin it, not to --pair"),
], ids=["verify_aps", "construct_double", "verify_pair", "diamond_pair"])
def test_strict_partial_refused_where_it_does_nothing(tmp_path, capsys, argv, message):
    pair = tmp_path / "it.json"
    run(capsys, "construct", "--builtin", "it", "-o", str(pair))
    argv = [str(pair) if a == "PAIR" else a for a in argv]
    code, out, err = run(capsys, *argv, "--strict-partial")
    assert_one_line_error(code, out, err)
    assert err == f"error: {message}\n"


def test_cube_integer_coefficients_of_mod2_pair_refused(tmp_path, capsys):
    # lifting Z/2 residues to integers gives a d with d^2 != 0 and negative
    # Betti numbers (betti: 0 0 -4 -2 0 on this cube)
    path = tmp_path / "r0.cube"
    path.write_text(cube_to_json(random_cube(random.Random(0), 4)))
    argv = ("cube", str(path), "--builtin", "tt", "--specialize", "l=1", "--coeff")
    code, out, err = run(capsys, *argv, "z")
    assert_one_line_error(code, out, err)
    assert err == "error: cannot take integer coefficients of a Z/2 pair\n"
    code, out, _ = run(capsys, *argv, "z2")
    assert code == 0 and out.startswith("betti: 0 2 0 0 0\n")


def test_empty_basis_pair_file_exit_two(tmp_path, capsys):
    path = tmp_path / "aps.json"
    run(capsys, "construct", "--builtin", "aps", "-o", str(path))
    obj = json.loads(path.read_text())
    obj["basis"]["E"] = []
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert "nonempty basis" in err


def aps_pair_text(tmp_path, capsys):
    path = tmp_path / "aps.json"
    run(capsys, "construct", "--builtin", "aps", "-o", str(path))
    return path.read_text()


def edited(path, value):
    """An edit of the aps pair file setting the field at path (keys and indices) to value."""
    def edit(text):
        obj = json.loads(text)
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(obj)
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace('"meta": {', '"meta": {"big": ' + "9" * 5000 + ", ", 1),
     "digits"),
    (lambda text: "5", "expected a JSON object"),
    (lambda text: json.dumps(dict(json.loads(text), ring=["Z"])), "$.ring must be an object"),
    (lambda text: json.dumps(dict(json.loads(text), maps=[])), "$.maps must be an object"),
    (lambda text: text.replace('"vars": []', '"vars": [5]', 1),
     "$.ring.vars[0] must be an object"),
    (lambda text: json.dumps(dict(json.loads(text), maps={"mu_A": [5]})),
     "$.maps.mu_A[0] must be an object"),
    (edited(("maps", "Delta_A", 0, "out", 0, "coeff"), "9" * 5000),
     "coeff: integer literal too long at position 0"),
    (lambda text: edited(("maps", "Delta_A", 0, "out", 0, "coeff"), "1/0")(
        edited(("ring", "domain"), "rationals")(text)),
     "coeff: zero denominator at position 0"),
], ids=["over_long_integer", "top_level_number", "ring_list", "maps_list", "vars_entry",
        "map_row", "coeff_too_long", "coeff_zero_denominator"])
def test_malformed_pair_file_exit_two(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(edit(aps_pair_text(tmp_path, capsys)))
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("path,value,message", [
    (("maps", "Delta_A"), 5, "$.maps.Delta_A must be a list"),
    (("maps", "Delta_A", 0, "in"), 5, "$.maps.Delta_A[0].in must be a list"),
    (("maps", "Delta_A", 0, "out"), 5, "$.maps.Delta_A[0].out must be a list"),
    (("maps", "Delta_A", 0, "out", 0, "basis"), 5, "$.maps.Delta_A[0].out[0].basis must be a list"),
    (("maps", "Delta_A", 0, "in"), [["1"]], "$.maps.Delta_A[0].in must be a list of strings"),
    (("maps", "Delta_A", 0, "out", 0, "coeff"), 5,
     "$.maps.Delta_A[0].out[0].coeff must be a string"),
    (("basis", "A"), "1X", "$.basis.A must be a list"),
    (("basis", "E"), [5], "$.basis.E must be a list of strings"),
    (("ring", "vars"), 5, "$.ring.vars must be a list"),
    (("ring", "vars"), [{"name": 5}], "$.ring.vars[0].name must be a string"),
    (("meta",), 5, "$.meta must be an object"),
    (("meta", "notes"), 5, "$.meta.notes must be an object"),
    (("meta", "unit"), ["1"], "$.meta.unit must be a string"),
], ids=["map_number", "in_number", "out_number", "basis_number", "in_nested", "coeff_number",
        "basis_string", "label_number", "vars_number", "var_name", "meta_number",
        "notes_number", "unit_list"])
def test_pair_file_field_of_wrong_kind_exit_two(tmp_path, capsys, path, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(edited(path, value)(aps_pair_text(tmp_path, capsys)))
    code, out, err = run(capsys, "verify", "--pair", str(bad))
    assert_one_line_error(code, out, err)
    assert message in err


def tt_pair_with_inverse(tmp_path, capsys, invertible):
    """The tt pair file with nu_EE multiplying by l^-1 and the flag on l set to
    invertible, or removed if invertible is ...; its path."""
    path = tmp_path / "tt.json"
    run(capsys, "construct", "--builtin", "tt", "-o", str(path))
    obj = json.loads(path.read_text())
    for row in obj["maps"]["nu_EE"]:
        for term in row["out"]:
            term["coeff"] = "l^-1"
    if invertible is ...:
        del obj["ring"]["vars"][0]["invertible"]
    else:
        obj["ring"]["vars"][0]["invertible"] = invertible
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("invertible", ["false", "true", 0, 1, None, []],
                         ids=["string_false", "string_true", "zero", "one", "null", "list"])
def test_pair_file_invertible_must_be_a_boolean(tmp_path, capsys, invertible):
    path = tt_pair_with_inverse(tmp_path, capsys, invertible)
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert err == "error: field $.ring.vars[0].invertible must be a boolean\n"


def test_pair_file_invertible_true_false_or_absent(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--pair", str(tt_pair_with_inverse(tmp_path, capsys, True)))
    assert code == 1 and out.endswith("RESULT: FAILED\n")
    for invertible in (False, ...):
        path = tt_pair_with_inverse(tmp_path, capsys, invertible)
        code, out, err = run(capsys, "verify", "--pair", str(path))
        assert_one_line_error(code, out, err)
        assert err == ("error: $.maps.nu_EE[0].out[0].coeff: "
                       "negative exponent on non-invertible variable l\n")


@pytest.mark.parametrize("builtin,params,accepted", [
    ("aps", "a=5", "aps takes no parameters"),
    ("tt", "l=1", "tt takes no parameters"),
    ("it", "t=1", "it takes no parameters"),
    ("sqrt", "a=1", "sqrt takes no parameters"),
    ("double", "zz=1", "double takes algebra, e0, e1, e2, nu0, nu1, nu2"),
    ("rank2", "a=1,zz=1", "rank2 takes a, cYY,"),
], ids=["aps", "tt", "it", "sqrt", "double", "rank2"])
def test_unknown_builtin_parameter_exit_two(capsys, builtin, params, accepted):
    for command in ("verify", "construct"):
        code, out, err = run(capsys, command, "--builtin", builtin, "--params", params)
        assert_one_line_error(code, out, err)
        assert "parameter " in err and accepted in err


def test_repeated_params_key_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "rank2", "--params", "a=1,a=2")
    assert_one_line_error(code, out, err)
    assert "parameter 'a' given more than once" in err


def test_repeated_specialize_key_exit_two(capsys):
    cube = importlib.resources.files("frobpair").joinpath("data/merge1.cube")
    code, out, err = run(capsys, "cube", str(cube), "--builtin", "tt",
                         "--specialize", "l=2,l=3", "--coeff", "z2")
    assert_one_line_error(code, out, err)
    assert "parameter 'l' given more than once" in err


def test_cube_specialize_refuses_a_power_past_the_limit(tmp_path, capsys):
    # t^65 at t = 3 would be a 104-bit constant: specialize refuses it, while
    # t = 1 still answers at any exponent
    cube = importlib.resources.files("frobpair").joinpath("data/merge1.cube")
    plain = pair_to_json(build_builtin("it", {}))

    def cube_at(power, value):
        path = tmp_path / "it.json"
        path.write_text(plain.replace('"coeff": "t"', f'"coeff": "{power}"'))
        return run(capsys, "cube", "--pair", str(path), str(cube),
                   "--specialize", f"t={value}", "--coeff", "q")

    assert cube_at("t", 3)[0] == 0
    code, out, err = cube_at("t^65", 3)
    assert_one_line_error(code, out, err)
    assert err == "error: the power t^65 is over the limit of 64 for the value 3\n"
    want = cube_at("t", 1)
    assert want[0] == 0
    assert cube_at("t^65", 1) == cube_at(f"t^{10 ** 12}", 1) == want


def test_double_exponent_past_the_power_limit_exit_two(capsys):
    # phi^k takes |k| - 1 products: e0=20000 ended in a traceback, and
    # e0=1000000 ran for minutes
    for command, params in (("construct", "e0=20000"), ("verify", "e1=-20000"),
                            ("verify", "e0=1000000"), ("construct", "nu2=-65")):
        code, out, err = run(capsys, command, "--builtin", "double", "--params", params)
        assert_one_line_error(code, out, err)
        assert err == f"error: the double exponent {params} is over the limit of 64\n"
    code, out, _ = run(capsys, "construct", "--builtin", "double", "--params", "e0=64,nu2=-64")
    assert code == 0 and json.loads(out)["meta"]["notes"]["exponents"] == [64, -2, -2, 1, -1, -64]


@pytest.mark.parametrize("argv,item", [
    (("verify", "--builtin", "rank2", "--params", "=3"), "=3"),
    (("verify", "--builtin", "rank2", "--params", "a=1, =3"), " =3"),
    (("cube", "MERGE1", "--builtin", "tt", "--specialize", "=1", "--coeff", "z2"), "=1"),
], ids=["params", "params_blank_key", "specialize"])
def test_params_empty_key_exit_two(capsys, argv, item):
    cube = importlib.resources.files("frobpair").joinpath("data/merge1.cube")
    code, out, err = run(capsys, *(str(cube) if x == "MERGE1" else x for x in argv))
    assert_one_line_error(code, out, err)
    assert err == f"error: bad parameter {item!r}: expected KEY=VAL\n"


def test_params_with_pair_file_exit_two(tmp_path, capsys):
    path = tmp_path / "aps.json"
    path.write_text(aps_pair_text(tmp_path, capsys))
    code, out, err = run(capsys, "verify", "--pair", str(path), "--params", "a=5")
    assert_one_line_error(code, out, err)
    assert "--params applies to --builtin" in err


def test_verify_scoring_nothing_exit_two(tmp_path, capsys):
    # a pair without maps skips every equation; that is no evidence of success
    path = tmp_path / "nomaps.json"
    path.write_text(json.dumps(dict(json.loads(aps_pair_text(tmp_path, capsys)), maps={})))
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert "no equation outside the quarantine group could be scored" in err
    code, out, err = run(capsys, "verify", "--builtin", "aps", "--groups", "quarantine")
    assert_one_line_error(code, out, err)


def test_eval_short_split_exit_two(tmp_path, capsys):
    cob = tmp_path / "bad.cob"
    cob.write_text("input A\nsplit 1 A\n")
    code, out, err = run(capsys, "eval", "--builtin", "aps", str(cob))
    assert_one_line_error(code, out, err)
    assert "line 2: malformed event" in err


def test_verify_unknown_group_exit_two(capsys):
    from frobpair.theory import GROUPS

    code, out, err = run(capsys, "verify", "--builtin", "aps", "--groups", "frobA,nosuch")
    assert_one_line_error(code, out, err)
    assert "'nosuch'" in err and all(g in err for g in GROUPS)


def test_verify_empty_group_name_exit_two(capsys):
    # an empty filter names one group, '', as "frobA," names it beside frobA:
    # both are refused, not read as "no filter"
    for groups in ("", "frobA,"):
        code, out, err = run(capsys, "verify", "--builtin", "aps", "--groups", groups)
        assert_one_line_error(code, out, err)
        assert "unknown group(s) ''; known groups:" in err


def test_builtin_choices_are_the_registry():
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {command: [a.choices for a in p._actions if "--builtin" in a.option_strings]
               for command, p in sub.choices.items()}
    assert {command for command, c in choices.items() if c} == \
        {"verify", "construct", "eval", "diamond", "cube"}
    for command, found in choices.items():
        assert all(list(c) == list(BUILTINS) for c in found), command


def test_every_builtin_builds_with_its_defaults():
    for name in BUILTINS:
        pair = build_builtin(name, {})
        assert isinstance(pair, FrobeniusPair)
        assert pair.name in (name, "laurent-sqrt")


def test_unknown_key_lists_exactly_the_entry_keys():
    for name, (keys, _builder) in BUILTINS.items():
        with pytest.raises(InputError) as exc:
            build_builtin(name, {"zz": "1"})
        head, _, listed = str(exc.value).partition(f": {name} takes ")
        assert head == f"unknown {name} parameter 'zz'"
        assert listed.split(", ") == list(keys) if keys else listed == "no parameters"


@pytest.mark.parametrize("name,params,strict,message", [
    ("aps", {"a": "5"}, True, "--strict-partial applies to --builtin it, not to aps"),
    ("nosuch", {"a": "1"}, True, "--strict-partial applies to --builtin it, not to nosuch"),
    ("nosuch", {"a": "1"}, False, "unknown nosuch parameter 'a': nosuch takes no parameters"),
    ("rank2", {"a": "x", "zz": "1"}, False, "unknown rank2 parameter 'zz': rank2 takes a, "
     "cYY, cYZ, cZZ, dYY, dYZ, dZZ, eY, eZ, fY, fZ"),
    ("rank2", {"cYY": "1", "a": "x", "fZ": "y"}, False, "rank2 parameter a must be an integer"),
    ("double", {"algebra": "foo", "e0": "y"}, False, "double parameter e0 must be an integer"),
    ("double", {"nu2": "q", "e1": "w"}, False, "double parameter e1 must be an integer"),
    ("double", {"algebra": "foo"}, False, "unknown double algebra 'foo' (use q1 or z2h1)"),
    ("nosuch", {}, False, "unknown builtin 'nosuch'"),
], ids=["strict_before_key", "strict_before_name", "key_before_name", "key_before_value",
        "rank2_value", "double_value_before_algebra", "double_values_in_key_order",
        "double_algebra", "name"])
def test_builtin_refusals_in_order(name, params, strict, message):
    with pytest.raises(InputError) as exc:
        build_builtin(name, params, strict_partial=strict)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("[[1, 2], [3]]", "equal-length rows of integers"),
    ("[[1, 2.5], [3, 4]]", "equal-length rows of integers"),
    ("[[1, null]]", "equal-length rows of integers"),
    ("[[" + "9" * 5000 + "]]", "digits"),
], ids=["ragged", "fraction", "null", "over_long_integer"])
def test_snf_malformed_matrix_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run(capsys, "snf", str(path))
    assert_one_line_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("rows,cols,side", [(1, 513, "columns"), (513, 1, "rows")])
def test_snf_refuses_a_side_over_the_limit(tmp_path, capsys, rows, cols, side):
    # snf builds and prints U (rows x rows) and V (cols x cols): a thin matrix
    # of a few KB would take memory and output quadratic in its long side
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1] * cols for _ in range(rows)]))
    code, out, err = run(capsys, "snf", str(path))
    assert_one_line_error(code, out, err)
    assert f"the matrix has 513 {side}, over the limit of 512" in err


def test_snf_takes_a_side_at_the_limit(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1] * 512]))
    code, out, _ = run(capsys, "snf", str(path))
    assert code == 0
    assert out.splitlines()[:4] == ["D:", "  1" + " 0" * 511, "U:", "  1"]


def test_eval_reads_the_entries_of_its_map_once(capsys, monkeypatch):
    # eval prints one column per input tuple of a ten-circle word (2**10 under
    # aps); the columns come from one pass over the entries, not one pass each
    class CountingEntries(dict):
        visits = 0

        def items(self):
            for item in dict.items(self):
                CountingEntries.visits += 1
                yield item

    maps, evaluate = [], cobordism.evaluate

    def counted(cob, pair):
        maps.append(evaluate(cob, pair))
        maps[0].entries = CountingEntries(maps[0].entries)
        return maps[0]

    monkeypatch.setattr(cobordism, "evaluate", counted)
    code, out, _ = run(capsys, "eval", "--builtin", "aps", str(TEST_DATA / "mixed10.cob"))
    assert code == 0 and len(out.splitlines()) == 1 + 2 ** 10
    assert 0 < CountingEntries.visits <= len(maps[0].entries)


MERGE1 = {"kind": "merge", "i": 1, "j": 2, "out": 1, "sort": "A"}


@pytest.mark.parametrize("obj,message", [
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]},
      "edges": {"*": {"kind": "merge", "j": 2, "out": 1, "sort": "A"}}}, "missing field 'i'"),
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]},
      "edges": {"*": dict(MERGE1, out="1")}}, "integer positions"),
    ({"n": 1, "vertices": [["A", "A"], ["A"]], "edges": {"*": MERGE1}}, "vertices and edges"),
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]}, "edges": [MERGE1]}, "vertices and edges"),
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]}, "edges": {"*": "merge"}},
     "expected an object"),
    ({"n": 1, "vertices": {"0": 5, "1": ["A"]}, "edges": {"*": MERGE1}}, "vertex '0'"),
    ({"n": 2, "vertices": {"0": ["A", "A"], "1": ["A"]}, "edges": {}}, "found 2"),
    ({"n": 10 ** 100, "vertices": {"0": ["A", "A"], "1": ["A"]}, "edges": {}}, "found 2"),
    ('{"n": ' + "9" * 5000 + "}", "digits"),
    ([1], "expected a JSON object"),
    ({"n": 2, "vertices": {"00": ["A"], "01": ["A"], "10": ["A"], "11": ["A"]},
      "edges": {"x*": MERGE1}}, "bad edge key 'x*'"),
], ids=["edge_missing_i", "edge_bad_out", "vertices_list", "edges_list", "edge_string",
        "vertex_number", "vertex_count", "huge_n", "n_over_long", "top_level_list",
        "edge_key_not_bits"])
def test_cube_malformed_file_exit_two(tmp_path, capsys, obj, message):
    path = tmp_path / "bad.cube"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code, out, err = run(capsys, "cube", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert message in err


#: a field each object of a pair file may not hold -> the path its refusal names
PAIR_STRAYS = {
    "$.unit": lambda obj: obj.update(unit="X"),  # unit belongs in meta
    "$.bogus": lambda obj: obj.update(bogus=1),
    "$.meta.colour": lambda obj: obj["meta"].update(colour="red"),
    "$.meta.": lambda obj: obj["meta"].update({"": 0}),  # an empty name is a field too
    "$.ring.extra": lambda obj: obj["ring"].update(extra=[]),
    "$.ring.vars[0].deg": lambda obj: obj["ring"]["vars"].append(
        {"name": "t", "invertible": False, "deg": 1}),
    "$.basis.C": lambda obj: obj["basis"].update(C=["z"]),
    "$.maps.mu_A[0].note": lambda obj: obj["maps"]["mu_A"][0].update(note="x"),
    "$.maps.mu_A[0].out[0].sign": lambda obj: obj["maps"]["mu_A"][0]["out"][0].update(sign=1),
}


@pytest.mark.parametrize("path", PAIR_STRAYS)
def test_pair_file_with_an_unknown_field_exit_two(tmp_path, capsys, path):
    # every object of a pair file holds only its own fields: a misplaced or
    # stray one is refused by its path, not dropped
    obj = json.loads(aps_pair_text(tmp_path, capsys))
    PAIR_STRAYS[path](obj)
    (tmp_path / "stray.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--pair", str(tmp_path / "stray.json"))
    assert_one_line_error(code, out, err)
    assert err == f"error: unknown field {path}\n"


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["meta"].update({"a\nb": 0}), "unknown field $.meta.a\\nb"),
    (lambda obj: obj["maps"].update({"x\ny": []}), "$.maps: unknown map name x\\ny"),
    (lambda obj: obj["maps"].update({"\x1b[2J\t": []}), "$.maps: unknown map name \\x1b[2J\\t"),
    # a key that prints as itself keeps its exact text
    (lambda obj: obj["meta"].update({'c"o\\l \u00e9': 0}), 'unknown field $.meta.c"o\\l \u00e9'),
    (lambda obj: obj["maps"].update({"mu_B": []}), "$.maps: unknown map name mu_B"),
], ids=["meta-newline", "maps-newline", "maps-control", "meta-printable", "maps-printable"])
def test_pair_file_key_is_refused_on_one_line(tmp_path, capsys, edit, message):
    # a key with a control character is escaped, so the refusal stays one line
    obj = json.loads(aps_pair_text(tmp_path, capsys))
    edit(obj)
    (tmp_path / "stray.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--pair", str(tmp_path / "stray.json"))
    assert_one_line_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("obj,message", [
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]}, "edges": {"*": MERGE1}, "bogus": 1},
     "unknown field 'bogus'"),
    ({"n": 1, "vertices": {"0": ["A", "A"], "1": ["A"]},
      "edges": {"*": dict(MERGE1, outs=[1])}}, "edge '*': unknown field 'outs'"),
    ({"n": 1, "vertices": {"0": ["A"], "1": ["A", "A"]},
      "edges": {"*": {"kind": "split", "i": 1, "outs": [1, 2], "sorts": ["A", "A"], "j": 2}}},
     "edge '*': unknown field 'j'"),
], ids=["top_level", "merge_outs", "split_j"])
def test_cube_file_with_an_unknown_field_exit_two(tmp_path, capsys, obj, message):
    path = tmp_path / "stray.cube"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "cube", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert err == f"error: {message}\n"


def test_cube_non_integral_entry_refused_over_z_and_z2(tmp_path, capsys):
    # it at t=1 gives mu_EEA the entry 1/2 on the E E -> A merge, which an
    # int() conversion would silently read as 0
    path = tmp_path / "ee.cube"
    path.write_text(json.dumps({"n": 1, "vertices": {"0": ["E", "E"], "1": ["A"]},
                                "edges": {"*": MERGE1}}))
    argv = ("cube", "--builtin", "it", str(path), "--specialize", "t=1", "--coeff")
    code, out, _ = run(capsys, *argv, "q")
    assert code == 0 and out.startswith("betti: 2 0\n")
    for coeff in ("z2", "z"):
        code, out, err = run(capsys, *argv, coeff)
        assert_one_line_error(code, out, err)
        assert "non-integral entry 1/2" in err


def test_cube_over_circle_limit_exit_two(tmp_path, capsys):
    # one vertex of 20 circles spans 2**20 basis tuples over aps
    path = tmp_path / "long.cube"
    path.write_text(json.dumps({"n": 0, "vertices": {"": ["A"] * 20}, "edges": {}}))
    code, out, err = run(capsys, "cube", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert "vertex '': a word of 20 circles is over the limit of 16" in err


@pytest.mark.parametrize("text,message", [
    ("input" + " A" * 20 + "\n", "a word of 20 circles"),
    ("input" + " A" * 16 + "\nsplit 1 A A\n", "a word of 17 circles"),
], ids=["input_word", "running_word"])
def test_eval_over_circle_limit_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "long.cob"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert message + " is over the limit of 16" in err


@pytest.mark.parametrize("text,message", [
    ("input E\ndeath 1\n", "error: line 2: no generator for E->\n"),
    ("input A\nmerge 1 A\n", "error: line 2: merge positions 1,2 out of range\n"),
], ids=["death_of_E", "merge_past_the_end"])
def test_eval_illegal_event_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cob"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert err == message


@pytest.mark.parametrize("vertices,edge,message", [
    ({"0": ["A", "A"], "1": ["A"]}, {"kind": "merge", "i": 1, "j": 1, "out": 1, "sort": "A"},
     "error: edge 0/0: merge names circle 1 twice\n"),
    ({"0": ["A"], "1": ["A", "A"]}, {"kind": "split", "i": 1, "outs": [2, 2], "sorts": ["A", "A"]},
     "error: edge 0/0: split names output 2 twice\n"),
    ({"0": ["A", "A"], "1": ["A"]}, {"kind": "merge", "i": 3, "j": 3, "out": 1, "sort": "A"},
     "error: edge 0/0: merge positions 3,3 out of range\n"),
], ids=["merge_repeat", "split_repeat", "repeat_out_of_range"])
def test_cube_repeated_slot_named_exit_two(tmp_path, capsys, vertices, edge, message):
    # a slot a move names twice is a repeat, not out of range; a repeated slot
    # past the word's end is still out of range
    path = tmp_path / "repeat.cube"
    path.write_text(json.dumps({"n": 1, "vertices": vertices, "edges": {"*": edge}}))
    code, out, err = run(capsys, "cube", "--builtin", "aps", str(path))
    assert_one_line_error(code, out, err)
    assert err == message


def test_cube_over_tuple_limit_exit_two(tmp_path, capsys):
    # 9 circles are under the circle cap, but double has four E labels:
    # one vertex spans 4**9 = 262,144 basis tuples
    path = tmp_path / "wide.cube"
    path.write_text(json.dumps({"n": 0, "vertices": {"": ["E"] * 9}, "edges": {}}))
    code, out, err = run(capsys, "cube", "--builtin", "double", str(path))
    assert_one_line_error(code, out, err)
    assert "spans 262144 basis tuples, over the limit of 65536" in err
    code, out, _ = run(capsys, "cube", "--builtin", "aps", str(path))
    assert code == 0 and out.startswith("betti: 512\n")


def aps_file_with(tmp_path, maps) -> str:
    """The path of a pair file of the aps builtin, with maps given besides its
    own.  The rows of maps are written from a pair that holds them alone,
    which derives no beta or gamma to refuse them by."""
    aps = build_builtin("aps", {})
    obj = json.loads(pair_to_json(aps))
    given = json.loads(pair_to_json(FrobeniusPair(aps.ring, aps.spec, maps)))["maps"]
    obj["maps"] = dict(sorted({**obj["maps"], **given}.items()))
    path = tmp_path / "aps-with.json"
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


@pytest.mark.parametrize("gname,derived,key", [
    ("beta", "eps . mu_A", ((), ("X", "X"))),
    ("gamma", "Delta_A . eta", (("X", "X"), ())),
], ids=["beta", "gamma"])
def test_a_pair_file_whose_beta_or_gamma_differs_from_the_derived_map_is_refused(
        tmp_path, capsys, gname, derived, key):
    # the derived map with one more entry: the refusal names the entry's input tuple
    m = build_builtin("aps", {}).generator_table()[gname]
    wrong = LinMap(m.spec, m.dom, m.cod, {**m.entries, key: m.spec.ring.one()})
    code, out, err = run(capsys, "verify", "--pair", aps_file_with(tmp_path, {gname: wrong}))
    assert_one_line_error(code, out, err)
    assert err == f"error: $.maps.{gname} differs from {derived} at input tuple {key[1]}\n"


def test_a_pair_file_whose_beta_and_gamma_equal_the_derived_maps_is_accepted(tmp_path, capsys):
    table = build_builtin("aps", {}).generator_table()
    plain = run(capsys, "verify", "--pair", aps_file_with(tmp_path, {}))
    given = run(capsys, "verify", "--pair", aps_file_with(
        tmp_path, {gname: table[gname] for gname in ("beta", "gamma")}))
    assert given == plain and plain[0] == 0


def test_verify_over_tuple_limit_exit_two(tmp_path, capsys):
    # 120 labels a sort keep every one- and two-circle word under the limit,
    # but AAA spans 120**3 tuples; the word is refused before it is evaluated
    maps = {name: [] for name in SIGNATURE if name not in ("beta", "gamma")}
    maps["eta"] = [{"in": [], "out": [{"basis": ["a0"], "coeff": "1"}]}]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "ring": {"domain": "integers", "vars": []}, "maps": maps,
        "basis": {"A": [f"a{i}" for i in range(120)], "E": [f"e{i}" for i in range(120)]}}))
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert err == "error: the word AAA spans 1728000 basis tuples, over the limit of 65536\n"


def test_verify_bounds_the_word_between_two_moves_of_one_layer(tmp_path, capsys):
    # 17 labels on A keep AAA (4,913 tuples) under the limit, but the layer
    # Delta_A (x) mu_A splits first and so passes through AAAA (83,521 tuples)
    one = [{"basis": ["a0"], "coeff": "1"}]
    maps = {"eta": [{"in": [], "out": one}],
            "mu_A": [{"in": ["a0", "a0"], "out": one}],
            "Delta_A": [{"in": ["a0"], "out": [{"basis": ["a0", "a0"], "coeff": "1"}]}]}
    path, axioms = tmp_path / "wide.json", tmp_path / "wide.eq"
    path.write_text(json.dumps({
        "ring": {"domain": "integers", "vars": []}, "maps": maps,
        "basis": {"A": [f"a{i}" for i in range(17)], "E": ["e0"]}}))
    axioms.write_text("eq wide [frobA]: (Delta_A (x) mu_A) == (Delta_A (x) mu_A)\n")
    code, out, err = run(capsys, "verify", "--pair", str(path), "--axioms", str(axioms))
    assert_one_line_error(code, out, err)
    assert err == "error: the word AAAA spans 83521 basis tuples, over the limit of 65536\n"


@pytest.mark.parametrize("coeff,code,first", [
    ("q", 1, "FAIL square at 00010 (bits 2,4)"),
    ("z", 1, "FAIL square at 00010 (bits 2,4)"),
    ("z2", 0, "betti: 4 8 8 0 4 4"),
])
def test_cube_negative_betti_names_the_failing_square(tmp_path, capsys, coeff, code, first):
    # under it at t=1 the fourth item-one cube is not a chain complex: over q and
    # z its Betti numbers come out negative, so the first square with d^2 != 0 is
    # named in their place; mod 2 the numbers stay non-negative and are printed
    path = tmp_path / "item1.cube"
    path.write_text(cube_to_json(item_one_cubes()[3]))
    got = run(capsys, "cube", "--builtin", "it", "--specialize", "t=1", "--coeff", coeff,
              str(path))
    assert got == (code, first + "\nsign: (-1)^(ones before flipped index)\n", "")


@pytest.mark.parametrize("text,message", [
    ("input" + " E" * 9 + "\n", "the word EEEEEEEEE spans 262144 basis tuples"),
    # 4**8 tuples are at the limit; the birth takes the running word over it
    ("input" + " E" * 8 + "\nbirth 1\n", "the word AEEEEEEEE spans 131072 basis tuples"),
], ids=["input_word", "running_word"])
def test_eval_over_tuple_limit_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "wide.cob"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--builtin", "double", str(path))
    assert_one_line_error(code, out, err)
    assert message + ", over the limit of 65536" in err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # one argparse tree serves every main call of a process; a call's --params do
    # not reach the next call, and --help reads as from a freshly built tree
    import argparse

    from frobpair import cli

    built, seen = [], []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def help_text(*argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        return capsys.readouterr().out

    real_parse_params = cli.parse_params
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "parse_params",
                        lambda values: seen.append(list(values)) or real_parse_params(values))
    cli._parser.cache_clear()
    try:
        fresh = help_text(), help_text("cube")
        trees = len(built)
        assert built[0] == "frobpair" and built.count("frobpair") == 1
        assert run(capsys, "construct", "--builtin", "rank2", "--params", "a=1")[0] == 0
        assert run(capsys, "construct", "--builtin", "rank2")[0] == 0
        assert seen == [["a=1"], []]
        assert (help_text(), help_text("cube")) == fresh
        assert len(built) == trees
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("term,word", [
    ("swap ; (mu_A (x) mu_A)", "layer ('mu_A', 'mu_A') too wide for word ('A', 'A')"),
    ("swap ; (id_A (x) swap)", "swap needs two strands in word ('A', '?')"),
    ("swap ; id_A", "layer ('id_A',) does not cover word ('A', '?')"),
], ids=["too_wide", "swap_needs_two", "does_not_cover"])
def test_axioms_type_error_names_sorts_not_objects(tmp_path, capsys, term, word):
    # a strand that only swaps have passed on prints as its domain sort, or as
    # '?' while that is unfixed, not as an object address
    path = tmp_path / "axioms.eq"
    path.write_text(f"eq x [frobA]: {term} == mu_A\n")
    code, out, err = run(capsys, "verify", "--builtin", "aps", "--axioms", str(path))
    assert_one_line_error(code, out, err)
    assert err == f"error: cannot load axioms: line 1: {word}\n"


def too_long(bits):
    return (f"error: a coefficient of {bits} bits is too long to print "
            f"(over {sys.get_int_max_str_digits()} digits)\n")


def test_construct_with_a_coefficient_too_long_to_print_exit_two(capsys):
    # t = -a^2 of a 3,000-digit a has 6,000 digits, past what Python prints of
    # an int; this ended in a ValueError traceback
    code, out, err = run(capsys, "construct", "--builtin", "rank2", "--params", "a=" + "9" * 3000)
    assert_one_line_error(code, out, err)
    assert err == too_long(19932)


@pytest.mark.parametrize("report", ["text", "json"])
def test_verify_with_a_witness_too_long_to_print_exit_two(capsys, report):
    # every parameter prints, but a degree-3 product in a witness does not
    params = ",".join(f"{key}={'7' * 1500}" for key in cli.RANK2_KEYS)
    code, out, err = run(capsys, "verify", "--builtin", "rank2", "--params", params,
                         "--report", report)
    assert_one_line_error(code, out, err)
    assert err == too_long(14949)


def test_eval_with_an_entry_too_long_to_print_exit_two(tmp_path, capsys):
    # nu_EA nu_AE = (X - a) e f ev: its entry -a e_Y f_Y at 1 has 6,000
    # digits, and no line of the map is printed before the refusal
    pair, cob = tmp_path / "big.json", tmp_path / "mobius.cob"
    big = "9" * 2000
    code, _, _ = run(capsys, "construct", "--builtin", "rank2", "--params",
                     f"a={big},eY={big},fY={big}", "-o", str(pair))
    assert code == 0
    cob.write_text("input A\nmobius 1 E\nmobius 1 A\n")
    code, out, err = run(capsys, "eval", "--pair", str(pair), str(cob))
    assert_one_line_error(code, out, err)
    assert err == too_long(19932)


def test_a_2000_digit_rank2_parameter_constructs(capsys):
    # X^2 = 2a X - a^2 in A: the 4,000 digits of a^2 still print
    a = int("9" * 2000)
    code, out, _ = run(capsys, "construct", "--builtin", "rank2", "--params", f"a={a}")
    assert code == 0
    assert json.loads(out)["maps"]["mu_A"][3] == {
        "in": ["X", "X"],
        "out": [{"basis": ["1"], "coeff": str(-a * a)}, {"basis": ["X"], "coeff": str(2 * a)}]}


@pytest.mark.parametrize("argv,files,message", [
    (("verify",), {}, "need --pair FILE or --builtin NAME"),
    (("verify", "--builtin", "aps", "--axioms", "NOSUCH"), {},
     "cannot load axioms: [Errno 2] No such file or directory: 'NOSUCH'"),
    (("verify", "--builtin", "aps", "--axioms", "FILE"), {"FILE": "eq x [frobA] mu_A == mu_A\n"},
     "cannot load axioms: line 1: missing ':'"),
    (("verify", "--builtin", "aps", "--axioms", "FILE"), {"FILE": "eq x: mu_A == mu_A\n"},
     "cannot load axioms: line 1: missing [GROUP]"),
    (("verify", "--builtin", "aps", "--axioms", "FILE"), {"FILE": "eq x [frobA]: mu_A\n"},
     "cannot load axioms: line 1: missing '=='"),
    (("verify", "--builtin", "aps", "--axioms", "FILE"),
     {"FILE": "eq x [frobA]: mu_A ; ; eps == mu_A\n"},
     "cannot load axioms: line 1: empty layer in term ' mu_A ; ; eps '"),
    (("eval", "--builtin", "aps", "FILE"), {"FILE": "split 1 A A\n"},
     "line 1: first line must declare the input word"),
    (("eval", "--builtin", "aps", "FILE"), {"FILE": "input A A\nswap 2\n"},
     "line 2: swap positions 2,3 out of range"),
    (("degree", "+x"), {}, "unknown pole side 'x'"),
    (("eval", "--builtin", "aps", "NOSUCH"), {},
     "[Errno 2] No such file or directory: 'NOSUCH'"),
    (("cube", "--builtin", "aps", "NOSUCH"), {},
     "[Errno 2] No such file or directory: 'NOSUCH'"),
    (("cube", "MERGE1", "--builtin", "tt", "--specialize", "l=(1"), {},
     "expected ')' at position 2"),
    (("cube", "MERGE1", "--builtin", "tt", "--specialize", "l=1/2"), {},
     "rational literal in non-rational ring at position 0"),
    (("cube", "MERGE1", "--builtin", "tt", "--specialize", "l=l^x"), {},
     "expected integer exponent at position 2"),
    (("cube", "MERGE1", "--builtin", "tt", "--specialize", "l=$"), {},
     "syntax error at position 0: '$'"),
], ids=["verify_no_pair", "axioms_missing", "manifest_no_colon", "manifest_no_group",
        "manifest_no_equals", "manifest_empty_layer", "cob_no_input", "cob_swap_past_word",
        "degree_bad_side", "cob_missing", "cube_missing", "specialize_open_paren",
        "specialize_rational_on_tt", "specialize_bad_exponent", "specialize_bad_character"])
def test_refusals_name_their_input(tmp_path, capsys, argv, files, message):
    merge1 = importlib.resources.files("frobpair").joinpath("data/merge1.cube")
    paths = {"NOSUCH": str(tmp_path / "nosuch"), "MERGE1": str(merge1)}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert_one_line_error(code, out, err)
    assert err == f"error: {message.replace('NOSUCH', paths['NOSUCH'])}\n"


@pytest.mark.parametrize("builtin,edit,message", [
    ("aps", lambda obj: obj["basis"].update(E=["Y", "Y"]), "duplicate basis labels within a sort"),
    ("tt", lambda obj: obj["ring"]["vars"].append(obj["ring"]["vars"][0]),
     "$.ring: variable names must be unique within a ring declaration"),
], ids=["duplicate_E_labels", "repeated_variable"])
def test_pair_file_with_a_repeated_name_exit_two(tmp_path, capsys, builtin, edit, message):
    path = tmp_path / "pair.json"
    run(capsys, "construct", "--builtin", builtin, "-o", str(path))
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert_one_line_error(code, out, err)
    assert err == f"error: {message}\n"


def fresh_env():
    """The environment of a fresh `frobpair` process on this tree's src/, with
    the shipped axiom manifest."""
    env = {k: v for k, v in os.environ.items() if k != "FROBPAIR_AXIOMS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(frobpair.__file__))
    return env


def test_startup_loads_no_cube_or_cobordism():
    # a fresh process up to a loaded CLI and manifest, as `verify` and
    # `construct` start: each other command imports cube or cobordism itself
    code = ("import sys, frobpair.cli; from frobpair.theory import load_axioms; load_axioms(); "
            "print(*[m for m in ('frobpair.cube', 'frobpair.cobordism') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=fresh_env(),
                          check=True, text=True)
    assert proc.stdout.split() == []


@pytest.mark.parametrize("argv,name,text,message", [
    (("cube", "FILE", "--builtin", "aps"), "bad.cube", "{", "not a cube file: "),
    (("snf", "FILE"), "bad.json", "[[1.5]]",
     "matrix file must hold a JSON list of equal-length rows of integers"),
    (("degree", "+"), None, None, "pole count must be even"),
    (("eval", "--builtin", "aps", "FILE"), "bad.cob", "bogus\n",
     "line 1: first line must declare the input word"),
], ids=["cube", "snf", "degree", "eval"])
def test_on_demand_command_refuses_in_a_fresh_process(tmp_path, argv, name, text, message):
    # nothing has loaded cube or cobordism before the command imports it, and
    # its error still reaches main's one except clause
    if name:
        (tmp_path / name).write_text(text)
        argv = [str(tmp_path / name) if a == "FILE" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "frobpair.cli", *argv], capture_output=True,
                          env=fresh_env(), text=True, timeout=60)
    assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)
    assert proc.stderr.startswith(f"error: {message}")


def test_every_error_class_derives_from_the_one_base():
    # main catches FrobpairError alone, so an error class outside it would
    # leave the CLI as a traceback
    errors = []
    for info in pkgutil.iter_modules(frobpair.__path__):
        module = importlib.import_module(f"frobpair.{info.name}")
        errors += [cls for cls in vars(module).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException)
                   and cls.__module__ == module.__name__]
    assert len(errors) >= 7  # ring, tensor, theory, pair, cobordism, cube, cli
    assert FrobpairError in errors and issubclass(FrobpairError, ValueError)
    assert [cls.__name__ for cls in errors if not issubclass(cls, FrobpairError)] == []
