"""The command line interface: verbs, pipelines, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus1 import (Deg1Model, dumps_model, model_to_dict, transformation_to_dict,
                    weierstrass_model)
from genus1.cli import run

from helpers import (STRING_COEFFICIENTS, WUTHRICH_C4, WUTHRICH_C6,
                     fraction_moved_wuthrich, random_transformation, wuthrich_model)

# ``genus1 pfaffians`` of ``fraction_moved_wuthrich()``, whose Pfaffians once
# held integral Fractions such as Fraction(8, 1): the text stays the same.
FRACTION_MOVED_PFAFFIANS = (
    "p1 = -24*x1^2 - 56*x1*x5 + 16*x2*x4 + 8*x3^2 - 32*x5^2\n"
    "p2 = -68*x1^2 + 40*x1*x3 - 164*x1*x5 + 56*x2*x4 + 32*x2*x5 - 16*x3*x4 + 40*x3*x5"
    " - 96*x5^2\n"
    "p3 = -860*x1^2 + 128*x1*x2 + 320*x1*x3 - 64*x1*x4 - 2044*x1*x5 + 392*x2*x4"
    " + 352*x2*x5 + 384*x3*x5 + 64*x4^2 - 64*x4*x5 - 1184*x5^2\n"
    "p4 = -288*x1^2 - 384*x1*x2 + 112*x1*x3 + 320/3*x1*x4 - 1936/3*x1*x5 + 128*x2^2"
    " + 184/3*x2*x3 + 416/3*x2*x4 - 480*x2*x5 + 440/3*x3*x5 + 416/3*x4*x5 - 1040/3*x5^2\n"
    "p5 = -72*x1^2 - 36*x1*x3 + 16*x1*x4 - 128*x1*x5 + 32*x2*x3 + 64*x2*x4 + 48*x2*x5"
    " - 68*x3*x5 + 16*x4*x5 - 40*x5^2\n")


@pytest.fixture
def model_file(tmp_path):
    def write(model, name="model.json"):
        path = tmp_path / name
        path.write_text(dumps_model(model), encoding="utf-8")
        return str(path)
    return write


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_golden_model(self, capsys, model_file):
        path = model_file(wuthrich_model())
        code, out, _ = invoke(capsys, ["invariants", path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"c4 = {WUTHRICH_C4}"
        assert lines[1] == f"c6 = {WUTHRICH_C6}"
        delta = (WUTHRICH_C4 ** 3 - WUTHRICH_C6 ** 2) // 1728
        assert lines[2] == f"Delta = {delta}"

    def test_zero_degree5_model(self, capsys, tmp_path):
        path = tmp_path / "zero5.json"
        path.write_text(json.dumps(
            {"degree": 5, "coefficients": {"matrix": [["0"] * 5] * 10}}))
        code, out, _ = invoke(capsys, ["invariants", str(path)])
        assert code == 0
        assert out == "c4 = 0\nc6 = 0\nDelta = 0\n"

    def test_stdin(self, capsys, monkeypatch):
        text = dumps_model(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3))
        code, out, _ = invoke(capsys, ["invariants", "-"], stdin=text,
                              monkeypatch=monkeypatch)
        assert code == 0
        assert out == "c4 = 48\nc6 = 0\nDelta = 64\n"

    def test_deterministic_output(self, capsys, model_file):
        path = model_file(wuthrich_model())
        _, out1, _ = invoke(capsys, ["invariants", path])
        _, out2, _ = invoke(capsys, ["invariants", path])
        assert out1 == out2


class TestPipelines:
    def test_weierstrass_into_invariants(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, ["weierstrass", "0", "0", "0", "-1", "0",
                                       "--degree", "5"])
        assert code == 0
        code, out, _ = invoke(capsys, ["invariants", "-"], stdin=out,
                              monkeypatch=monkeypatch)
        assert code == 0
        assert out == "c4 = 48\nc6 = 0\nDelta = 64\n"

    def test_weierstrass_degree1_output(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, ["weierstrass", "1", "2", "3", "4", "6"])
        assert code == 0
        assert json.loads(out)["degree"] == 1

    def test_project_then_j(self, capsys, monkeypatch, model_file):
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 5))
        code, out, _ = invoke(capsys, ["project", path, "--point", "0,0,0,0,1"])
        assert code == 0
        assert json.loads(out)["degree"] == 4
        code, out, _ = invoke(capsys, ["j", "-"], stdin=out, monkeypatch=monkeypatch)
        assert code == 0
        assert out == "j = 1728\n"

    def test_transform(self, capsys, model_file):
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3))
        g = {"degree": 3, "mu": "2", "B": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        code, out, _ = invoke(capsys, ["transform", path,
                                       "--transformation", json.dumps(g)])
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 3
        # mu = 2 doubles every coefficient: x^3 was -1, y^2 z was 1
        assert data["coefficients"][0] == "-2"
        assert data["coefficients"][6] == "2"


class TestOtherVerbs:
    def test_jacobian(self, capsys, model_file):
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 5))
        code, out, _ = invoke(capsys, ["jacobian", path])
        assert code == 0
        assert out == "a1 = 0\na2 = 0\na3 = 0\na4 = -1296\na6 = 0\n"

    def test_pfaffians(self, capsys, model_file):
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 5))
        code, out, _ = invoke(capsys, ["pfaffians", path])
        assert code == 0
        assert out.splitlines()[0] == "p1 = x1*x4 - x2^2"
        code, out, _ = invoke(capsys, ["pfaffians", model_file(fraction_moved_wuthrich())])
        assert (code, out) == (0, FRACTION_MOVED_PFAFFIANS)

    def test_discriminant_methods_agree(self, capsys, model_file):
        for degree in (3, 4, 5):
            path = model_file(weierstrass_model(Deg1Model(1, -2, 0, 3, 1), degree))
            _, formula, _ = invoke(capsys, ["discriminant", path, "--method", "formula"])
            _, matrix, _ = invoke(capsys, ["discriminant", path, "--method", "matrix"])
            assert formula == matrix

    def test_a1_char2(self, capsys, model_file):
        path = model_file(weierstrass_model(Deg1Model(1, 0, 0, 0, 0), 4))
        code, out, _ = invoke(capsys, ["a1-char2", path])
        assert code == 0
        assert out == "a1 mod 2 = 1\n"


class TestExitCodes:
    def test_singular_jacobian_is_1(self, capsys, model_file):
        path = model_file(Deg1Model(0, 0, 0, 0, 0))
        code, _, err = invoke(capsys, ["jacobian", path])
        assert code == 1
        assert "Jacobian" in err or "singular" in err

    def test_singular_j_is_1(self, capsys, model_file):
        path = model_file(Deg1Model(0, 0, 0, -3, 2))
        code, _, _ = invoke(capsys, ["j", path])
        assert code == 1

    def test_malformed_json_is_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, _ = invoke(capsys, ["invariants", str(path)])
        assert code == 2
        # bytes that are not UTF-8, in a file and on a strictly decoded stdin
        path.write_bytes(b"\xff\xfe{}")
        code, out, _ = invoke(capsys, ["invariants", str(path)])
        assert (code, out) == (2, "")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        code, out, _ = invoke(capsys, ["invariants", "-"])
        assert (code, out) == (2, "")
        for degree in (True, 1.0, "1"):
            path.write_text(json.dumps({"degree": degree, "coefficients": ["0"] * 5}))
            code, _, _ = invoke(capsys, ["invariants", str(path)])
            assert code == 2
        for degree, coefficients in STRING_COEFFICIENTS:
            path.write_text(json.dumps({"degree": degree, "coefficients": coefficients}))
            code, out, _ = invoke(capsys, ["invariants", str(path)])
            assert (code, out) == (2, "")
        # exponent and decimal strings are not the documented "n" or "n/d"
        for text in ("1e5000", "0.5"):
            path.write_text(json.dumps({"degree": 1, "coefficients": ["0", "0", "0", text, "0"]}))
            code, out, _ = invoke(capsys, ["invariants", str(path)])
            assert (code, out) == (2, "")
        # nesting past the decoder's stack is bad input
        path.write_text("[" * 100000)
        code, out, _ = invoke(capsys, ["invariants", str(path)])
        assert (code, out) == (2, "")

    def test_zero_denominator_is_2(self, capsys, tmp_path, model_file):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 1, "coefficients": ["0", "0", "0", "1/0", "0"]}))
        code, _, _ = invoke(capsys, ["invariants", str(path)])
        assert code == 2
        path = model_file(Deg1Model(0, 0, 0, -1, 0))
        g = {"degree": 1, "u": "1/0", "r": "0", "s": "0", "t": "0"}
        code, _, _ = invoke(capsys, ["transform", path, "--transformation", json.dumps(g)])
        assert code == 2
        code, _, _ = invoke(capsys, ["weierstrass", "0", "0", "0", "1/0", "0"])
        assert code == 2

    def test_missing_file_is_2(self, capsys):
        code, _, _ = invoke(capsys, ["invariants", "/no/such/file.json"])
        assert code == 2

    def test_wrong_degree_for_verb_is_2(self, capsys, model_file):
        path = model_file(Deg1Model(0, 0, 0, -1, 0))
        code, _, _ = invoke(capsys, ["pfaffians", path])
        assert code == 2

    def test_matrix_method_needs_degree_3_to_5(self, capsys, model_file):
        path = model_file(Deg1Model(0, 0, 0, -1, 0))
        code, _, _ = invoke(capsys, ["discriminant", path, "--method", "matrix"])
        assert code == 2

    @pytest.mark.parametrize("argv, degrees", [
        (["pfaffians"], (1, 2, 3, 4)),
        (["discriminant", "--method", "matrix"], (1, 2)),
        (["project", "--point", "0,0,0,0,1"], (1, 2, 3, 4)),
        (["a1-char2"], (1,)),
    ], ids=["pfaffians", "matrix", "project", "a1-char2"])
    def test_refused_degree_is_named(self, capsys, model_file, argv, degrees):
        # one stderr line that names the degree, without the model's repr
        curve = Deg1Model(0, 0, 0, -1, 0)
        for degree in degrees:
            path = model_file(curve if degree == 1 else weierstrass_model(curve, degree))
            code, out, err = invoke(capsys, [argv[0], path, *argv[1:]])
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and f"not a degree-{degree} model" in err
            assert "Poly(" not in err and "Model(" not in err

    def test_project_names_the_degree_before_the_point(self, capsys, model_file):
        # a degree-4 model with a 4-coordinate point: the degree is the fault
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 4))
        code, out, err = invoke(capsys, ["project", path, "--point", "0,0,0,1"])
        assert (code, out) == (2, "")
        assert "not a degree-4 model" in err

    def test_point_off_curve_is_2(self, capsys, model_file):
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 5))
        code, _, _ = invoke(capsys, ["project", path, "--point", "0,1,0,0,0"])
        assert code == 2

    def test_bad_transformation_json_is_2(self, capsys, model_file):
        path = model_file(Deg1Model(0, 0, 0, -1, 0))
        code, _, _ = invoke(capsys, ["transform", path, "--transformation", "{oops"])
        assert code == 2
        for degree in (True, 1.0, "1"):
            g = {"degree": degree, "u": "1", "r": "0", "s": "0", "t": "0"}
            code, _, _ = invoke(capsys, ["transform", path, "--transformation", json.dumps(g)])
            assert code == 2
        # a string or a JSON object where a list belongs, on a model of the
        # same degree: neither is a sequence of its characters or keys
        curve = Deg1Model(0, 0, 0, -1, 0)
        for degree, g in ((3, {"mu": "1", "B": ["100", "010", "001"]}),
                          (2, {"mu": "1", "r": "000", "B": [["1", "0"], ["0", "1"]]}),
                          (2, {"mu": "1", "r": {"0": 1, "1": 2, "2": 3},
                               "B": [{"1": 0, "0": 0}, {"0": 0, "1": 0}]}),
                          (2, {"mu": "1", "r": [0, 0, 0],
                               "B": [{"1": 0, "0": 0}, {"0": 0, "1": 0}]}),
                          (3, {"mu": "1", "B": [{"1": 0, "0": 0, "2": 0},
                                                {"0": 0, "1": 0, "2": 0},
                                                {"0": 0, "2": 0, "1": 0}]})):
            path = model_file(weierstrass_model(curve, degree))
            g = json.dumps({"degree": degree, **g})
            code, out, _ = invoke(capsys, ["transform", path, "--transformation", g])
            assert (code, out) == (2, "")

    def test_unknown_transformation_key_is_2(self, capsys, model_file):
        # an extra key such as A on a degree-3 transformation was dropped
        # and the transform exited 0
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3))
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        g = {"degree": 3, "mu": "1", "B": identity}
        code, out, _ = invoke(capsys, ["transform", path, "--transformation", json.dumps(g)])
        assert code == 0 and out
        for extra in ({"A": [[0]]}, {"b": identity}, {"mu ": "2"}):
            code, out, err = invoke(capsys, ["transform", path, "--transformation",
                                             json.dumps({**g, **extra})])
            assert (code, out) == (2, "")
            assert next(iter(extra)) in err

    def test_json_that_is_not_an_object_is_2(self, capsys, model_file, monkeypatch):
        # a list, string, number or null read as a model or a transformation
        # gave Python's indexing error, worded differently by each version
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3))
        for text, name in (("[1, 2]", "list"), ('"x"', "str"), ("5", "int"), ("null", "NoneType")):
            code, out, err = invoke(capsys, ["invariants", "-"], text, monkeypatch)
            assert (code, out) == (2, "")
            assert err.rstrip().endswith(f"a model must be a JSON object, not {name}")
            code, out, err = invoke(capsys, ["transform", path, "--transformation", text])
            assert (code, out) == (2, "")
            assert err.rstrip().endswith(f"a transformation must be a JSON object, not {name}")

    def test_unknown_model_key_is_2(self, capsys, monkeypatch):
        # a misspelt top-level key, or an extra one in the coefficients
        # object, was dropped and the invariants printed with exit 0
        curve = Deg1Model(0, 0, 0, -1, 0)
        for model in [curve] + [weierstrass_model(curve, d) for d in (2, 4, 5)]:
            clean = model_to_dict(model)
            if model.degree == 1:
                extra, data = "degre", {**clean, "degre": 3}
            else:
                extra, data = "r", {**clean, "coefficients": {**clean["coefficients"], "r": ["1"]}}
            code, out, _ = invoke(capsys, ["invariants", "-"], json.dumps(clean), monkeypatch)
            assert (code, out) == (0, "c4 = 48\nc6 = 0\nDelta = 64\n")
            code, out, err = invoke(capsys, ["invariants", "-"], json.dumps(data), monkeypatch)
            assert (code, out) == (2, "")
            assert "unknown keys" in err and err.rstrip().endswith(f": {extra}")

    @pytest.mark.parametrize("argv, stdin, key", [
        (["invariants", "-"], {}, "degree"),
        (["invariants", "-"], {"degree": 1}, "coefficients"),
        (["invariants", "-"], {"degree": 5, "coefficients": {}}, "matrix"),
        (["invariants", "-"], {"degree": 2, "coefficients": {"p": ["0", "0", "0"]}}, "q"),
        (["transform", "-", "--transformation", '{"degree": 3, "mu": "1"}'], None, "B"),
        (["transform", "-", "--transformation",
          '{"degree": 3, "B": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'], None, "mu"),
    ], ids=["degree", "coefficients", "matrix", "q", "B", "mu"])
    def test_missing_key_is_named(self, capsys, monkeypatch, argv, stdin, key):
        # the message gave only the key's repr, such as "malformed model data: 'degree'"
        if stdin is None:
            stdin = model_to_dict(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3))
        code, out, err = invoke(capsys, argv, json.dumps(stdin), monkeypatch)
        assert (code, out) == (2, "")
        assert err.rstrip().endswith(f"missing key '{key}'")

    def test_bad_scalar_arguments_are_2(self, capsys, model_file):
        code, _, _ = invoke(capsys, ["weierstrass", "a", "b", "c", "d", "e"])
        assert code == 2
        # an exponent is not an exact number here: "1e5000" would be 5001 digits
        for text in ("1e5000", "1.5"):
            code, out, err = invoke(capsys, ["weierstrass", text, "0", "0", "0", "0"])
            assert (code, out) == (2, "")
            assert "Traceback" not in err
        path = model_file(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 5))
        code, _, _ = invoke(capsys, ["project", path, "--point", "1,1,0,x,0"])
        assert code == 2
        code, _, _ = invoke(capsys, ["project", path, "--point", "0,0,0,0,1e5"])
        assert code == 2

    def test_unexpected_exception_is_3(self, capsys, model_file, monkeypatch):
        # a bug outside the package's own errors still ends in the exit-code
        # contract: exit 3 and one line on stderr, not a traceback
        def broken(model):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(sys.modules["genus1.cli"], "invariants", broken)
        path = model_file(Deg1Model(0, 0, 0, -1, 0))
        code, out, err = invoke(capsys, ["invariants", path])
        assert (code, out) == (3, "")
        assert err.splitlines() == ["internal error: RuntimeError: boom on two lines"]


VERBS = ["invariants", "jacobian", "j", "pfaffians", "discriminant", "weierstrass",
         "transform", "project", "a1-char2"]


@pytest.mark.parametrize("argv, degree", [
    (["invariants", "-"], None), (["jacobian", "-"], None), (["j", "-"], None),
    (["pfaffians", "-"], None), (["discriminant", "-"], None),
    (["weierstrass", "1e5", "0", "0", "0", "0"], None),
    (["transform", "-", "--transformation", "{oops"], 3),
    (["project", "-", "--point", "0,0,0,x,1"], 5), (["a1-char2", "-"], None),
], ids=VERBS)
def test_a_failing_verb_writes_one_stderr_line_only(capsys, monkeypatch, argv, degree):
    # non-object JSON for a model, or a good model and a bad option
    stdin = "[1, 2]" if degree is None else dumps_model(
        weierstrass_model(Deg1Model(0, 0, 0, -1, 0), degree))
    code, out, err = invoke(capsys, argv, stdin, monkeypatch)
    assert (code, out, len(err.splitlines())) == (2, "", 1)


def test_help_lists_the_verbs_in_order(capsys):
    with pytest.raises(SystemExit) as done:
        run(["--help"])
    assert done.value.code == 0
    assert "{" + ",".join(VERBS) + "}" in capsys.readouterr().out
    for verb in VERBS:
        with pytest.raises(SystemExit) as done:
            run([verb, "--help"])
        assert done.value.code == 0
        assert f"usage: genus1 {verb}" in capsys.readouterr().out


def test_long_integers_in_a_cli_pipeline():
    # Values past Python's default 4300-digit int/str limit, read and printed
    # by separate CLI processes.  The expected text is built from strings,
    # since this process keeps the default limit.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cli = [sys.executable, "-m", "genus1.cli"]

    def pipeline(coefficients, degree):
        made = subprocess.run(cli + ["weierstrass", *coefficients, "--degree", degree],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (made.returncode, made.stderr) == (0, "")
        done = subprocess.run(cli + ["invariants", "-"], input=made.stdout,
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout

    # a4 = 10^1500: c4 = -48 a4, c6 = 0, Delta = -64 a4^3 (4502 digits)
    assert pipeline(["0", "0", "0", "1" + "0" * 1500, "0"], "1") == (
        f"c4 = -48{'0' * 1500}\nc6 = 0\nDelta = -64{'0' * 4500}\n")
    # a 4401-digit a6 = 10^4400 as an argument: c4 = 0, c6 = -864 a6,
    # Delta = -432 a6^2
    assert pipeline(["0", "0", "0", "0", "1" + "0" * 4400], "3") == (
        f"c4 = 0\nc6 = -864{'0' * 4400}\nDelta = -432{'0' * 8800}\n")


def test_run_lifts_the_digit_limit_only_while_it_runs(capsys, monkeypatch, tmp_path):
    # run, like the console script, reads and prints integers past Python's
    # int/str digit limit, and gives the caller back the limit it had.  The
    # expected text is built from strings, as this process keeps the limit.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int/str digit limit before Python 3.10.7")
    before = sys.get_int_max_str_digits()
    text = dumps_model(Deg1Model(0, 0, 0, 10 ** 1500, 0))
    code, out, err = invoke(capsys, ["invariants", "-"], text, monkeypatch)
    assert (code, out, err) == (0, f"c4 = -48{'0' * 1500}\nc6 = 0\nDelta = -64{'0' * 4500}\n", "")
    assert sys.get_int_max_str_digits() == before
    # a 4401-digit JSON integer is read as the console script reads it
    path = tmp_path / "long.json"
    path.write_text('{"degree": 1, "coefficients": [0, 0, 0, 0, 1%s]}' % ("0" * 4400))
    code, out, _ = invoke(capsys, ["invariants", str(path)])
    assert (code, out) == (0, f"c4 = 0\nc6 = -864{'0' * 4400}\nDelta = -432{'0' * 8800}\n")
    # a caller's own limit comes back after a failing verb and after --help too
    sys.set_int_max_str_digits(5000)
    try:
        assert invoke(capsys, ["invariants", "-"], "[1, 2]", monkeypatch)[0] == 2
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            run(["--help"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


# Model-reading verbs, each run on a model read from standard input.
MODEL_VERBS = [["invariants"], ["jacobian"], ["j"], ["pfaffians"], ["discriminant"],
               ["discriminant", "--method", "matrix"], ["project", "--point", "0,0,0,0,1"],
               ["a1-char2"],
               ["transform", "--transformation", '{"degree": 1, "u": "1", "r": "0", "s": "0", "t": "0"}']]

SCALARS = st.integers(-3, 3) | st.sampled_from(["0", "1", "-2", "1/2"])
JSON_SCALARS = (SCALARS | st.booleans() | st.none()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(["1/0", "1e5", "0.5", "x", ""]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=10)
                   | st.dictionaries(st.sampled_from(["p", "q", "q1", "q2", "matrix"]),
                                     inner, max_size=3)),
    max_leaves=60)


def _vector(n):
    return st.lists(SCALARS, min_size=n, max_size=n)


# Well-formed models of each degree (often singular or degenerate), then
# arbitrary JSON with and without a degree.
MODEL_JSON = (st.fixed_dictionaries({"degree": st.just(1), "coefficients": _vector(5)})
              | st.fixed_dictionaries({"degree": st.just(2), "coefficients": st.fixed_dictionaries(
                  {"p": _vector(3), "q": _vector(5)})})
              | st.fixed_dictionaries({"degree": st.just(3), "coefficients": _vector(10)})
              | st.fixed_dictionaries({"degree": st.just(4), "coefficients": st.fixed_dictionaries(
                  {"q1": _vector(10), "q2": _vector(10)})})
              | st.fixed_dictionaries({"degree": st.just(5), "coefficients": st.fixed_dictionaries(
                  {"matrix": st.lists(_vector(5), min_size=10, max_size=10)})})
              | st.fixed_dictionaries({
                  "degree": st.sampled_from([1, 2, 3, 4, 5, 0, 6, "1", True, None, 2.0]),
                  "coefficients": JSON_VALUES})
              | JSON_VALUES)


@settings(deadline=None, max_examples=60)
@given(data=MODEL_JSON, verb=st.sampled_from(MODEL_VERBS))
def test_any_json_model_ends_in_a_documented_exit_code(data, verb):
    stdout, stderr = io.StringIO(), io.StringIO()
    with (mock.patch.object(sys, "stdin", io.StringIO(json.dumps(data))),
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        code = run([verb[0], "-", *verb[1:]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()


# The fuzz property: a valid model, transformation and point of one degree,
# with a few random edits - a value or subtree swapped for junk, an item
# dropped or added, the JSON text cut short - run through every model verb.
FUZZ_CURVE = Deg1Model(0, 0, 0, -1, 1)
FUZZ_MODELS = [model_to_dict(FUZZ_CURVE)] + [
    model_to_dict(weierstrass_model(FUZZ_CURVE, d)) for d in range(2, 6)]
FUZZ_TRANSFORMATIONS = [transformation_to_dict(random_transformation(random.Random(d), d))
                        for d in range(1, 6)]
FUZZ_POINTS = [["1", "1", "1", "1", "1"], ["0", "0", "0", "0", "1"], ["1/2"] * 5]
FUZZ_JUNK = [None, True, 0, -1, 2, 1.5, "", "x", "1/0", "0", "1/2", "-2/3", "1e5", "-3",
             "10" * 20, [], {}, [0], ["1", "0"], {"degree": 1}]
FUZZ_KEYS = ["degree", "coefficients", "p", "q", "q1", "q2", "matrix", "u", "r", "s", "t",
             "mu", "A", "B", "extra"]


def _edit(rng, value):
    """``value`` with one random edit, at the top or inside it."""
    if isinstance(value, (list, dict)) and value and rng.random() < 0.8:
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        edit, copy = rng.choice(["inside"] * 3 + ["drop", "add"]), value.copy()
        if edit == "inside":
            copy[key] = _edit(rng, value[key])
        elif edit == "drop":
            del copy[key]
        elif isinstance(copy, list):
            copy.insert(key, rng.choice(FUZZ_JUNK))
        else:
            copy[rng.choice(FUZZ_KEYS)] = rng.choice(FUZZ_JUNK)
        return copy
    return rng.choice(FUZZ_JUNK)


def _mutated_json(rng, value, edits):
    for _ in range(edits):
        value = _edit(rng, value)
    text = json.dumps(value)
    return text[:rng.randrange(len(text))] if rng.random() < 0.1 else text


@settings(deadline=None, max_examples=150)
@given(rng=st.randoms(use_true_random=False), verb=st.sampled_from(MODEL_VERBS),
       degree=st.integers(1, 5))
def test_mutated_inputs_end_in_one_clean_refusal(rng, verb, degree):
    # 0 success, 1 singular or 2 bad input; never 3, and a refusal writes
    # nothing on stdout and one line on stderr
    model_edits, option_edits = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    stdin = _mutated_json(rng, FUZZ_MODELS[degree - 1], model_edits)
    if verb[0] == "transform":
        g = _mutated_json(rng, FUZZ_TRANSFORMATIONS[degree - 1], option_edits)
        verb = ["transform", f"--transformation={g}"]
    elif verb[0] == "project":
        point = rng.choice(FUZZ_POINTS)
        for _ in range(option_edits):
            point = _edit(rng, point)
        text = ",".join(map(str, point)) if isinstance(point, list) else json.dumps(point)
        verb = ["project", f"--point={text}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (mock.patch.object(sys, "stdin", io.StringIO(stdin)),
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        code = run([verb[0], "-", *verb[1:]])
    assert code in (0, 1, 2), stderr.getvalue()
    if code:
        assert stdout.getvalue() == ""
        assert len(stderr.getvalue().splitlines()) == 1
    else:
        assert stderr.getvalue() == ""
