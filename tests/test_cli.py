import io
import json
import sys
import time
from pathlib import Path

import pytest

from tsdlink.cli import CHECK_PROPERTIES, run_cli
from tsdlink.fields import RATIONALS


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


def test_validate_bundled_sl2():
    code, text = run(["validate", "sl2"])
    assert code == 0
    assert "jacobi: PASS (27 triples)" in text


def test_validate_bundled_nambu4_json_suffix():
    code, text = run(["validate", "nambu4.json"])
    assert code == 0
    assert "filippov: PASS (1024 5-tuples)" in text


def test_validate_file_path(tmp_path):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    path = tmp_path / "heis.json"
    path.write_text(json.dumps(dump_algebra(builtin_algebra("heisenberg3"))))
    code, text = run(["validate", str(path)])
    assert code == 0


def test_validate_failure_exit_code(tmp_path):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    doc = dump_algebra(builtin_algebra("sl2"))
    doc["brackets"][0]["value"][0]["coeff"] = "3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(["validate", str(path)])
    assert code == 1
    assert "FAIL" in text


def test_missing_file_is_usage_error(capsys):
    code, _ = run(["validate", "no_such_algebra.json"])
    assert code == 2


@pytest.mark.parametrize(
    "text", ["{tmp}/no/such/dir/sl2.json", "./sl2.json", "./nambu4", "sl2/", pytest.param("", id="empty")]
)
def test_a_path_that_does_not_exist_names_no_bundled_algebra(text, tmp_path, monkeypatch, capsys):
    # only a bare name may name a bundled document; a typo in a path is an error, and
    # an empty argument names no file (Path("") is the current directory)
    monkeypatch.chdir(tmp_path)
    text = text.format(tmp=tmp_path)
    code, out = run(["validate", text])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: cannot read algebra {text!r}: no such file or bundled algebra\n"


def test_an_existing_file_is_read_before_a_bundled_name(tmp_path, monkeypatch):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2.json").write_text(json.dumps(dump_algebra(builtin_algebra("nambu4"))))
    nambu4 = run(["validate", "nambu4"])
    for text in ("./sl2.json", "sl2.json", str(tmp_path / "sl2.json")):
        assert run(["validate", text]) == nambu4, text
    code, text = run(["validate", "sl2"])  # no file named sl2: the bundled document
    assert code == 0 and "jacobi: PASS (27 triples)" in text


def test_malformed_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(["validate", str(path)])
    assert code == 2


def test_malformed_brackets_are_usage_errors(tmp_path, capsys):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    doc = dump_algebra(builtin_algebra("sl2"))
    doc["brackets"] = [5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(["validate", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: brackets must be a list of {args, value} objects\n"


def _bad_modulus(doc):
    doc["field"] = {"kind": "prime", "p": 7}
    doc["brackets"][0]["value"][0]["coeff"] = "1 mod x"


def _long_modulus(doc):
    doc["field"] = {"kind": "prime", "p": 7}
    doc["brackets"][0]["value"][0]["coeff"] = "1 mod " + "7" * 5000


PSI_12 = 399_165_290_221 * 798_330_580_441  # a strong pseudoprime to each prime base 2..37
PSI_13 = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to each prime base 2..41


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.update(arity=2.0), "arity must be 2 or 3, got 2.0"),
        (_bad_modulus, "malformed modulus in prime-field literal: '1 mod x'"),
        (_long_modulus, f"number too long in prime-field literal '1 mod {'7' * 5000}'"),
        (lambda doc: doc.update(field={"kind": "prime", "p": PSI_12}), f"modulus is not prime: {PSI_12}"),
        (
            lambda doc: doc.update(field={"kind": "prime", "p": PSI_13}),
            f"modulus too large: primality is decided only below {PSI_13}",
        ),
    ],
    ids=["arity-float", "coeff-bad-modulus", "coeff-long-modulus", "psi12-modulus", "modulus-past-psi13"],
)
def test_malformed_numbers_are_usage_errors(edit, message, tmp_path, capsys):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    doc = dump_algebra(builtin_algebra("sl2"))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(["validate", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


CHECK_ALL_FIXTURE = Path(__file__).parent / "fixtures" / "check_all.txt"


def check_all_text() -> str:
    """Per bundled algebra, the command line after "$ ", its output and "exit: CODE"."""
    parts = []
    for name in ("abelian1", "abelian2", "heisenberg3", "so3", "sl2", "nambu4"):
        code, text = run(["check", name, "--property", "all"])
        parts.append(f"$ tsdlink check {name} --property all\n{text}exit: {code}\n")
    return "".join(parts)


def test_check_all_bundled_matches_fixture():
    """`check ALG --property all` on the six bundled algebras: text and exit code, byte for byte.

    Regenerate the fixture only when a check line is meant to change:

        PYTHONPATH=src python tests/test_cli.py > tests/fixtures/check_all.txt
    """
    assert check_all_text() == CHECK_ALL_FIXTURE.read_text()


@pytest.mark.parametrize("name", ["sl2", "nambu4", "so3", "heisenberg3"])
def test_check_all_over_f10007_matches_the_rational_fixture(name, tmp_path):
    # the word-pair checks over F_10007: each line and the exit code read as they do over Q
    from tsdlink.algebra import builtin_algebra, dump_algebra
    from tsdlink.fields import PrimeField

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dump_algebra(builtin_algebra(name, field=PrimeField(10007)))))
    block = CHECK_ALL_FIXTURE.read_text().split(f"$ tsdlink check {name} --property all\n")[1]
    expected, code = block.split("exit: ", 1)
    assert run(["check", str(path), "--property", "all"]) == (int(code.split("\n", 1)[0]), expected)


# the check lines (name before any "[") that each narrower property keeps of `check --property all`
PROPERTY_LINES = {
    "jacobi": {"antisymmetry", "jacobi"},
    "filippov": {"skew-symmetry", "filippov"},
    "tsd": {"tsd", "tsd-tilde"},
    "coalgebra": {"coalgebra-morphism", "counit-compat", "coalgebra-morphism~", "counit-compat~"},
    "reversibility": {"reversibility"},
    "mixed": {"mixed"},
    "ybe": {"ybe", "braiding-invertible", "twist-invertible", "filtration", "far-commutation"},
    "slide": {"slide-under", "slide-over"},
    "fb-relations": {"braid-relation", "twist-commute", "twist-push"},
}


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_every_property_prints_its_lines_of_the_fixture(name, capsys):
    block = CHECK_ALL_FIXTURE.read_text().split(f"$ tsdlink check {name} --property all\n")[1]
    fixture = block.split("exit: ", 1)[0].splitlines()
    assert set(PROPERTY_LINES) | {"all"} == set(CHECK_PROPERTIES)
    wrong_arity = "filippov" if name == "sl2" else "jacobi"
    for prop in PROPERTY_LINES:  # "all" prints the whole block: test_check_all_bundled_matches_fixture
        code, text = run(["check", name, "--property", prop])
        err = capsys.readouterr().err
        if prop == wrong_arity:
            assert (code, text, err.count("\n")) == (2, "", 1), prop
            assert err == f"error: {prop} applies to arity-{3 if prop == 'filippov' else 2} algebras\n"
            continue
        expected = [line for line in fixture if line.split(":")[0].split("[")[0] in PROPERTY_LINES[prop]]
        assert expected, prop
        assert (code, text.splitlines(), err) == (0, expected, ""), prop


def test_check_ybe_nambu4():
    code, text = run(["check", "nambu4", "--property", "ybe"])
    assert code == 0
    assert "ybe: PASS (15625 columns)" in text


def test_check_property_arity_guard():
    code, _ = run(["check", "nambu4", "--property", "jacobi"])
    assert code == 2


def test_check_all_abelian():
    code, text = run(["check", "abelian1", "--property", "all"])
    assert code == 0
    assert "tsd: PASS" in text and "slide-under: PASS" in text


def test_invariant_value():
    code, text = run(["invariant", "abelian1", "--strands", "2", "--word", "s1 s1"])
    assert code == 0
    assert "value: 16" in text


def test_invariant_with_framings():
    code, text = run(["invariant", "sl2", "--strands", "1", "--word", "", "--framings", "2"])
    assert code == 0
    assert "value: 16" in text


@pytest.mark.parametrize(
    "argv,value",
    [
        (["sl2", "--strands", "1", "--word", "", "--framings", "1200"], "16"),
        (["sl2", "--strands", "2", "--word", "s1^600"], "256"),
        (["sl2", "--strands", "1", "--word", "", "--framings", "99999999"], "16"),
        (["sl2", "--strands", "2", "--word", "s1^99999999999999999999"], "16"),
        (["nambu4", "--strands", "8", "--word", "s1 s2 s3 s4 s5 s6 s7", "--cap", "1000000000000"], "25"),
        (["nambu4", "--strands", "5", "--word", "s1"], "390625"),
    ],
    ids=[
        "framing-1200",
        "s1^600",
        "framing-99999999",
        "s1^(10^20-1)",
        "nambu4-8-strands",
        "nambu4-5-strands",
    ],
)
def test_invariant_deep_words(argv, value):
    # powers by squaring: O(log |e|) compositions, no recursion; the trace visits no column
    code, text = run(["invariant", *argv])
    assert code == 0
    assert f"value: {value}" in text


def test_invariant_framings_length_guard():
    code, _ = run(["invariant", "sl2", "--strands", "2", "--word", "s1", "--framings", "1"])
    assert code == 2


def test_invariant_cap_error():
    code, _ = run(["invariant", "sl2", "--strands", "2", "--word", "s1", "--cap", "10"])
    assert code == 2


NINES_4300, NINES_5000 = "9" * 4300, "9" * 5000
INT_PAST_LIMIT = "an integer has more digits than Python converts"
TWO_4300_DIGIT_TWISTS = f"t1^{NINES_4300} t1^{NINES_4300}"  # their framing sum has 4,301 digits


def _too_long(name):
    return f"{name} has more than 4300 digits, more than Python prints"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invariant", "sl2", "--strands", "3572", "--word", ""], _too_long("operator dimension 4^7144")),
        (
            ["markov", "nambu4", "--strands", "3100", "--word", "", "--trials", "1"],
            _too_long("operator dimension 5^6200"),
        ),
        (["invariant", "sl2", "--strands", "1", "--word", TWO_4300_DIGIT_TWISTS], _too_long("a framing")),
        (
            ["markov", "sl2", "--strands", "1", "--word", TWO_4300_DIGIT_TWISTS, "--trials", "1"],
            _too_long("a framing"),
        ),
        (
            ["invariant", "sl2", "--strands", "2", "--word", f"s1^{NINES_5000}"],
            f"number too long in 's1^{NINES_5000}' at position 0",
        ),
        (
            ["invariant", "sl2", "--strands", "2", "--word", f"s1 t1^{NINES_5000}"],
            f"number too long in 't1^{NINES_5000}' at position 3",
        ),
        (
            ["invariant", "sl2", "--strands", "2", "--word", f"s{NINES_5000}"],
            f"number too long in 's{NINES_5000}' at position 0",
        ),
        (
            ["invariant", "sl2", "--strands", "1", "--word", "", "--framings", NINES_5000],
            f"number too long in --framings entry '{NINES_5000}'",
        ),
    ],
    ids=[
        "invariant-3572-strands",
        "markov-3100-strands",
        "invariant-framing-sum",
        "markov-framing-sum",
        "crossing-exponent",
        "twist-exponent",
        "crossing-index",
        "framing-entry",
    ],
)
def test_cap_error_past_the_int_str_limit_is_one_line(argv, message, capsys):
    # each number has more than 4,300 digits: one line on stderr, no traceback
    code, text = run(argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


LONG = "LONG"  # stands for a 5,001-digit JSON integer, which json.dumps cannot write


def _long_coeff(doc):
    doc["brackets"][0]["value"][0]["coeff"] = NINES_5000


@pytest.mark.parametrize("command", [["validate"], ["check", "--property", "tsd"]], ids=["validate", "check"])
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.update(field={"kind": "prime", "p": LONG}), "{path}: number too long: " + INT_PAST_LIMIT),
        (lambda doc: doc.update(dim=LONG), "{path}: number too long: " + INT_PAST_LIMIT),
        (_long_coeff, f"number too long in rational literal '{NINES_5000}'"),
    ],
    ids=["modulus", "dim", "coeff"],
)
def test_algebra_number_past_the_int_str_limit_is_one_line(command, edit, message, tmp_path, capsys):
    from tsdlink.algebra import builtin_algebra, dump_algebra

    doc = dump_algebra(builtin_algebra("sl2"))
    edit(doc)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace(f'"{LONG}"', NINES_5000 + "9"))
    code, text = run([command[0], str(path), *command[1:]])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("command", [["invariant"], ["markov", "--trials", "1"]], ids=["invariant", "markov"])
def test_kit_build_past_the_cap_is_one_line(command, tmp_path, capsys):
    # R on X^4 of a 40-dimensional algebra has 41^4 columns; the cap refuses the kit before it is built
    from tsdlink.algebra import builtin_algebra, dump_algebra

    path = tmp_path / "abelian40.json"
    path.write_text(json.dumps(dump_algebra(builtin_algebra("abelian", dim=40))))
    start = time.perf_counter()
    code, text = run([command[0], str(path), "--strands", "1", "--word", "", *command[1:]])
    assert time.perf_counter() - start < 5
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: kit build needs the braiding on 41^4 columns, which exceeds cap 1000000; "
        "use a smaller algebra or a larger --cap\n"
    )


def test_invariant_bad_word_syntax():
    code, _ = run(["invariant", "sl2", "--strands", "2", "--word", "s9"])
    assert code == 2


def test_json_format_round_trips():
    code, text = run(["--format", "json", "invariant", "abelian2", "--strands", "2", "--word", "s1 s1"])
    assert code == 0
    payload = json.loads(text)
    assert payload["command"] == "invariant"
    assert payload["passed"] is True
    assert isinstance(payload["timing_ms"], int)
    assert RATIONALS.parse(payload["value"]) == 81


def test_json_format_check():
    code, text = run(["--format", "json", "check", "abelian1", "--property", "slide"])
    payload = json.loads(text)
    assert code == 0 and payload["passed"] is True and payload["failures"] == []


def test_markov_command():
    code, text = run(
        ["markov", "sl2", "--strands", "2", "--word", "s1 s1 s1", "--trials", "3", "--seed", "4", "--moves", "3"]
    )
    assert code == 0
    assert "3/3 trials matched the base trace" in text


def test_markov_long_word_composes_in_linear_time():
    # the harness flattens s1^100000 into 100000 letters, composed in one pass
    start = time.perf_counter()
    code, text = run(
        ["markov", "sl2", "--strands", "2", "--word", "s1^100000", "--trials", "1", "--moves", "1", "--seed", "1"]
    )
    assert time.perf_counter() - start < 20
    assert code == 0
    assert text.endswith("value: 256\n")


@pytest.mark.parametrize("option,value,bound", [("--trials", "0", ">= 1"), ("--moves", "-1", ">= 0")])
def test_markov_bad_counts_are_usage_errors(option, value, bound, capsys):
    code, text = run(["markov", "sl2", "--strands", "2", "--word", "s1", option, value])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {option} must be {bound}, got {value}\n"


def test_markov_stabilize_deterministic():
    argv = [
        "--format", "json", "markov", "sl2", "--strands", "2", "--word", "s1",
        "--trials", "2", "--seed", "6", "--moves", "2", "--stabilize", "plain",
    ]
    code_a, text_a = run(argv)
    code_b, text_b = run(argv)
    assert code_a == code_b == 0
    a, b = json.loads(text_a), json.loads(text_b)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_unknown_subcommand_exits_2():
    code, _ = run(["frobnicate"])
    assert code == 2


BUNDLED_NAMES = ("abelian1", "abelian2", "heisenberg3", "so3", "sl2", "nambu4")


def test_selftest_sweep():
    code, text = run(["selftest"])
    assert code == 0
    assert "validate sl2: PASS" in text
    assert "braiding nambu4: PASS" in text
    assert "markov sl2 trefoil: 5/5 trials matched the base trace" in text
    # the whole text, phase by phase: validation, TSD sweeps, kit checks, Markov trial
    expected = [f"validate {name}: PASS" for name in BUNDLED_NAMES]
    expected += [f"tsd properties {name}: PASS" for name in BUNDLED_NAMES]
    for name in BUNDLED_NAMES:
        expected += [f"braiding {name}: PASS", f"framed braid relations {name}: PASS"]
    expected.append("markov sl2 trefoil: 5/5 trials matched the base trace")
    assert len(expected) == 25
    assert text.splitlines() == expected


def test_selftest_builds_one_pair_per_algebra(monkeypatch):
    # the kit build and the Markov trial reuse the pair of the TSD sweep; nambu4, the largest, is swept first
    import tsdlink.braiding as braiding_module
    import tsdlink.cli as cli_module
    from tsdlink.tsd import make_tsd_pair

    built = []

    def counting(spec):
        built.append(spec.name)
        return make_tsd_pair(spec)

    monkeypatch.setattr(cli_module, "make_tsd_pair", counting)
    monkeypatch.setattr(braiding_module, "make_tsd_pair", counting)
    code, _ = run(["selftest"])
    assert code == 0
    assert built == list(reversed(BUNDLED_NAMES))


if __name__ == "__main__":
    sys.stdout.write(check_all_text())
