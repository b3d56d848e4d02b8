"""Command-line behaviour: exit codes, positioned diagnostics, and
byte-identical structured output for the checked-in corpus scripts."""

import json
import pathlib

import pytest

from homdeg.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_good_script_exits_zero(tmp_path, capsys):
    script = tmp_path / "ok.hd"
    script.write_text(
        "ring S = QQ[x, y];\nideal J = (x*y);\nalgebra A = S / J;\n"
        "params Q = (x - y);\ncheck invariants;\n"
    )
    code, out, err = run_cli(capsys, "--input", str(script), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == "1"
    assert report["multiplicity"] == "2"
    assert report["flags"]["cohen_macaulay"] is True


def test_text_format(tmp_path, capsys):
    script = tmp_path / "ok.hd"
    script.write_text(
        "ring S = QQ[x];\nideal J = (x^2);\nalgebra A = S / J;\n"
        "params Q = (x);\ncheck invariants;\n"
    )
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 0
    assert "dimension" in out and "multiplicity" in out


def test_parameter_ideal_checked_per_module_and_q(tmp_path, capsys):
    """Q is validated again when a later statement replaces it: the second
    check sees a non-parameter Q and exits 2 at its own position."""
    script = tmp_path / "twice.hd"
    script.write_text(
        "ring S = QQ[x, y];\nideal J = (x*y);\nalgebra A = S / J;\n"
        "params Q = (x - y);\ncheck invariants;\ncheck thm1;\n"
        "params P = (x);\ncheck invariants;\n"
    )
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert f"{script}:8:1: error: not a parameter ideal" in err


def test_dimension_zero_audit_exits_zero(tmp_path, capsys):
    """A module of dimension 0 takes any proper Q; chi_1 is 0 there, and
    the audit agrees with the report instead of raising an engine bug."""
    script = tmp_path / "dim0.hd"
    script.write_text(
        "ring S = QQ[x, y];\nideal J = (x^2, y^2);\nalgebra A = S / J;\n"
        "params Q = (x);\ncheck audit;\n"
    )
    code, out, err = run_cli(capsys, "--input", str(script), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["chi1"] == "0"


def test_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "--input", "/nonexistent/path.hd")
    assert code == 2
    assert "error" in err


def test_inhomogeneous_script_positioned(tmp_path, capsys):
    script = tmp_path / "bad.hd"
    script.write_text("ring S = QQ[x];\nideal J = (x + 1);\n")
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert f"{script}:2:" in err
    assert "inhomogeneous" in err


def test_field_flag_fp(tmp_path, capsys):
    script = tmp_path / "ok.hd"
    script.write_text("example ex46 l=1;\ncheck invariants;\n")
    code, out, err = run_cli(
        capsys, "--input", str(script), "--field", "fp:32003", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["hilbert_coefficients"] == ["1", "-1", "0"]


@pytest.mark.parametrize("p", ["561", "3317044064679887385961983"])
def test_field_flag_rejects_bad_prime(tmp_path, capsys, p):
    script = tmp_path / "ok.hd"
    script.write_text("example ex46 l=1;\n")
    code, out, err = run_cli(capsys, "--input", str(script), "--field", f"fp:{p}")
    assert code == 2
    assert "argument --field" in err


def test_malformed_corpus_exit_codes(capsys):
    files = sorted((CORPUS / "malformed").glob("*.hd"))
    assert len(files) == 23
    for f in files:
        code, out, err = run_cli(capsys, "--input", str(f))
        assert code == 2, f.name
        # every diagnostic carries a real file:line:col position
        assert f"{f}:" in err and ": error:" in err, f.name
        assert ":0:0:" not in err, f.name


@pytest.mark.parametrize(
    "stem, where, message",
    [
        ("16_example_args_out_of_range", "1:1", "family requires l >= 2 and m >= 1"),
        ("17_thm1_dimension_zero", "5:1", "modules of positive dimension"),
        ("18_thm2_dimension_one", "5:1", "requires dim M >= 2"),
        ("19_zero_module", "4:1", "not a parameter ideal of the module: M is the zero"),
        ("20_params_of_earlier_ring", "6:1", "no parameter ideal in scope for check"),
        ("21_q_outside_example_ring", "4:1", "u + -1*v lies in QQ[u, v, w], but M lies"),
        ("22_algebra_over_earlier_ideal", "4:17", "'J' is out of scope: it belongs to ring 'S'"),
        ("23_ideal_of_earlier_ring", "4:12", "'J' is out of scope: it belongs to ring 'S'"),
    ],
)
def test_library_rejections_are_positioned(capsys, stem, where, message):
    """A ValueError the library raises while an `example` or `check` runs
    exits 2 at the position of that statement's keyword; a script that
    mixes two rings exits 2 at the check or at the name of the earlier
    ring."""
    f = CORPUS / "malformed" / f"{stem}.hd"
    code, out, err = run_cli(capsys, "--input", str(f))
    assert code == 2
    assert err.startswith(f"{f}:{where}: error: ") and message in err, err


@pytest.mark.parametrize(
    "first, second",
    [
        (
            "ring S = QQ[x, y];\nideal J = (x*y);\nalgebra A = S / J;\n",
            "ring T = QQ[u, v, w];\nmodule M = coker [[u]];\nparams Q = (v, w);\n",
        ),
        (
            "ring S = QQ[x, y, z];\nideal J = (x*y);\nalgebra A = S / J;\n",
            "ring T = QQ[x, y, z];\nmodule M = coker [[x - y]];\nparams Q = (y, z);\n",
        ),
    ],
    ids=["other-variables", "same-variables"],
)
def test_module_under_a_new_ring_drops_the_old_algebra(tmp_path, capsys, first, second):
    """A module declared after a second `ring` lives over that ring alone:
    the report equals that of the script without the first ring's lines."""
    outputs = []
    for text in (first + second, second):
        script = tmp_path / "rings.hd"
        script.write_text(text + "check invariants;\n")
        code, out, err = run_cli(capsys, "--input", str(script), "--format", "json")
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_zero_module_has_one_message(tmp_path, capsys):
    """Every check meets the zero module with the one contract's message."""
    errors = set()
    for kind in ("invariants", "thm1", "thm2", "audit"):
        script = tmp_path / f"{kind}.hd"
        script.write_text(
            "ring S = QQ[x, y];\nmodule M = coker [[1]];\n"
            f"params Q = (x);\ncheck {kind};\n"
        )
        code, out, err = run_cli(capsys, "--input", str(script))
        assert code == 2
        errors.add(err.replace(str(script), "FILE"))
    assert errors == {
        "FILE:4:1: error: not a parameter ideal of the module: M is the zero module\n"
    }


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_degree_cap_below_one_is_a_usage_error(tmp_path, capsys, cap):
    script = tmp_path / "ok.hd"
    script.write_text("example ex46 l=1;\ncheck invariants;\n")
    code, out, err = run_cli(capsys, "--input", str(script), "--degree-cap", cap)
    assert code == 2
    assert "argument --degree-cap: must be a positive integer" in err


def _check_corpus_json(capsys, stem):
    """Two runs of corpus/<stem>.hd reproduce its frozen JSON byte for byte."""
    script = CORPUS / f"{stem}.hd"
    runs = []
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "--input", str(script), "--format", "json", "--seed", "0"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    expected = (CORPUS / "expected" / f"{stem}.json").read_text()
    assert runs[0] == expected


def test_corpus_json_deterministic(capsys):
    _check_corpus_json(capsys, "ex46_l2")


def test_nonlinear_corpus_json_deterministic(capsys):
    """ex46 l = 3 under Q = ((x-y)^2, (x-z)^2): Samuel through adjoined
    variables u_j = f_j."""
    _check_corpus_json(capsys, "ex46nl_l3")


def test_mixed_degree_dseq_corpus_json(capsys):
    """Q = (y, z^2): the d-sequence search mixes only generators of one
    degree and finds (z^2, y) by reordering the degree blocks."""
    _check_corpus_json(capsys, "mixed_dseq")
    report = json.loads((CORPUS / "expected" / "mixed_dseq.json").read_text())
    assert report["thm1"]["consequences"]["d_sequence"] == ["z^2", "y"]


NONLINEAR_SCRIPT = (
    "ring S = QQ[x, y, z];\n"
    "ideal J = intersect((x), (y, z));\n"
    "algebra A = S / J;\n"
    "params Q = ((x - y)^2, (x - z)^2);\n"
    "check invariants;\n"
)


def test_sample_cap_flag_is_gone(tmp_path, capsys):
    """Samuel is exact for every Q, so there is no sample cap to set."""
    script = tmp_path / "nl.hd"
    script.write_text(NONLINEAR_SCRIPT)
    code, out, err = run_cli(capsys, "--input", str(script), "--sample-cap", "2")
    assert code == 2
    assert "unrecognized arguments: --sample-cap" in err
    code, out, err = run_cli(capsys, "--input", str(script), "--format", "json")
    assert code == 0
    assert json.loads(out)["hilbert_coefficients"] == ["4", "-2", "0"]


@pytest.mark.parametrize(
    "text, where",
    [
        (
            "ring S = QQ[x, y, z];\nideal J = (x*y^2, x*z);\nalgebra A = S / J;\n"
            "params Q = (x - y, x - z);\ncheck invariants;\n",
            "5:1",
        ),
        ("example ex46 l=2;\ncheck invariants;\n", "2:1"),
        (
            "ring S = QQ[x, y, z];\nideal J = intersect((x^2*y), (y^2*z));\n"
            "algebra A = S / J;\nparams Q = (x - z, y - z);\ncheck invariants;\n",
            "2:11",
        ),
    ],
    ids=["declared-ring", "example", "intersect"],
)
def test_degree_cap_reaches_the_engine(tmp_path, capsys, text, where):
    """--degree-cap bounds the Groebner runs over a declared ring and over
    a built-in example's ring alike.  A stop exits 2, with no traceback,
    at the statement that ran, or at the intersect token when the engine
    runs while the script is parsed."""
    script = tmp_path / "cap.hd"
    script.write_text(text)
    code, out, err = run_cli(capsys, "--input", str(script), "--degree-cap", "2")
    assert code == 2
    assert err == f"{script}:{where}: error: computation exceeded the degree cap 2\n"
    code, out, err = run_cli(capsys, "--input", str(script), "--degree-cap", "64")
    assert code == 0, err


@pytest.mark.parametrize(
    "text, where",
    [
        (
            "ring S = QQ[x, y, z];\nideal J = (x*y);\nalgebra A = S / J;\n"
            "params Q = ((x + y + z)^65, z);\ncheck invariants;\n",
            "4:24",
        ),
        ("ring S = QQ[x, y, z];\nideal J = power((x + y + z), 65);\n", "2:11"),
    ],
    ids=["caret", "power"],
)
def test_power_above_the_degree_cap_stops_at_its_token(tmp_path, capsys, text, where):
    """A power whose degree exceeds the ring's degree cap exits 2 at its
    `^` or `power` token, before it is expanded, not at the `check`."""
    script = tmp_path / "power.hd"
    script.write_text(text)
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert err == f"{script}:{where}: error: computation exceeded the degree cap 64\n"


_SIX = "ring S = QQ[a, b, c, d, e, f];\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (_SIX + "params Q = ((a+b+c+d+e+f)^16, a);\ncheck invariants;\n", "2:26"),
        (_SIX + "params Q = ((a+b+c+d+e+f)^8*(a+b+c+d+e+f)^8, a);\n", "2:28"),
        (_SIX + "ideal J = power((a+b+c+d+e+f), 16);\n", "2:11"),
        (_SIX + "ideal J = product(((a+b+c+d+e+f)^8), ((a+b+c+d+e+f)^8));\n", "2:11"),
    ],
    ids=["caret", "times", "power", "product"],
)
def test_expansion_above_the_term_bound_stops_at_its_token(tmp_path, capsys, text, where):
    """An expansion within the degree cap whose bound from the term counts
    and degrees of its operands exceeds 10,000 terms exits 2 at its token,
    before it is expanded: each case here would expand to the 20,349
    monomials of degree 16 in six variables."""
    script = tmp_path / "size.hd"
    script.write_text(text)
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert err == (
        f"{script}:{where}: error: expansion may have up to 20349 terms; the limit is 10000\n"
    )


@pytest.mark.parametrize(
    "text, where",
    [
        ("ring S = QQ[x, y];\nideal J = (1/0*x*y);\n", "2:12"),
        ("ring S = FP(5)[x, y];\nideal J = (1/5*x*y);\n", "2:12"),
        ("ring S = FP(5)[x, y];\nmodule M = coker [[1/10*x]];\n", "2:20"),
    ],
    ids=["QQ", "FP(5)", "FP(5)-matrix"],
)
def test_zero_denominator_is_positioned(tmp_path, capsys, text, where):
    """A denominator that is 0 in the script's field, also one divisible
    by p over FP(p), is a positioned input error (exit 2), not an engine
    failure."""
    script = tmp_path / "den.hd"
    script.write_text(text)
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert err == f"{script}:{where}: error: zero denominator\n"


@pytest.mark.parametrize(
    "text, where, char",
    [
        ("ring S = QQ[x, y];\nideal J = (x^²);\n", "2:14", "²"),
        ("ring S = QQ[x, y];\nideal J = (x^٣);\n", "2:14", "٣"),
        ("ring S = QQ[x, y];\nideal J = (٣*x);\n", "2:12", "٣"),
    ],
    ids=["superscript", "arabic-indic-exponent", "arabic-indic-coefficient"],
)
def test_non_ascii_digit_is_an_unexpected_character(tmp_path, capsys, text, where, char):
    """An integer is ASCII 0-9 only: a superscript digit, which int()
    refuses, and an Arabic-Indic digit, which int() would read as 3, both
    stop at their position with exit 2."""
    script = tmp_path / "digit.hd"
    script.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert err == f"{script}:{where}: error: unexpected character {char!r}\n"


@pytest.mark.parametrize(
    "text, where, name",
    [
        ("example ex39 l=2 m=1 m=2;\ncheck invariants;\n", "1:22", "m"),
        ("example ex46 l=1 l=1;\ncheck invariants;\n", "1:18", "l"),
    ],
    ids=["ex39", "ex46-same-value"],
)
def test_repeated_example_argument_is_refused(tmp_path, capsys, text, where, name):
    """A repeated `example` argument stops at its second occurrence, as a
    redeclared name does, instead of letting the last value win."""
    script = tmp_path / "twice.hd"
    script.write_text(text)
    code, out, err = run_cli(capsys, "--input", str(script))
    assert code == 2
    assert err == f"{script}:{where}: error: argument {name!r} is repeated\n"
