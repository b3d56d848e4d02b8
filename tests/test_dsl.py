"""Input-language parsing: grammar coverage, round-trips, and positioned
error reporting."""

import pytest

from homdeg.dsl import parse_input
from homdeg.errors import DslError

FULL_SCRIPT = """\
ring S = QQ[x, y, z];
ideal J = intersect((x), (power((y), 2), z));
algebra A = S / J;
params Q = (x - y, x - z);
check invariants;
check thm2;
"""


def test_parse_full_script():
    script = parse_input(FULL_SCRIPT)
    assert len(script.statements) == 6
    ideal = script.statements[1]
    # (x) cap (y^2, z) = (x*y^2, x*z)
    assert sorted(map(repr, ideal.gens)) == ["x*y^2", "x*z"]


def test_round_trip():
    script = parse_input(FULL_SCRIPT)
    again = parse_input(script.unparse())
    assert again == script
    assert again.unparse() == script.unparse()


def test_round_trip_module_and_example():
    text = """\
ring S = FP(32003)[x, y];
module M = coker [[x^2, 0], [0, y]];
example ex39 l=2 m=1;
example ex46 l=3;
check audit;
"""
    script = parse_input(text)
    assert parse_input(script.unparse()) == script


def test_product_and_power():
    script = parse_input("ring S = QQ[x, y]; ideal J = product((x), (x, y));")
    assert sorted(map(repr, script.statements[1].gens)) == ["x*y", "x^2"]
    script = parse_input("ring S = QQ[x, y]; ideal K = power((x, y), 2);")
    assert sorted(map(repr, script.statements[1].gens)) == ["x*y", "x^2", "y^2"]


def test_rational_coefficients():
    script = parse_input("ring S = QQ[x, y]; ideal J = (1/2*x + y);")
    g = script.statements[1].gens[0]
    assert repr(2 * g) in ("x + 2*y", "2*y + x")


def test_empty_command_list_is_valid():
    script = parse_input("ring S = QQ[x];")
    assert len(script.statements) == 1


def test_comments_and_whitespace():
    script = parse_input("# a comment\nring S = QQ[x];  # trailing\nparams Q = (x);\n")
    assert len(script.statements) == 2


@pytest.mark.parametrize(
    "text,line,col_min",
    [
        ("ring S = QQ[x]\nideal J = (x);", 2, 1),  # missing semicolon
        ("ring S = QQ[x];\nideal J = (x + 1);", 2, 1),  # inhomogeneous
        ("ideal J = (x);", 1, 1),  # no ring in scope
        ("ring S = QQ[x];\nideal J = (w);", 2, 1),  # unknown variable
        ("ring S = QQ[x];\nalgebra A = S / K;", 2, 1),  # undeclared ideal
        ("ring S = QQ[x];\nring S = QQ[y];", 2, 1),  # redeclaration
        ("ring S = QQ[x];\nparams Q = (x);\ncheck audit;", 3, 1),  # no module
        ("ring S = QQ[x];\nideal J = (x);\nalgebra A = S / J;\ncheck audit;", 4, 1),
        # a ring clears the scope: Q of S is not a parameter ideal under T
        ("ring S = QQ[x];\nparams Q = (x);\nring T = QQ[u];\nideal K = (u^2);\n"
         "algebra B = T / K;\ncheck invariants;", 6, 1),
        # and so is an example declared before the ring
        ("example ex46 l=1;\nring S = QQ[x];\ncheck audit;", 3, 1),
        # a name of an earlier ring, as an algebra's ring or ideal
        ("ring S = QQ[x];\nideal J = (x);\nring T = QQ[u];\nalgebra B = S / J;", 4, 13),
        ("ring S = QQ[x];\nideal J = (x);\nring T = QQ[u];\nalgebra B = T / J;", 4, 17),
        # ... in a generator list, an ideal expression or a polynomial
        ("ring S = QQ[x];\nideal J = (x);\nring T = QQ[u];\nideal K = (J, u);", 4, 12),
        ("ring S = QQ[x];\nideal J = (x);\nring T = QQ[u];\nideal K = J;", 4, 11),
        ("ring S = QQ[x];\nideal J = (x);\nring T = QQ[u];\nparams Q = (u + J);", 4, 17),
    ],
)
def test_positioned_errors(text, line, col_min):
    with pytest.raises(DslError) as err:
        parse_input(text)
    assert err.value.line == line
    assert err.value.col >= col_min


def test_prime_too_large_is_positioned():
    with pytest.raises(DslError) as err:
        parse_input("ring S = FP(3317044064679887385961983)[x];")
    assert (err.value.line, err.value.col) == (1, 10)
    assert "too large" in err.value.msg


def test_error_mentions_offender():
    with pytest.raises(DslError) as err:
        parse_input("ring S = QQ[x];\nideal J = (x + 1);")
    assert "x + 1" in err.value.msg


def test_powers_up_to_the_degree_cap_parse():
    """The degree cap refuses a power only above it: a power of degree 64
    parses under the default cap, and so does any power of a constant."""
    script = parse_input("ring S = QQ[x, y, z];\nparams Q = ((x + y + z)^64, 2^100*z);")
    assert [g.degree() for g in script.statements[-1].gens] == [64, 1]
    script = parse_input("ring S = QQ[x, y];\nideal J = power((x, y^2), 32);")
    assert max(g.degree() for g in script.statements[-1].gens) == 64
    with pytest.raises(DslError) as err:
        parse_input("ring S = QQ[x, y];\nideal J = (x^3);", degree_cap=2)
    assert (err.value.line, err.value.col) == (2, 13)
