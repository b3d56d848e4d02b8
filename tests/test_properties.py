"""Property: random valid input never trips a cross-check.

A draw is a monomial ideal J of k[x,y,z] moved by a random unitriangular
integer change of coordinates (so J is no longer monomial) and a random
integer linear Q.  A draw is rejected only when it is not valid input: Q
must have dim M generators and M/QM finite length.  On every valid draw
the full report, both theorem checkers and the inequality audit must run
without an EngineBugError and with consistent equivalences.
"""

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from homdeg import Algebra, Polynomial, PolyRing
from homdeg.invariants import invariant_report
from homdeg.verify import ProblemInstance, audit_inequalities, check_thm1, check_thm2

N = 3
_coeff = st.integers(-2, 2)
# a monomial of degree 1..3 as the list of its variables
_monomial = st.lists(st.integers(0, N - 1), min_size=1, max_size=3)


def _linear(ring, coeffs):
    form = ring.zero
    for i, c in enumerate(coeffs):
        if c:
            form = form + ring.var(i).scale(ring.field.from_int(c))
    return form


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    monos=st.lists(_monomial, min_size=1, max_size=4),
    shear=st.lists(_coeff, min_size=N * (N - 1) // 2, max_size=N * (N - 1) // 2),
    data=st.data(),
)
def test_random_valid_input_never_raises_engine_bug(monos, shear, data):
    ring = PolyRing(("x", "y", "z"))
    # x_i -> x_i + sum_{j > i} c_ij x_j: unitriangular, so invertible
    sub, k = [], 0
    for i in range(N):
        row = [0] * N
        row[i] = 1
        for j in range(i + 1, N):
            row[j] = shear[k]
            k += 1
        sub.append(_linear(ring, row))
    one = ring.field.one
    rels = [
        Polynomial(ring, {tuple(m.count(i) for i in range(N)): one}).substitute(sub)
        for m in monos
    ]
    pres = Algebra(ring, rels).as_module()
    d = pres.dim()
    assume(d >= 1)  # dim 0: no parameter ideal of length dim M
    q = [
        _linear(ring, data.draw(st.lists(_coeff, min_size=N, max_size=N), label=f"q{i}"))
        for i in range(d)
    ]
    assume(all(q) and pres.quotient_by_ideal(q).length() is not None)

    event(f"dim {d}")
    inst = ProblemInstance(pres, q, {"family": "property", "params": {}})
    invariant_report(pres, q)
    assert check_thm1(inst).equivalence_consistent
    if d >= 2:
        assert check_thm2(inst).equivalence_consistent
    audit_inequalities(inst)
