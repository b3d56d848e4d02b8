"""Property: random valid input never trips a cross-check.

Two kinds of draw over k[x,y,z].  The first is a monomial ideal J moved by
a random unitriangular integer change of coordinates (so J is no longer
monomial), with a random integer linear Q.  The second is the cokernel of
a random homogeneous 2-row matrix with twists (0, 1), with a Q whose first
generator is a product of two linear forms.  A draw is rejected only when
it is not valid input: Q must have dim M nonzero generators and M/QM
finite length.  On every valid draw the full report, both theorem
checkers and the inequality audit must run without an EngineBugError and
with consistent equivalences.
"""

from functools import reduce
from operator import mul

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from homdeg import Algebra, FreeModule, Polynomial, PolyRing, Presentation
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


def _draw_linear(data, ring, label):
    return _linear(ring, data.draw(st.lists(_coeff, min_size=N, max_size=N), label=label))


def _draw_form(data, ring, deg, label):
    """One or two terms of degree deg with coefficients in -2..2; 0 when
    deg < 0."""
    form = ring.zero
    if deg < 0:
        return form
    for k in range(data.draw(st.integers(1, 2), label=f"{label} terms")):
        c = data.draw(_coeff, label=f"{label} coeff{k}")
        m = data.draw(st.lists(st.integers(0, N - 1), min_size=deg, max_size=deg))
        if c:
            mono = tuple(m.count(i) for i in range(N))
            form = form + Polynomial(ring, {mono: ring.field.from_int(c)})
    return form


def _check_valid_draw(pres, q):
    """Reject invalid input, then run every report and checker."""
    d = pres.dim()
    assume(d >= 1)  # dim 0: no parameter ideal of length dim M
    assume(len(q) == d and all(q) and pres.quotient_by_ideal(q).length() is not None)
    event(f"dim {d}")
    inst = ProblemInstance(pres, q, {"family": "property", "params": {}})
    invariant_report(pres, q)
    assert check_thm1(inst).equivalence_consistent
    if d >= 2:
        assert check_thm2(inst).equivalence_consistent
    audit_inequalities(inst)


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
    rels = [reduce(mul, [sub[i] for i in m]) for m in monos]
    pres = Algebra(ring, rels).as_module()
    q = [_draw_linear(data, ring, f"q{i}") for i in range(max(pres.dim(), 0))]
    _check_valid_draw(pres, q)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_twisted_rank_two_with_a_quadratic_parameter(data):
    ring = PolyRing(("x", "y", "z"))
    twists = (0, 1)
    ambient = FreeModule(ring, 2, twists)
    cols = []
    for j in range(data.draw(st.integers(1, 3), label="columns")):
        deg = data.draw(st.integers(1, 3), label=f"col{j} degree")
        col = ambient.zero()
        for c in range(2):
            col = col + ambient.inject(_draw_form(data, ring, deg - twists[c], f"col{j}[{c}]"), c)
        cols.append(col)
    pres = Presentation(Algebra(ring), ambient, cols)
    q = [_draw_linear(data, ring, f"q{i}") for i in range(max(pres.dim(), 0))]
    if q:
        q[0] = q[0] * _draw_linear(data, ring, "q0 factor")
    _check_valid_draw(pres, q)
