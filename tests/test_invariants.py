"""Homological degree, torsions, m-torsion lengths, and the structural
predicates (generalized CM, unmixed, d-sequence, superficial)."""

import pytest

from homdeg import (
    Algebra,
    PolyRing,
    dseq_coefficients,
    h0_length,
    hdeg,
    hilbert_coefficients,
    invariant_report,
    is_d_sequence,
    is_generalized_cm,
    is_superficial,
    is_unmixed,
    stuckrad_vogel,
    torsions,
)
from homdeg.invariants import NotDSequenceError


@pytest.fixture
def low_depth():
    # A = k[x,y]/(x^2, xy): line with an embedded point, depth 0
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    return pres, [y], (x, y)


def test_hdeg_cm_equals_multiplicity():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    assert hdeg(pres, [x - y]) == 2


def test_hdeg_low_depth(low_depth):
    pres, q, _ = low_depth
    # hdeg = e0 + l(H^0) = 1 + 1 in dimension one
    assert hdeg(pres, q) == 2


def test_hdeg_cached_per_ideal(low_depth):
    """hdeg is cached on the presentation under its Q: another Q on the
    same module gets its own value, and the first value stays."""
    pres, q, (x, y) = low_depth
    assert hdeg(pres, q) == 2
    assert hdeg(pres, [y**2]) == 3  # e0 = 2 for Q = (y^2), plus l(H^0) = 1
    assert hdeg(pres, q) == 2


def test_hdeg_finite_length_is_length():
    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, [x**2]).as_module()
    assert hdeg(pres, [x]) == 2


def test_h0_length(low_depth):
    pres, _, (x, y) = low_depth
    assert h0_length(pres) == 1  # the socle element x


def test_h0_length_positive_depth():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    assert h0_length(Algebra(ring, [x * y]).as_module()) == 0


def test_torsions_and_sv():
    # two planes meeting at a point in 4-space: Buchsbaum, T^1 = 1
    ring = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    pres = Algebra(ring, [x * z, x * w, y * z, y * w]).as_module()
    q = [x - z, y - w]
    assert torsions(pres, q) == (1,)
    assert is_generalized_cm(pres)
    assert stuckrad_vogel(pres, q) == 1
    assert hdeg(pres, q) == 3  # e0 = 2 plus the torsion contribution


def test_gcm_false_for_mixed_components():
    # plane union line: H^1 not finitely generated
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y, x * z]).as_module()
    assert not is_generalized_cm(pres)
    assert stuckrad_vogel(pres) is None


def test_unmixed():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    assert is_unmixed(Algebra(ring, [x * y]).as_module())
    assert not is_unmixed(Algebra(ring, [x * y, x * z]).as_module())
    assert not is_unmixed(Algebra(ring, [x**2, x * y]).as_module())


def test_is_d_sequence_regular():
    ring = PolyRing(("x", "y"))
    pres = Algebra(ring, ()).as_module()
    ok, pair = is_d_sequence(pres, list(ring.gens()))
    assert ok and pair is None


def test_is_d_sequence_failure_pair():
    # (x, y) on k[x,y]/(x^2, xy): (0 : x^2) = (x, y) strictly contains
    # (0 : x) = (x), so the first failing pair is (i, j) = (1, 1)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    ok, pair = is_d_sequence(pres, [x, y])
    assert not ok
    assert pair == (1, 1)


def test_superficial_yes():
    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, ()).as_module()
    assert is_superficial(pres, x, [x]) == "yes"


def test_superficial_no():
    # x is not superficial for m on k[x,y]/(xy): (m^{n+1} : x) contains y
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    assert is_superficial(pres, x, [x, y]) == "no"
    assert is_superficial(pres, x - y, [x, y]) == "yes"


def test_superficial_requires_membership():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    with pytest.raises(ValueError):
        is_superficial(pres, x, [y])


def test_dseq_coefficients_match_fitted(low_depth):
    pres, q, _ = low_depth
    e, details = dseq_coefficients(pres, q)
    assert e.e == hilbert_coefficients(pres, q).e == (1, -1)
    assert details["h0_M"] == 1


def test_dseq_coefficients_rejects_non_dseq():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    with pytest.raises(NotDSequenceError) as err:
        dseq_coefficients(pres, [x, y])
    assert err.value.pair == (1, 1)


def test_invariant_report_cm():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    inv = invariant_report(pres, [x - y])
    assert inv.dim == inv.depth == 1
    assert inv.cohen_macaulay
    assert inv.hdeg == inv.e[0] == 2
    assert inv.chi1 == 0
    assert inv.h0_length == 0
    assert inv.sv_invariant == 0


def test_invariant_report_low_depth(low_depth):
    pres, q, _ = low_depth
    inv = invariant_report(pres, q)
    assert inv.dim == 1 and inv.depth == 0
    assert not inv.cohen_macaulay
    assert inv.e.e == (1, -1)
    assert inv.hdeg == 2
    assert inv.chi1 == 1
    assert inv.generalized_cm
    assert not inv.unmixed
