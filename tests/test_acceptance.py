"""End-to-end acceptance suite: one test per acceptance criterion.

Every numeric assertion is an exact integer comparison; the runtime bounds
are asserted where the criterion carries one.
"""

import json
import pathlib
import time
from math import comb

import pytest

from homdeg import (
    Algebra,
    PolyRing,
    hdeg,
    hilbert_coefficients,
    invariant_report,
)
from homdeg.cli import main as cli_main
from homdeg.errors import HomdegError
from homdeg.invariants import NotDSequenceError, dseq_coefficients, h0_length
from homdeg.koszul import euler_char_1
from homdeg.verify import audit_inequalities, check_thm1, check_thm2

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _colength(pres, q_gens):
    return pres.quotient_by_ideal(q_gens).length()


def test_criterion_1_mixed_surface_family(ex46_family):
    """l in {1,2,3}: e = (1, -l, -C(l,2)), l(A/Q) = 2, chi1 = 1,
    hdeg = l + 1, T^1 = l; second theorem's condition (2) always holds
    while condition (1) holds only for l = 1.  Under 30 s total."""
    t0 = time.monotonic()
    for l, inst in ex46_family.items():
        inv = invariant_report(inst.pres, inst.q_gens)
        assert inv.e.e == (1, -l, -comb(l, 2)), f"l={l}"
        assert _colength(inst.pres, inst.q_gens) == 2, f"l={l}"
        assert inv.chi1 == 1, f"l={l}"
        assert inv.hdeg == l + 1, f"l={l}"
        assert inv.torsions == (l,), f"l={l}"
        v = check_thm2(inst)
        assert v.condition2, f"l={l}"
        assert v.condition1 == (l == 1), f"l={l}"
        assert v.equivalence_consistent, f"l={l}"
    assert time.monotonic() - t0 < 30


def test_criterion_2_linear_intersection_family(ex39_family, tmp_path, capsys):
    """(l,m) in {(2,1),(3,1),(2,2),(3,2),(4,1)}: dim = l+m, depth = m+1,
    e0 = 2, l(A/Q) = l+1, chi1 = l-1, hdeg = 2 + C(l+m-1, m+1) and
    T^i = C(l+m-i-1, m); first theorem's condition (1) holds exactly when
    l = 2.  Under 30 s per instance.  At (4,1) the CLI's JSON report is
    the same over QQ and GF(32003)."""
    for (l, m), inst in ex39_family.items():
        t0 = time.monotonic()
        inv = invariant_report(inst.pres, inst.q_gens)
        assert inv.dim == l + m, f"(l,m)=({l},{m})"
        assert inv.depth == m + 1, f"(l,m)=({l},{m})"
        assert inv.e[0] == 2, f"(l,m)=({l},{m})"
        assert _colength(inst.pres, inst.q_gens) == l + 1, f"(l,m)=({l},{m})"
        assert inv.chi1 == l - 1, f"(l,m)=({l},{m})"
        assert inv.hdeg == 2 + comb(l + m - 1, m + 1), f"(l,m)=({l},{m})"
        want = tuple(comb(l + m - i - 1, m) for i in range(1, l + m))
        assert inv.torsions == want, f"(l,m)=({l},{m})"
        v = check_thm1(inst)
        assert v.condition1 == (l == 2), f"(l,m)=({l},{m})"
        assert v.equivalence_consistent, f"(l,m)=({l},{m})"
        assert time.monotonic() - t0 < 30, f"(l,m)=({l},{m})"
    script = tmp_path / "ex39_4_1.hd"
    script.write_text("example ex39 l=4 m=1;\ncheck invariants;\ncheck thm1;\ncheck audit;\n")
    reports = []
    for field in ("qq", "fp:32003"):
        code = cli_main(["--input", str(script), "--format", "json", "--field", field])
        assert code == 0, field
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["torsions"] == ["3", "2", "1", "0"]


def test_criterion_3_inequality_audit(corpus):
    """chi1 >= 0, chi1 <= hdeg - e0, e1 <= 0, e1 >= -T^1 when dim >= 2,
    dim M_j <= j: zero violations over >= 20 instances."""
    assert len(corpus) >= 20
    for inst in corpus:
        # audit_inequalities raises EngineBugError on any violation
        report = audit_inequalities(inst)
        assert report["chi1"] >= 0, inst.name


def test_criterion_4_metatheorem_consistency(corpus):
    """Both equivalences hold on every instance meeting their
    preconditions; the consequences of the first theorem hold whenever its
    condition (1) does."""
    checked = 0
    for inst in corpus:
        d = inst.pres.dim()
        if d < 1:
            continue
        v1 = check_thm1(inst)
        assert v1.equivalence_consistent, inst.name
        if v1.condition1:
            assert v1.consequences["d_sequence"] != "unverified", inst.name
            assert v1.consequences["qm_cap_h0_zero"], inst.name
            assert v1.consequences["q_kills_hi"], inst.name
        if d >= 2:
            v2 = check_thm2(inst)
            assert v2.equivalence_consistent, inst.name
        checked += 1
    assert checked >= 15


def test_criterion_5_oracle_equivalences(corpus):
    """Independent routes to the same number agree exactly: the colon /
    m-torsion length formulas vs the exact Samuel polynomial, the Koszul
    Euler characteristic vs l(M/QM) - e0, the two H^0 lengths, and
    e1 = -l(H^0) in dimension one."""
    dseq_hits = 0
    for inst in corpus:
        pres, q = inst.pres, inst.q_gens
        e = hilbert_coefficients(pres, q)
        # Koszul chi1 vs Serre's difference: checked internally, exactly
        chi1 = euler_char_1(pres, q, multiplicity=e[0])
        assert chi1 >= 0, inst.name
        # H^0 length via saturation vs via duality: internal cross-check
        h0 = h0_length(pres)
        if pres.dim() == 1:
            assert e[1] == -h0, inst.name
        if len(q) == pres.dim():
            try:
                samuel, _ = dseq_coefficients(pres, q)
            except (NotDSequenceError, HomdegError, ValueError):
                continue
            assert samuel.e == e.e, inst.name
            dseq_hits += 1
    assert dseq_hits >= 5


def test_criterion_6_additivity_of_hdeg():
    """For 0 -> X -> Y -> Z -> 0 with l(X) finite, hdeg is additive; with
    l(X) infinite it can be strictly subadditive.  Under 10 s."""
    from homdeg.invariants import h0_torsion_module

    t0 = time.monotonic()
    cases = [
        (("x", "y"), lambda x, y: [x**2, x * y], lambda x, y: (y,), lambda x, y: [x]),
        (("x", "y"), lambda x, y: [x**3, x * y], lambda x, y: (y,), lambda x, y: [x]),
        (
            ("x", "y", "z"),
            lambda x, y, z: [x**2, x * y, x * z],
            lambda x, y, z: (y, z),
            lambda x, y, z: [x],
        ),
    ]
    for names, rels, q_fn, z_rels in cases:
        ring = PolyRing(names)
        gens = ring.gens()
        y_mod = Algebra(ring, rels(*gens)).as_module()
        q = list(q_fn(*gens))
        x_mod = h0_torsion_module(y_mod)  # X = H^0(Y), finite length
        assert x_mod.length() is not None
        z_mod = Algebra(ring, z_rels(*gens)).as_module()  # Z = Y / X
        assert hdeg(y_mod, q) == hdeg(x_mod, q) + hdeg(z_mod, q)

    # strictness witness: 0 -> m -> A -> k -> 0 with A = k[x,y]/(xy),
    # a one-dimensional CM ring; l(m) is infinite and additivity fails
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    a_mod = Algebra(ring, [x * y]).as_module()
    q = [x - y]
    m_mod = a_mod.subquotient([a_mod.ambient.inject(x), a_mod.ambient.inject(y)])
    k_mod = Algebra(ring, [x, y]).as_module()
    assert hdeg(a_mod, q) < hdeg(m_mod, q) + hdeg(k_mod, q)
    assert time.monotonic() - t0 < 10


def test_criterion_7_cli_corpus(capsys):
    """Twenty-three malformed scripts exit 2 with positioned diagnostics; the
    two family scripts reproduce their checked-in JSON byte for byte under a
    fixed seed."""
    malformed = sorted((CORPUS / "malformed").glob("*.hd"))
    assert len(malformed) == 23
    for f in malformed:
        code = cli_main(["--input", str(f)])
        captured = capsys.readouterr()
        assert code == 2, f.name
        assert f"{f}:" in captured.err and ": error:" in captured.err, f.name
        assert ":0:0:" not in captured.err, f.name

    for stem in ("ex46_l2", "ex39_l2_m1"):
        script = CORPUS / f"{stem}.hd"
        expected = (CORPUS / "expected" / f"{stem}.json").read_text()
        outputs = []
        for _ in range(2):
            code = cli_main(
                ["--input", str(script), "--format", "json", "--seed", "0"]
            )
            captured = capsys.readouterr()
            assert code == 0, stem
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == expected, stem
        json.loads(expected)  # and it is well-formed JSON
