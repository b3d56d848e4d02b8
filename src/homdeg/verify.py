"""Mechanical checkers for the two structure theorems on parameter ideals,
generators for the two benchmark families, and the inequality audit.

Theorem "thm1" (any module M, Q a parameter ideal):
    (1) chi_1(Q;M) = hdeg_Q(M) - e0_Q(M)
is equivalent to
    (2a) (-1)^i e_i = T^i for 1 <= i <= d-1 and (-1)^d e_d = l(H^0(M)),
    (2b) the Samuel function equals its polynomial for every n >= 0,
and implies (i) Q admits d-sequence generators and (ii) QM cap H^0(M) = 0
with Q H^i(M) = 0 for 1 <= i <= d-2.

Theorem "thm2" (M unmixed, d >= 2): (1) is equivalent to
    (2) e_1 = -T^1,
implying (-1)^i e_i = T^i for 2 <= i <= d-1, e_d = 0, polynomial
exactness, d-sequence generators, and Q H^i(M) = 0 for 1 <= i <= d-2.
The mixed benchmark family witnesses that (2) does not imply (1) without
unmixedness.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import permutations

from .errors import EngineBugError
from .fields import QQ
from .invariants import (
    _sub_length,
    h0_length,
    h0_torsion_gens,
    invariant_report,
    is_d_sequence,
)
from .modules import Algebra, submodule_key
from .resolution import dual_module, dual_series
from .ring import PolyRing


@dataclass
class ProblemInstance:
    """A module together with a parameter ideal and provenance metadata."""

    pres: object
    q_gens: list
    metadata: dict = field(default_factory=dict)

    @property
    def name(self):
        fam = self.metadata.get("family", "instance")
        params = self.metadata.get("params", {})
        tail = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{fam}({tail})" if tail else fam


@dataclass
class TheoremVerdict:
    theorem: str
    condition1: bool
    condition2a: tuple = ()  # per-i booleans (thm1)
    condition2b: bool = None
    condition2: bool = None  # thm2: e1 = -T^1
    unmixed: bool = None
    equivalence_consistent: bool = True
    consequences: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


def _q_kills_dual(pres, q_gens, i):
    """True iff Q annihilates the dual module M_i, that is iff M_i/QM_i
    (cached on M_i) has the Hilbert series of M_i.  A zero M_i, read off
    dual_series, is not presented; a nonzero one is (dual_module)."""
    series = dual_series(pres)
    if i >= len(series) or not series[i]:
        return True
    mi = dual_module(pres, i)
    return mi.quotient_by_ideal(q_gens).hilbert_numerator() == mi.hilbert_numerator()


def _qm_meets_h0(pres, q_gens):
    """True iff QM cap H^0(M) = 0 inside M.

    H^0(M) = sat/N (sat the m-saturation of N) maps onto (sat + QF)/(N + QF)
    inside M/QM with kernel QM cap H^0(M), so the intersection is zero iff
    the two have one length."""
    image = _sub_length(
        pres.quotient_by_ideal(q_gens),
        list(h0_torsion_gens(pres)) + pres.ideal_times_ambient(q_gens),
    )
    return image == h0_length(pres)


def find_dseq_generators(pres, q_gens, seed=0, trials=20, metadata=None):
    """Search for generators of Q forming a d-sequence on M.

    The given generators are tried first, then the same generators with
    their degree blocks (the generators of one degree, in their given
    order) in every other order, then up to `trials` random recombinations
    over small integers within each block, each tried under every block
    order.  Only generators of equal degree are mixed, so every candidate
    is homogeneous.  The draws are seeded deterministically from the
    instance metadata and the session seed.  Returns the generator list or
    None if the search fails.
    """
    ok, _ = is_d_sequence(pres, q_gens)
    if ok:
        return list(q_gens)
    blocks = {}
    for g in q_gens:
        blocks.setdefault(g.degree(), []).append(g)
    orders = list(permutations(sorted(blocks)))
    for order in orders:
        cand = [g for deg in order for g in blocks[deg]]
        if cand != list(q_gens) and is_d_sequence(pres, cand)[0]:
            return cand
    ring = pres.ring
    algebra = pres.algebra.as_module()
    target = submodule_key(algebra.quotient_by_ideal(q_gens).gb())
    material = json.dumps(metadata or {}, sort_keys=True, default=str) + f"#{seed}"
    rng = random.Random(
        int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")
    )
    for _ in range(trials):
        drawn = {}
        for deg in sorted(blocks):
            gens = blocks[deg]
            k = len(gens)
            coeffs = [[rng.randrange(0, 20) for _ in range(k)] for _ in range(k)]
            drawn[deg] = [
                sum(
                    (g.scale(ring.field.from_int(c)) for c, g in zip(row, gens) if c),
                    ring.zero,
                )
                for row in coeffs
            ]
        if any(not b for block in drawn.values() for b in block):
            continue
        span = algebra.quotient_by_ideal([b for block in drawn.values() for b in block])
        if submodule_key(span.gb()) != target:
            continue
        for order in orders:
            cand = [b for deg in order for b in drawn[deg]]
            if is_d_sequence(pres, cand)[0]:
                return cand
    return None


def _shared_consequences(inst, d, seed, consequences, witnesses, meets_h0):
    """Record the consequences both theorems draw: d-sequence generators
    of Q and Q H^i(M) = 0 for 1 <= i <= d-2, with QM cap H^0(M) = 0
    between them when meets_h0 (thm1).  A failure adds its witness."""
    pres, q = inst.pres, inst.q_gens
    gens = find_dseq_generators(pres, q, seed=seed, metadata=inst.metadata)
    consequences["d_sequence"] = "unverified" if gens is None else [repr(g) for g in gens]
    if gens is None:
        witnesses.append("no d-sequence generators found within the trial budget")
    if meets_h0:
        consequences["qm_cap_h0_zero"] = _qm_meets_h0(pres, q)
        if not consequences["qm_cap_h0_zero"]:
            witnesses.append("QM cap H^0(M) != 0")
    kills = all(_q_kills_dual(pres, q, i) for i in range(1, max(d - 1, 1)))
    consequences["q_kills_hi"] = kills
    if not kills:
        witnesses.append("Q does not annihilate some H^i(M), 1 <= i <= d-2")


def check_thm1(inst, seed=0):
    """Verdict for the chi_1 = hdeg - e0 equivalence theorem, on the
    cached invariant_report of the instance."""
    inv = invariant_report(inst.pres, inst.q_gens)
    if inv.dim < 1:
        raise ValueError("the theorem concerns modules of positive dimension")
    d, e, t, h0 = inv.dim, inv.e, inv.torsions, inv.h0_length
    witnesses = []
    cond1 = inv.chi1 == inv.hdeg - e[0]
    per_i = []
    for i in range(1, d):
        ok = (-1) ** i * e[i] == t[i - 1]
        per_i.append(ok)
        if not ok:
            witnesses.append(
                f"(-1)^{i} e_{i} = {(-1) ** i * e[i]} != T^{i} = {t[i - 1]}"
            )
    ok_d = (-1) ** d * e[d] == h0
    per_i.append(ok_d)
    if not ok_d:
        witnesses.append(f"(-1)^{d} e_{d} = {(-1) ** d * e[d]} != l(H^0) = {h0}")
    cond2b = e.postulation == 0
    if not cond2b:
        witnesses.append(f"Samuel function differs from polynomial below n = {e.postulation}")
    cond2 = all(per_i) and cond2b
    consistent = cond1 == cond2
    if not consistent:
        witnesses.append(
            f"equivalence violated: condition (1) is {cond1} but (2a and 2b) is {cond2}"
        )
    consequences = {}
    if cond1:
        _shared_consequences(inst, d, seed, consequences, witnesses, meets_h0=True)
    return TheoremVerdict(
        theorem="thm1",
        condition1=cond1,
        condition2a=tuple(per_i),
        condition2b=cond2b,
        equivalence_consistent=consistent,
        consequences=consequences,
        witnesses=witnesses,
    )


def check_thm2(inst, seed=0):
    """Verdict for the e_1 = -T^1 equivalence theorem (unmixed, dim >= 2),
    on the cached invariant_report of the instance."""
    inv = invariant_report(inst.pres, inst.q_gens)
    if inv.dim < 2:
        raise ValueError("the theorem requires dim M >= 2")
    d, e, t, unmixed = inv.dim, inv.e, inv.torsions, inv.unmixed
    witnesses = []
    cond1 = inv.chi1 == inv.hdeg - e[0]
    cond2 = e[1] == -t[0]
    consistent = True
    if unmixed:
        consistent = cond1 == cond2
        if not consistent:
            witnesses.append(
                f"equivalence violated on an unmixed module: (1) is {cond1}, (2) is {cond2}"
            )
    consequences = {}
    if unmixed and cond1 and cond2:
        per_i = all((-1) ** i * e[i] == t[i - 1] for i in range(2, d))
        consequences["higher_coefficients"] = per_i and e[d] == 0
        if not consequences["higher_coefficients"]:
            witnesses.append("consequence (i) fails: higher coefficients or e_d")
        consequences["polynomial_exact"] = e.postulation == 0
        if not consequences["polynomial_exact"]:
            witnesses.append("consequence fails: Samuel polynomial not exact from n = 0")
        _shared_consequences(inst, d, seed, consequences, witnesses, meets_h0=False)
    return TheoremVerdict(
        theorem="thm2",
        condition1=cond1,
        condition2=cond2,
        unmixed=unmixed,
        equivalence_consistent=consistent,
        consequences=consequences,
        witnesses=witnesses,
    )


def gen_example_39(l, m, field=QQ, degree_cap=64):
    """The intersection-of-linear-ideals family: A = S/(X_1..X_l) cap
    (Y_1..Y_l) in 2l + m variables, Q = (x_i - y_i; z_j), over a ring
    whose Groebner runs are bounded by degree_cap."""
    if l < 2 or m < 1:
        raise ValueError("family requires l >= 2 and m >= 1")
    names = (
        [f"x{i}" for i in range(1, l + 1)]
        + [f"y{i}" for i in range(1, l + 1)]
        + [f"z{j}" for j in range(1, m + 1)]
    )
    ring = PolyRing(names, field=field, degree_cap=degree_cap)
    xs = [ring.var(i) for i in range(l)]
    ys = [ring.var(l + i) for i in range(l)]
    zs = [ring.var(2 * l + j) for j in range(m)]
    # (X) cap (Y) of two monomial ideals: the lcms x_i y_j, its reduced basis
    pres = Algebra(ring, [x * y for x in xs for y in ys]).as_module()
    q = [x - y for x, y in zip(xs, ys)] + zs
    return ProblemInstance(pres, q, {"family": "ex39", "params": {"l": l, "m": m}})


def gen_example_46(l, field=QQ, degree_cap=64):
    """The mixed-ring family: A = k[x,y,z]/((X) cap (Y^l, Z)), with the
    parameter ideal Q = (x - y, x - z), over a ring whose Groebner runs
    are bounded by degree_cap."""
    if l < 1:
        raise ValueError("family requires l >= 1")
    ring = PolyRing(["x", "y", "z"], field=field, degree_cap=degree_cap)
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y**l, x * z]).as_module()
    q = [x - y, x - z]
    return ProblemInstance(pres, q, {"family": "ex46", "params": {"l": l}})


def audit_inequalities(inst):
    """Evaluate the unconditional inequalities chi1 >= 0, e1 <= 0 and
    e1 >= -T^1 (dim >= 2) on the cached invariant_report; any violation is
    fatal.  (invariant_report itself checks chi1 <= hdeg - e0, and
    dual_series dim M_j <= j.)  Returns the evaluated report.
    """
    inv = invariant_report(inst.pres, inst.q_gens)
    d, e, chi1, t = inv.dim, inv.e, inv.chi1, inv.torsions
    report = {
        "chi1": chi1,
        "hdeg": inv.hdeg,
        "e": tuple(e.e),
        "torsions": t,
    }
    if chi1 < 0:
        raise EngineBugError(f"chi1 = {chi1} < 0 on {inst.name}")
    if d >= 1 and e[1] > 0:
        raise EngineBugError(f"e1 = {e[1]} > 0 on {inst.name}")
    if d >= 2 and e[1] < -t[0]:
        raise EngineBugError(f"e1 = {e[1]} < -T^1 = {-t[0]} on {inst.name}")
    return report
