"""Seeded generation of the benchmark's input scripts.

Each workload is a list of `Job`s: one script file plus the CLI arguments
it runs under and the facts the oracle needs to check its report.  The
program under test receives only the generated scripts and `--seed`.

- `families`: the paper's two families through the built-in `example`
  statement, under QQ and GF(32003).  The seed reaches the program only as
  `--seed` (it steers the d-sequence search).
- `random-small`: seeded monomial quotients k[x,y,z]/J with a random
  small-integer linear parameter ideal.  The seed changes the draw.  Slot
  i of the draw asks for dimension 1 + i % 2 and a draw of the other
  dimension is drawn again, so every run holds the same mix; draws are
  dropped only for input validity, never for failing or being slow.
  k[x,y,z,w] draws are left out: their cost ranged over 0.25-3.6 s, so a
  run's total moved by about 20% from one seed to the next.
- `nonlinear-q`: the ex46 rings written out as ring/ideal/algebra/params
  scripts with Q = ((x-y)^2, (x-z)^2), so Samuel runs by the non-linear
  route.  The seed reaches the program only as `--seed`.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("families", "random-small", "nonlinear-q")
FP = 32003
RANDOM_DRAWS = 150
RANDOM_VARS = ("x", "y", "z")


@dataclass
class Job:
    name: str
    text: str
    args: tuple  # CLI arguments besides --input and --format
    facts: dict = field(default_factory=dict)


def _checks(*kinds):
    return "".join(f"check {k};\n" for k in kinds)


def families(seed):
    jobs = []
    for fld in ("qq", f"fp:{FP}"):
        tag = "qq" if fld == "qq" else "fp"
        args = ("--field", fld, "--seed", str(seed))
        jobs.append(Job(
            f"ex39_l2_m1_{tag}",
            "example ex39 l=2 m=1;\n" + _checks("invariants", "thm1", "audit"),
            args,
            {"family": "ex39", "l": 2, "m": 1, "field": fld,
             "q_forms": ["x1 + -1*y1", "x2 + -1*y2", "z1"]},
        ))
        for l in range(1, 7):
            jobs.append(Job(
                f"ex46_l{l}_{tag}",
                f"example ex46 l={l};\n" + _checks("invariants", "thm2", "audit"),
                args,
                {"family": "ex46", "l": l, "field": fld},
            ))
    return jobs


def nonlinear_q(seed):
    jobs = []
    for l in range(1, 7):
        text = (
            "ring S = QQ[x, y, z];\n"
            f"ideal J = intersect((x), (power((y), {l}), z));\n"
            "algebra A = S / J;\n"
            "params Q = ((x - y)^2, (x - z)^2);\n"
            + _checks("invariants", "thm2", "audit")
        )
        jobs.append(Job(
            f"ex46nl_l{l}", text, ("--seed", str(seed)),
            {"family": "ex46nl", "l": l},
        ))
    return jobs


# ---- random-small --------------------------------------------------------


def monomial_facts(n, gens):
    """Dimension, degree multiplicity, minimal primes and l(H^0) of S/J for
    a monomial ideal J, computed combinatorially and independently of the
    program under test.  `gens` are exponent tuples."""
    # Hilbert series numerator of S/J by inclusion-exclusion over lcms.
    num = {}
    for k in range(len(gens) + 1):
        for sub in itertools.combinations(gens, k):
            deg = sum(max(col) for col in zip(*sub)) if sub else 0
            num[deg] = num.get(deg, 0) + (-1) ** k
    coeffs = [num.get(i, 0) for i in range(max(num) + 1)]
    pole = n
    while pole > 0 and sum(coeffs) == 0:
        # divide by (1 - t): partial sums
        coeffs = list(itertools.accumulate(coeffs))[:-1]
        pole -= 1
    # Minimal primes of J are generated by minimal vertex covers of the
    # supports; each gives a component k[U], U = the uncovered variables.
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    covers = [
        frozenset(c)
        for k in range(n + 1)
        for c in itertools.combinations(range(n), k)
        if all(s & set(c) for s in supports)
    ]
    minimal = [c for c in covers if not any(o < c for o in covers)]
    # H^0 = (J : m^inf) / J; its monomials lie in the box below the
    # largest generator exponents, so count them there.
    top = [max(g[i] for g in gens) for i in range(n)]

    def in_ideal(mono, gs):
        return any(all(a <= b for a, b in zip(g, mono)) for g in gs)

    sat_parts = [
        [tuple(0 if j == i else e for j, e in enumerate(g)) for g in gens]
        for i in range(n)
    ]
    h0 = sum(
        1
        for mono in itertools.product(*(range(t) for t in top))
        if not in_ideal(mono, gens) and all(in_ideal(mono, p) for p in sat_parts)
    )
    return {
        "dim": pole,
        "degree_multiplicity": sum(coeffs),
        "components": [sorted(set(range(n)) - c) for c in minimal],
        "h0_length": h0,
    }


def rank(rows, p=None):
    """Rank of an integer matrix over QQ, or over GF(p) when p is given."""
    if p is None:
        rows = [[Fraction(x) for x in r] for r in rows]
        inv = lambda a: 1 / a
    else:
        rows = [[x % p for x in r] for r in rows]
        inv = lambda a: pow(a, -1, p)
    out = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(out, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[out], rows[piv] = rows[piv], rows[out]
        for i in range(len(rows)):
            if i != out and rows[i][col]:
                f = rows[i][col] * inv(rows[out][col])
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[out])]
                if p is not None:
                    rows[i] = [a % p for a in rows[i]]
        out += 1
    return out


def _mono_text(names, e):
    parts = []
    for v, k in zip(names, e):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts)


def _linear_text(names, row):
    return " + ".join(f"{c}*{v}" for c, v in zip(row, names) if c)


def draw_random_small(rng, n):
    """One candidate draw: (monomial generators, Q rows, facts) or a
    rejection reason.  Rejections are for input validity only."""
    gens = set()
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(2, 3)
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += 1
        gens.add(tuple(e))
    gens = sorted(gens)
    facts = monomial_facts(n, gens)
    d = facts["dim"]
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
    if d < 1:
        return None, "dim M = 0: no parameter ideal to check"
    # l(M/QM) < inf  iff  Q restricted to every component k[U] spans U.
    for comp in facts["components"]:
        if rank([[r[i] for i in comp] for r in rows]) != len(comp):
            return None, "l(M/QM) infinite"
    return (gens, rows, facts), None


def random_small(seed):
    rng = random.Random(f"random-small:{seed}")
    jobs = []
    rejected = Counter()
    names = RANDOM_VARS
    while len(jobs) < RANDOM_DRAWS:
        draw, why = draw_random_small(rng, len(names))
        if draw is None:
            rejected[why] += 1
            continue
        gens, rows, facts = draw
        if facts["dim"] != 1 + len(jobs) % 2:
            rejected["redrawn for the slot's dimension"] += 1
            continue
        checks = ["invariants", "thm1"] + (["thm2"] if facts["dim"] >= 2 else [])
        text = (
            f"ring S = QQ[{', '.join(names)}];\n"
            f"ideal J = ({', '.join(_mono_text(names, g) for g in gens)});\n"
            "algebra A = S / J;\n"
            f"params Q = ({', '.join(_linear_text(names, r) for r in rows)});\n"
            + _checks(*checks, "audit")
        )
        jobs.append(Job(
            f"rand{len(jobs):03d}", text, ("--seed", str(seed)),
            dict(facts, family="random",
                 q_forms=[_linear_text(names, r) for r in rows]),
        ))
    return jobs, rejected


def make_jobs(workload, seed):
    """(jobs, rejected-draw counts) for one workload and seed."""
    if workload == "families":
        return families(seed), {}
    if workload == "nonlinear-q":
        return nonlinear_q(seed), {}
    if workload == "random-small":
        return random_small(seed)
    raise ValueError(f"unknown workload {workload!r}")
