"""Per-script correctness oracle for the benchmark's reports.

A report is checked three ways, and any disagreement counts the script as
failed:

- closed forms from the paper (families, nonlinear-q) or independent
  combinatorics of the monomial quotient (random-small);
- expected reports frozen in `benchmark/expected/` (QQ, seed 0) and, for
  ex46_l2 and ex39_l2_m1 under QQ, the repository's `corpus/expected/`;
- internal consistency of the verdicts with the reported numbers.

The d-sequence witness of thm1 is the only part of a report that depends
on `--seed`.  At the frozen seed it is compared exactly; at any other seed
it must span the same linear forms as Q.  Under GF(p) the witness is the
QQ witness with its coefficients reduced mod p.
"""

import json
from math import comb
from pathlib import Path

from workloads import FP, rank

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
CORPUS_DIR = HERE.parent / "corpus" / "expected"
FROZEN_SEED = 0
CORPUS_TWINS = {"ex46_l2_qq": "ex46_l2.json", "ex39_l2_m1_qq": "ex39_l2_m1.json"}


def _ints(values):
    return [int(v) for v in values]


def closed_form(report, facts):
    """Errors against the paper's closed forms, or [] if none apply."""
    fam = facts["family"]
    errs = []

    def want(key, got, expected):
        if got != expected:
            errs.append(f"{key}: got {got}, closed form {expected}")

    if fam == "ex46":
        l = facts["l"]
        want("e", _ints(report["hilbert_coefficients"]), [1, -l, -comb(l, 2)])
        want("hdeg", int(report["hdeg"]), l + 1)
        want("torsions", _ints(report["torsions"]), [l])
        want("chi1", int(report["chi1"]), 1)
    elif fam == "ex39":
        want("dimension", int(report["dimension"]), 3)
        want("depth", int(report["depth"]), 2)
        want("e0", int(report["multiplicity"]), 2)
        want("chi1", int(report["chi1"]), 1)
        want("hdeg", int(report["hdeg"]), 3)
    elif fam == "ex46nl":
        l = facts["l"]
        want("e", _ints(report["hilbert_coefficients"]), [4, -2 * l, -comb(l, 2)])
        want("hdeg", int(report["hdeg"]), 2 * l + 4)
        want("torsions", _ints(report["torsions"]), [2 * l])
    elif fam == "random":
        errs += _random_small(report, facts)
    return errs


def _random_small(report, facts):
    """Independent facts of k[x..]/J: dimension, e0 = degree multiplicity
    (Q is linear and spans every top-dimensional component, so e(Q; S/P) =
    1 there), l(H^0) by counting monomials of the saturation, and the
    verdicts' consistency with the reported numbers."""
    errs = []
    d = facts["dim"]
    e = _ints(report["hilbert_coefficients"])
    t = _ints(report["torsions"])
    chi1, h, h0 = int(report["chi1"]), int(report["hdeg"]), int(report["h0_length"])
    depth = int(report["depth"])
    if int(report["dimension"]) != d:
        errs.append(f"dimension {report['dimension']} != {d}")
        return errs
    if len(e) != d + 1 or len(t) != max(d - 1, 0):
        return errs + [f"shape: {len(e)} coefficients, {len(t)} torsions for dim {d}"]
    if e[0] != facts["degree_multiplicity"]:
        errs.append(f"e0 {e[0]} != degree multiplicity {facts['degree_multiplicity']}")
    if h0 != facts["h0_length"]:
        errs.append(f"h0_length {h0} != {facts['h0_length']}")
    if (depth == 0) != (h0 > 0) or not 0 <= depth <= d:
        errs.append(f"depth {depth} inconsistent with dim {d}, l(H^0) {h0}")
    if report["flags"]["cohen_macaulay"] != (depth == d):
        errs.append("cohen_macaulay flag disagrees with depth = dim")
    if not 0 <= chi1 <= h - e[0] or e[1] > 0 or (d >= 2 and e[1] < -t[0]):
        errs.append("an unconditional inequality fails")
    thm1 = report["thm1"]
    if thm1.get("condition1") != (chi1 == h - e[0]):
        errs.append("thm1 condition1 disagrees with chi1 = hdeg - e0")
    per_i = [(-1) ** i * e[i] == t[i - 1] for i in range(1, d)]
    per_i.append((-1) ** d * e[d] == h0)
    if thm1.get("condition2a") != per_i:
        errs.append("thm1 condition2a disagrees with e, T and l(H^0)")
    if d >= 2 and report["thm2"].get("condition2") != (e[1] == -t[0]):
        errs.append("thm2 condition2 disagrees with e1 = -T^1")
    return errs


# ---- frozen and corpus reports -----------------------------------------


def _coeffs(form, names):
    """Coefficient vector of a linear form printed by the program."""
    vec = [0] * len(names)
    for term in form.split(" + "):
        c, _, v = term.rpartition("*")
        vec[names.index(v)] = int(c) if c else 1
    return vec


def _variables(forms):
    names = []
    for form in forms:
        for term in form.split(" + "):
            v = term.rpartition("*")[2]
            if v not in names:
                names.append(v)
    return sorted(names)


def _mod_p(form):
    out = []
    for term in form.split(" + "):
        c, _, v = term.rpartition("*")
        c = int(c) % FP if c else 1
        if c:
            out.append(v if c == 1 else f"{c}*{v}")
    return " + ".join(out)


def _witness(report):
    return report["thm1"].get("consequences", {}).get("d_sequence")


def _with_witness(report, fn):
    """A copy of the report with the d-sequence witness list mapped by fn."""
    out = json.loads(json.dumps(report))
    if isinstance(_witness(out), list):
        out["thm1"]["consequences"]["d_sequence"] = fn(_witness(out))
    return out


def _mask(report):
    return _with_witness(report, lambda w: "<seed-dependent>")


def to_fp(report):
    """The QQ report as GF(p) prints it: witness coefficients mod p."""
    return _with_witness(report, lambda w: [_mod_p(f) for f in w])


def spans_q(witness, q_forms, p=None):
    """True iff the witness forms span the same space as Q's forms, over
    QQ or over GF(p)."""
    names = _variables(q_forms + witness)
    q = [_coeffs(f, names) for f in q_forms]
    w = [_coeffs(f, names) for f in witness]
    return rank(q, p) == rank(w, p) == rank(q + w, p) == len(witness)


def load_expected(job_name):
    """The frozen QQ report for a job, mapped to GF(p) for an fp job."""
    base = job_name[:-3] + "_qq" if job_name.endswith("_fp") else job_name
    path = EXPECTED_DIR / f"{base}.json"
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    return to_fp(report) if job_name.endswith("_fp") else report


def compare_frozen(job, report, seed):
    """Errors against the frozen report, its corpus twin, and Q."""
    errs = []
    refs = [("frozen", load_expected(job.name))]
    if job.name in CORPUS_TWINS:
        corpus = CORPUS_DIR / CORPUS_TWINS[job.name]
        refs.append(("corpus", json.loads(corpus.read_text())))
    for label, ref in refs:
        if ref is None:
            continue
        if seed == FROZEN_SEED:
            if report != ref:
                errs.append(f"differs from the {label} report")
        elif _mask(report) != _mask(ref):
            errs.append(f"differs from the {label} report outside the witness")
    witness = _witness(report)
    q_forms = job.facts.get("q_forms")
    if isinstance(witness, list) and q_forms:
        p = None if job.facts.get("field", "qq") == "qq" else FP
        if not spans_q(witness, q_forms, p):
            errs.append("d-sequence witness does not generate Q")
    return errs


def check(job, returncode, stdout, seed):
    """(report or None, list of errors) for one script run."""
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    try:
        errs = closed_form(report, job.facts)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errs = [f"report lacks a checked field: {exc!r}"]
    errs += compare_frozen(job, report, seed)
    return report, errs
