"""The traced run: spans around each layer's public entry points, recorded
from the benchmark's side of the call.

Each script runs as one request (a root span named `script`).  Its stages
are called in pipeline order, so that each layer's caches are warm by the
time a later layer asks for them:

    dsl.parse -> verify.instance -> resolution.free_resolution ->
    resolution.duals -> resolution.ext_codims -> modules.h0_saturate ->
    hilbert.samuel -> invariants.hdeg -> koszul.chi1 -> verify.checks ->
    report.render

Inside `verify.checks` the d-sequence search and test are wrapped where
`homdeg.verify` looks them up, and `GroebnerEngine.compute`/`add` are
wrapped on the class, so calls from every module are seen.  Spans are kept
in memory and written out when the run ends.

A layer's self time is its spans' time minus the time of nested layer
spans.  Groebner spans are not subtracted: Groebner work counts to the
layer that asked for it and also to `groebner.busy_s`.
"""

import time
from collections import Counter
from contextlib import contextmanager

LAYER_TIMES = {
    "hilbert.samuel_s": "hilbert.samuel",
    "invariants.hdeg_s": "invariants.hdeg",
    "koszul.chi1_s": "koszul.chi1",
    "verify.checks_s": "verify.checks",
    "verify.dseq_search_s": "verify.dseq_search",
    "invariants.dseq_test_s": "invariants.dseq_test",
    "modules.h0_saturate_s": "modules.h0_saturate",
    "resolution.free_resolution_s": "resolution.free_resolution",
    "resolution.duals_s": "resolution.duals",
    "resolution.ext_codims_s": "resolution.ext_codims",
    "dsl.parse_s": "dsl.parse",
    "report.render_s": "report.render",
}
GB = "groebner.compute"


class Tracer:
    """Nested spans [id, parent, name, start_ns, end_ns, attrs] and named
    counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    @contextmanager
    def span(self, name, **attrs):
        rec = [len(self.spans), self.stack[-1][0] if self.stack else None,
               name, time.perf_counter_ns(), None, attrs]
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter_ns()
            self.stack.pop()

    def layer(self):
        """Name of the pipeline stage now running (below the script span)."""
        return self.stack[1][2] if len(self.stack) > 1 else None


@contextmanager
def instrumented(tracer):
    """Wrap GroebnerEngine.compute/add and the d-sequence entry points seen
    by `homdeg.verify`; restore them on exit."""
    from homdeg import verify
    from homdeg.groebner import GroebnerEngine

    compute, add = GroebnerEngine.compute, GroebnerEngine.add
    search, test = verify.find_dseq_generators, verify.is_d_sequence

    def traced_compute(eng):
        with tracer.span(GB, stage=tracer.layer()):
            out = compute(eng)
        tracer.counters["groebner.basis_max"] = max(
            tracer.counters["groebner.basis_max"], len(eng.basis)
        )
        return out

    def traced_add(eng, el):
        before = len(eng.basis)
        add(eng, el)
        tracer.counters["groebner.adds"] += 1
        tracer.counters["groebner.kept"] += len(eng.basis) > before

    def traced_search(*args, **kwargs):
        with tracer.span("verify.dseq_search"):
            return search(*args, **kwargs)

    def traced_test(*args, **kwargs):
        with tracer.span("invariants.dseq_test"):
            return test(*args, **kwargs)

    GroebnerEngine.compute, GroebnerEngine.add = traced_compute, traced_add
    verify.find_dseq_generators, verify.is_d_sequence = traced_search, traced_test
    try:
        yield tracer
    finally:
        GroebnerEngine.compute, GroebnerEngine.add = compute, add
        verify.find_dseq_generators, verify.is_d_sequence = search, test


def _build_instance(script, field, dsl, verify):
    """The module, parameter ideal and checks of a one-instance script,
    built the way `homdeg.cli.run_script` builds them."""
    pres = q = None
    meta, checks = {}, []
    for stmt in script.statements:
        if isinstance(stmt, dsl.RingDecl):
            stmt.ring.degree_cap = 64
        elif isinstance(stmt, dsl.AlgebraDecl):
            pres = stmt.algebra.as_module()
            meta = {"family": "script", "params": {"name": stmt.name}}
        elif isinstance(stmt, dsl.ParamsDecl):
            q = list(stmt.gens)
        elif isinstance(stmt, dsl.ExampleCmd):
            args = dict(stmt.args)
            if stmt.family == "ex39":
                inst = verify.gen_example_39(args["l"], args["m"], field=field)
            else:
                inst = verify.gen_example_46(args["l"], field=field)
            pres, q, meta = inst.pres, inst.q_gens, inst.metadata
        elif isinstance(stmt, dsl.CheckCmd):
            checks.append(stmt.kind)
    return verify.ProblemInstance(pres, q, meta), checks


def run_script(tracer, job, seed):
    """Run one script stage by stage under spans.  Returns (exit code,
    JSON report), the code being what the CLI would return."""
    from homdeg import cli, dsl, invariants, koszul, resolution, verify
    from homdeg import report as report_mod
    from homdeg.hilbert import hilbert_coefficients

    field = cli.build_arg_parser().parse_args(["--input", "-", *job.args]).field
    with tracer.span("script", job=job.name):
        with tracer.span("dsl.parse"):
            script = dsl.parse_input(job.text)
        with tracer.span("verify.instance"):
            inst, checks = _build_instance(script, field, dsl, verify)
        pres, q = inst.pres, inst.q_gens
        with tracer.span("resolution.free_resolution"):
            resolution.free_resolution(pres)
        with tracer.span("resolution.duals"):
            invariants._duals(pres)  # the cached accessor hdeg and h0 use
        with tracer.span("resolution.ext_codims"):
            resolution.ext_codims(pres)
        with tracer.span("modules.h0_saturate"):
            invariants.h0_length(pres)
        with tracer.span("hilbert.samuel") as rec:
            e = hilbert_coefficients(pres, q)
            rec[5]["samples"] = len(e.samples)
        with tracer.span("invariants.hdeg"):
            invariants.hdeg(pres, q)
            invariants.torsions(pres, q)
        if pres.dim() >= 1:
            with tracer.span("koszul.chi1"):
                koszul.euler_char_1(pres, q, multiplicity=e[0])
        results, failed = [], False
        with tracer.span("verify.checks"):
            for kind in checks:
                if kind == "invariants":
                    results.append((kind, invariants.invariant_report(pres, q)))
                elif kind == "thm1":
                    results.append((kind, verify.check_thm1(inst, seed=seed)))
                elif kind == "thm2":
                    results.append((kind, verify.check_thm2(inst, seed=seed)))
                else:
                    results.append((kind, verify.audit_inequalities(inst)))
        with tracer.span("report.render"):
            report = report_mod.empty_report()
            for kind, value in results:
                if kind == "invariants":
                    report_mod.fill_invariants(report, value)
                elif kind == "audit":
                    report_mod.fill_audit(report, value)
                else:
                    getattr(report_mod, f"fill_{kind}")(report, value)
                    failed = failed or not value.equivalence_consistent
            out = report_mod.to_json(report)
    return (1 if failed else 0), out


def layer_metrics(tracer):
    """Per-layer metrics from one traced pass."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    layer_names = set(LAYER_TIMES.values())
    own = Counter()
    for s in spans:
        if s[2] in layer_names:
            own[s[2]] += s[4] - s[3]
            parent = by_id.get(s[1])
            if parent is not None and parent[2] in layer_names:
                own[parent[2]] -= s[4] - s[3]
    out = {k: own[v] / 1e9 for k, v in LAYER_TIMES.items()}
    gb = [s for s in spans if s[2] == GB and by_id[s[1]][2] != GB]
    counters = tracer.counters
    out["hilbert.samples"] = sum(
        s[5].get("samples", 0) for s in spans if s[2] == "hilbert.samuel"
    )
    out["hilbert.gb_runs"] = sum(1 for s in gb if s[5]["stage"] == "hilbert.samuel")
    out["groebner.runs"] = len(gb)
    out["groebner.busy_s"] = sum(s[4] - s[3] for s in gb) / 1e9
    out["groebner.adds"] = counters["groebner.adds"]
    out["groebner.kept_ratio"] = counters["groebner.kept"] / max(counters["groebner.adds"], 1)
    out["groebner.basis_max"] = counters["groebner.basis_max"]
    return out
