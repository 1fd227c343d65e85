"""Tracing confalg from outside the package.

The tracer replaces public functions and class methods with wrappers, under
the names their callers actually look up: `confalg.field.poly_gcd` (the name
`RationalFunction` calls), the module-global `confalg.dsl.elaborate` (which
its own recursion calls), the dunder methods of `Polynomial`,
`RationalFunction` and `FieldElem`, and so on. A wrapper passes arguments,
return values and exceptions through unchanged.

Each wrapped call is a span with a name, a start, an end and a parent (the
wrapped call it ran inside). Per name the tracer keeps the number of calls
and the self time: the span's duration minus the time its child spans
cover. Spans themselves are kept in memory and written out when the run
ends. A catalogue run makes millions of `poly` and `field` spans, so those
of the inner layers are kept only up to a cap; the `suites` and
`conformal.build_algebra` spans, a few thousand, are always kept, and the
aggregates are always complete.
"""

import json
import time
from array import array

SPAN_CAP = 200_000
#: spans kept whatever the cap: one per suite, identity and assignment
ALWAYS_KEPT = ("suites.", "conformal.build_algebra")


def trace_points():
    """(owner, attribute, span name) of every wrapped callable.

    The owner is the module or class whose attribute the callers look up;
    a class attribute is replaced in the class dict, so instances and the
    operators that dispatch through the type both see the wrapper. Every
    public method of Observables is one `observables` span.
    """
    from confalg import conformal, dsl, field, nc, poly, suites
    from confalg.observables import Observables

    points = [
        (field, "poly_gcd", "poly.gcd"),
        (field, "exact_div", "poly.exact_div"),
        (poly, "exact_div", "poly.exact_div"),
        (poly.Polynomial, "__mul__", "poly.mul"),
        (poly.Polynomial, "__rmul__", "poly.mul"),
        (field.RationalFunction, "__init__", "field.rf_new"),
        (field.RationalFunction, "__add__", "field.rf_add"),
        (field.RationalFunction, "__mul__", "field.rf_mul"),
        (field.RationalFunction, "__rmul__", "field.rf_mul"),
        (field.FieldElem, "__mul__", "field.fe_mul"),
        (field.FieldElem, "__rmul__", "field.fe_mul"),
        (field.FieldElem, "inv", "field.fe_inv"),
        (nc.Algebra, "mul", "nc.mul"),
        (nc.Algebra, "normalize", "nc.normalize"),
        (dsl, "parse", "dsl.parse"),
        (dsl, "elaborate", "dsl.elaborate"),
        (conformal, "build_algebra", "conformal.build_algebra"),
        (conformal, "jacobi_residual", "conformal.oracles"),
        (conformal, "classical_residual", "conformal.oracles"),
        (conformal, "matrix_residual", "conformal.oracles"),
        (conformal, "table_bracket", "conformal.oracles"),
        (suites, "run_suite", "suites.run_suite"),
        (suites, "run_identity", "suites.run_identity"),
        (suites, "evaluate_assignment", "suites.assignment"),
        (suites, "report_json", "suites.report_json"),
    ]
    points += [
        (Observables, attr, "observables")
        for attr, value in vars(Observables).items()
        if callable(value) and not attr.startswith("_")
    ]
    return points


class Tracer:
    """Span recorder and per-name aggregates for one process."""

    def __init__(self, span_cap=SPAN_CAP):
        self.span_cap = span_cap
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stats = {}  # span name -> [calls, self seconds, inclusive seconds]
        self.counters = {}  # extra counts, such as result sizes
        self.durations = {}  # span name -> inclusive seconds of each call
        self._stack = []
        self._patches = []

    # ---- installing ----

    def install(self):
        for owner, attr, name in trace_points():
            self.wrap(owner, attr, name, self._after_hook(name))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_hook(self, name):
        if name == "nc.mul":
            return self._count_terms
        if name == "dsl.elaborate":
            return self._count_useful
        if name == "suites.run_identity":
            return self._time_identity
        if name == "suites.assignment":
            return self._keep_duration
        return None

    def _count_terms(self, out, dt):
        self.counters["nc.mul.out_terms"] = (
            self.counters.get("nc.mul.out_terms", 0) + len(out.terms)
        )

    def _count_useful(self, out, dt):
        if not out.is_zero():
            self.counters["dsl.elaborate.nonzero"] = (
                self.counters.get("dsl.elaborate.nonzero", 0) + 1
            )

    def _time_identity(self, out, dt):
        key = f"suites.identity.{out.id}"
        self.durations.setdefault(key, []).append(dt)

    def _keep_duration(self, out, dt):
        self.durations.setdefault("suites.assignment", []).append(dt)

    def wrap(self, owner, attr, name, after=None):
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        tracer = self
        always = name.startswith(ALWAYS_KEPT)

        def wrapper(*args, **kwargs):
            if always or len(span_name) < tracer.span_cap:
                idx = len(span_name)
                span_name.append(name_id)
                span_parent.append(stack[-1][1] if stack else -1)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[2] += dt
                if stack:
                    stack[-1][0] += dt
                if idx >= 0:
                    span_start[idx] = t0
                    span_end[idx] = t1
            if after is not None:
                after(out, dt)
            return out

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ---- reading ----

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path):
        """Write every kept span as [name, parent index, start s, end s]."""
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        payload = {
            "names": self.names,
            "dropped": self.dropped,
            "aggregates": {
                k: {"calls": v[0], "self_s": v[1], "inclusive_s": v[2]}
                for k, v in self.stats.items()
            },
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


#: the ROADMAP's four heaviest identities, timed on their own
HEAVY_IDENTITIES = (
    "spin-vector-definition",
    "canonical-derivatives",
    "canonical-position-commutators",
    "factor-symmetrized-position",
)


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer):
    """Per-layer metrics of one traced process, by metric name."""
    t = tracer
    m = {}
    for name in ("poly.gcd", "poly.mul", "poly.exact_div", "field.rf_new",
                 "field.fe_mul", "field.fe_inv", "nc.mul", "nc.normalize",
                 "dsl.elaborate", "observables"):
        m[f"{name}.calls"] = t.calls(name)
    for name in ("poly.gcd", "poly.mul", "poly.exact_div", "field.rf_new",
                 "field.rf_add", "field.rf_mul", "field.fe_mul", "field.fe_inv",
                 "nc.mul", "nc.normalize", "dsl.parse", "dsl.elaborate",
                 "observables", "conformal.oracles"):
        m[f"{name}.self_s"] = t.self_s(name)
    m["nc.mul.out_terms"] = t.counters.get("nc.mul.out_terms", 0)
    calls = t.calls("dsl.elaborate")
    nonzero = t.counters.get("dsl.elaborate.nonzero", 0)
    m["dsl.elaborate.useful_share"] = nonzero / calls if calls else 0.0
    m["conformal.build_algebra_s"] = t.inclusive_s("conformal.build_algebra")
    suites_names = ("suites.run_suite", "suites.run_identity",
                    "suites.assignment", "suites.report_json")
    m["suites.assignments"] = t.calls("suites.assignment")
    m["suites.self_s"] = sum(t.self_s(name) for name in suites_names)
    per_assignment = t.durations.get("suites.assignment", [])
    m["suites.assignment_p50_ms"] = _quantile(per_assignment, 0.5) * 1000.0
    m["suites.assignment_p90_ms"] = _quantile(per_assignment, 0.9) * 1000.0
    for ident in HEAVY_IDENTITIES:
        m[f"suites.identity.{ident}.s"] = sum(
            t.durations.get(f"suites.identity.{ident}", ())
        )
    return m


def unit_of(name):
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"
