"""The benchmark's own tests: its gate must not pass vacuously.

    python3 -m pytest -q perfbench/test_gate.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RECORDED = json.loads((HERE / "expected.json").read_text())["suites"]


def _catalog_summary(tag, **changes):
    good = {
        "suite": tag,
        "assignments": RECORDED[tag]["assignments"],
        "failures": 0,
        "failing_identities": [],
        "digest": RECORDED[tag]["digest"],
    }
    good.update(changes)
    return [good]


def _expected(tag):
    return {tag: RECORDED[tag]}


def test_recorded_assignment_counts():
    counts = {tag: RECORDED[tag]["assignments"] for tag in RECORDED}
    assert counts == {
        "structure": 3690,
        "conformal-factor": 1039,
        "localisation": 282,
        "canonical": 133,
    }


def test_catalog_gate_passes_the_recorded_run():
    attempted, failed, problems = workloads.check_catalog(
        _catalog_summary("canonical"), _expected("canonical")
    )
    assert (attempted, failed, problems) == (133, 0, [])


def test_changed_digest_counts_as_failed():
    attempted, failed, problems = workloads.check_catalog(
        _catalog_summary("canonical", digest="0" * 64), _expected("canonical")
    )
    assert failed == attempted == 133
    assert problems


def test_wrong_assignment_count_counts_as_failed():
    attempted, failed, _ = workloads.check_catalog(
        _catalog_summary("localisation", assignments=281), _expected("localisation")
    )
    assert attempted == 281 and failed == 281


def test_failing_assignments_count_as_failed():
    _, failed, _ = workloads.check_catalog(
        _catalog_summary("structure", failures=3, failing_identities=["jacobi-sweep"]),
        _expected("structure"),
    )
    assert failed == 3


def test_missing_suite_counts_as_failed():
    expected = {"structure": RECORDED["structure"],
                "conformal-factor": RECORDED["conformal-factor"]}
    attempted, failed, _ = workloads.check_catalog(
        _catalog_summary("structure"), expected
    )
    assert failed == RECORDED["conformal-factor"]["assignments"]
    assert attempted == 3690 + 1039


def test_perturbed_law_reported_zero_counts_as_failed():
    _, expected, _ = workloads.generate_random_laws(5)
    k = expected.index("nonzero")
    verdicts = list(expected)
    verdicts[k] = "zero"
    attempted, failed, problems = workloads.check_laws(verdicts, expected)
    assert attempted == len(expected) and failed == 1 and problems


def test_error_or_missing_verdict_counts_as_failed():
    _, expected, _ = workloads.generate_random_laws(5)
    verdicts = list(expected)
    verdicts[0] = "error: division by zero"
    _, failed, _ = workloads.check_laws(verdicts[:-1], expected)
    assert failed == 2


def test_same_seed_same_bytes_other_seed_other_bytes():
    a, ea, pa = workloads.generate_random_laws(7)
    b, eb, pb = workloads.generate_random_laws(7)
    c, ec, _ = workloads.generate_random_laws(8)
    assert workloads.inputs_bytes(a) == workloads.inputs_bytes(b)
    assert ea == eb and pa == pb
    assert workloads.inputs_bytes(a) != workloads.inputs_bytes(c)


def test_generated_properties():
    _, expected, props = workloads.generate_random_laws(1)
    assert props["laws"] == sum(workloads.LAWS_PER_KIND.values()) == len(expected)
    assert props["kind_mix"] == dict(sorted(workloads.LAWS_PER_KIND.items()))
    assert 0 < props["perturbed_share"] < 1
    # wider than the catalogue's three irreducible denominator factors
    assert props["distinct_linear_factors"] > 3
    assert props["distinct_denominators"] > 73


def test_known_verdicts_hold_on_a_sample():
    from confalg.suites import get_context

    inputs, expected, _ = workloads.generate_random_laws(3)
    sample = [
        k for kind in workloads.LAWS_PER_KIND
        for k in [i for i, law in enumerate(inputs["laws"]) if law["kind"] == kind][:2]
    ]
    laws = [inputs["laws"][k] for k in sample]
    verdicts = workloads.run_laws(laws, get_context())
    assert verdicts == [expected[k] for k in sample]
    # and the gate sees a flipped verdict
    flipped = ["zero" if v == "nonzero" else "nonzero" for v in verdicts]
    _, failed, _ = workloads.check_laws(flipped, [expected[k] for k in sample])
    assert failed == len(sample)


def _paced(durations, period=1.0, start=None, end=None):
    """paced_s over probes every `period` seconds with the given durations."""
    p = pace.Pace()
    p.marks = [(k * period, d) for k, d in enumerate(durations)]
    start = durations[0] if start is None else start
    end = (len(durations) - 1) * period if end is None else end
    return p.paced_s(start, end)


def test_pace_at_reference_speed_is_wall_time_without_probes():
    ref = pace.REFERENCE_S
    assert _paced([ref] * 5) == pytest.approx(4 * (1.0 - ref))


def test_pace_cancels_a_uniform_slowdown():
    ref = pace.REFERENCE_S
    # the same work in half the wall time on a host twice as fast
    fast = _paced([ref / 2] * 5, period=0.5)
    slow = _paced([ref] * 5, period=1.0)
    assert fast == pytest.approx(slow, rel=1e-3)


def test_pace_scales_each_interval_by_the_probes_around_it():
    ref = pace.REFERENCE_S
    steady = _paced([ref] * 11)
    # a slow phase in the middle: probes there take three times as long
    phased = _paced([ref] * 4 + [3 * ref] * 3 + [ref] * 4)
    assert phased < steady
    # one interrupted probe is smoothed away by the running median
    assert _paced([ref] * 5 + [50 * ref] + [ref] * 5) == pytest.approx(steady, rel=1e-2)


def test_pace_clips_to_the_measured_span():
    ref = pace.REFERENCE_S
    assert _paced([ref] * 5, start=1.5, end=2.5) == pytest.approx(1.0 - ref, rel=1e-6)


def test_pace_probes_on_its_timer():
    p = pace.Pace()
    p.start()
    deadline = pace.time.perf_counter() + 0.3
    while pace.time.perf_counter() < deadline:
        pass
    paced = p.stop()
    assert p.probe_stats()["probes"] >= 4
    assert paced > 0
    assert pace.signal.getitimer(pace.signal.ITIMER_REAL) == (0.0, 0.0)


class _Thing:
    def twice(self, x):
        if x < 0:
            raise ValueError("negative")
        return [x, x]


def test_tracer_passes_values_and_exceptions_through():
    t = tracer.Tracer(span_cap=1)
    t.wrap(_Thing, "twice", "thing")
    try:
        obj = _Thing()
        out = obj.twice(2)
        assert out == [2, 2]
        with pytest.raises(ValueError, match="negative"):
            obj.twice(-1)
    finally:
        t.uninstall()
    assert t.calls("thing") == 2
    assert len(t.span_name) == 1 and t.dropped == 1
    assert _Thing.__dict__["twice"].__name__ == "twice"
    assert not hasattr(_Thing.__dict__["twice"], "__wrapped__")


def test_tracer_self_time_excludes_children():
    class Outer:
        def run(self):
            return Inner().run()

    class Inner:
        def run(self):
            return sum(range(20000))

    t = tracer.Tracer()
    t.wrap(Outer, "run", "outer")
    t.wrap(Inner, "run", "inner")
    Outer().run()
    t.uninstall()
    assert t.inclusive_s("outer") >= t.inclusive_s("inner")
    assert t.self_s("outer") == pytest.approx(
        t.inclusive_s("outer") - t.inclusive_s("inner")
    )
    assert list(t.span_parent) == [-1, 0]


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = set(tracer.layer_metrics(tracer.Tracer())) | {"trace.overhead_share"}
    assert per_layer == {name: tracer.unit_of(name) for name in reported}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
