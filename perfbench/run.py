"""Cold-process benchmark of confalg's verdicts.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, as a table

Run from the root of a checkout: the program is built from `src/` there,
and nothing is installed. Every measurement starts a fresh interpreter with
`sys.executable` and PYTHONPATH pointing at `src`, one child at a time, so
confalg's module-global memos start empty, as they do for each CLI user.

With --trace 0 a run measures set-up in several set-up-only children, then
runs whole cold passes of the workload until S seconds have gone (at least
one pass), and reports medians of the end-to-end metrics. Times are paced:
scaled to a host of fixed speed by a probe timed alongside (see pace.py),
since a shared host's speed drifts by more than any bound. With --trace 1
it runs one untraced pass and one traced pass and reports the per-layer
metrics. Every verdict of every pass is checked against its known answer.
The last line of standard output is one JSON object; the exit code is 1
when a check failed, and 2 or 3 when no result could be produced.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
TRACE_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import unit_of  # noqa: E402

#: set-up-only children per run, besides the set-up of each measured pass
SETUP_SPAWNS = 10
#: a run that has not finished by then is abandoned
RUN_DEADLINE_S = 170.0
#: confalg's work depends on string hash order (catalog-builtins took 10.7 s
#: to 12.5 s over PYTHONHASHSEED 0..3), so every child gets the same one
HASH_SEED = "0"

END_TO_END_UNITS = {"verdict_paced_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """No result can be produced: missing program, crashed or slow child."""


class Runner:
    """Starts cold children one at a time, within the run's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
        self.cpu_s = []

    def child(self, workload, stdin=b"", trace_out=None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before a child could start")
        cmd = [sys.executable, str(CHILD), "--workload", workload]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)],
                input=stdin,
                capture_output=True,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} child overran the run deadline") from exc
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"{workload} child exited {proc.returncode}:\n{tail}")
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        self.cpu_s.append(round(report["cpu_s"], 4))
        return report


def _paced_setup_s(report):
    """A child's set-up time at the reference host speed (see pace.py)."""
    return report["setup_s"] * pace.REFERENCE_S / report["setup_probe_s"]


def _check(workload, report, expected):
    """(attempted, failed, problems) of one pass."""
    if workload == workloads.RANDOM_WORKLOAD:
        return workloads.check_laws(report["verdicts"], expected)
    return workloads.check_catalog(report["suites"], expected)


def _expected(workload, seed):
    """(stdin bytes for the child, known answers, input properties)."""
    if workload == workloads.RANDOM_WORKLOAD:
        inputs, expected, props = workloads.generate_random_laws(seed)
        return workloads.inputs_bytes(inputs), expected, props
    recorded = json.loads(EXPECTED.read_text())["suites"]
    tags = workloads.CATALOG_WORKLOADS[workload]
    return b"", {tag: recorded[tag] for tag in tags}, {}


def measure(workload, seed, seconds, trace, runner):
    """Result object and diagnostics of one run."""
    stdin, expected, props = _expected(workload, seed)
    attempted = failed = 0
    problems = []

    def checked(report):
        nonlocal attempted, failed
        a, f, p = _check(workload, report, expected)
        attempted += a
        failed += f
        problems.extend(p)
        return report

    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_out = TRACE_DIR / f"{workload}-seed{seed}.trace.json"
        plain = checked(runner.child(workload, stdin))
        traced = checked(runner.child(workload, stdin, trace_out=trace_out))
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in traced["layers"].items()
        }
        metrics["trace.overhead_share"] = {
            "value": traced["verdict_paced_s"] / plain["verdict_paced_s"] - 1.0,
            "unit": "share",
        }
        extra = {
            "untraced_verdict_paced_s": plain["verdict_paced_s"],
            "traced_verdict_paced_s": traced["verdict_paced_s"],
            "spans": traced["spans"],
            "trace_file": str(trace_out.relative_to(ROOT)),
        }
    else:
        setups = [runner.child("setup") for _ in range(SETUP_SPAWNS)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(checked(runner.child(workload, stdin)))
        setups += passes
        metrics = {
            "verdict_paced_s": statistics.median(p["verdict_paced_s"] for p in passes),
            "setup_s": statistics.median(map(_paced_setup_s, setups)),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        extra = {
            "passes": len(passes),
            "verdict_paced_s_each": [round(p["verdict_paced_s"], 4) for p in passes],
            "verdict_wall_s_each": [round(p["verdict_s"], 4) for p in passes],
            "probe_ms_median_each": [round(p["pace"]["probe_ms_median"], 4) for p in passes],
            "setup_wall_s_each": [round(p["setup_s"], 4) for p in setups],
        }
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "child_cpu_s": runner.cpu_s,
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "inputs": props,
        **extra,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, diagnostics


def _prepare():
    """Fail before measuring when the program is not there; compile it."""
    if not (SRC / "confalg" / "__init__.py").is_file():
        raise BenchError(f"no confalg package under {SRC}")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}")
    # byte-compile once, as an install would, so that no pass pays for it
    if not compileall.compile_dir(str(SRC / "confalg"), quiet=1):
        raise BenchError("confalg does not compile")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _prepare()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            runner = Runner(time.monotonic() + RUN_DEADLINE_S)
            result, diagnostics = measure(name, args.seed, args.seconds, args.trace, runner)
            for metric, entry in result["metrics"].items():
                print(f"{name:22s} {metric:48s} {entry['value']:14.6f} {entry['unit']}")
            print(json.dumps({"diagnostics": diagnostics}))
            results.append(result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3 if SRC.is_dir() else 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
