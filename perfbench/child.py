"""One cold confalg process: set up, run one workload, report as JSON.

    PYTHONPATH=src python perfbench/child.py --t0 T --workload W [--trace-out F]

T is the `time.monotonic()` reading the parent took just before starting
this interpreter; set-up time is measured from it. W is a workload name, or
`setup` to stop after set-up. The inputs of `random-laws` arrive as JSON on
standard input. With --trace-out the tracer wraps confalg before set-up,
its spans go to F and per-layer metrics join the report. The workload runs
under the host-speed probe of pace.py, and a short probe follows set-up so
the parent can pace set-up time too. The report is the last line of
standard output.
"""

import json
import resource
import sys
import time


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    t0 = float(opts["--t0"])
    workload = opts["--workload"]
    trace_out = opts.get("--trace-out")

    from confalg import suites

    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    ctx = suites.get_context()
    for tag in suites.SUITE_TAGS:
        suites.catalog_by_suite(tag)
    setup_end = time.monotonic()
    from pace import Pace, probe_now

    report = {"setup_s": setup_end - t0, "setup_probe_s": probe_now()}

    if workload != "setup":
        import workloads

        laws = None
        if workload == workloads.RANDOM_WORKLOAD:
            laws = json.loads(sys.stdin.buffer.read())["laws"]
        pace = Pace()
        pace.start()
        start = time.monotonic()
        if laws is not None:
            report["verdicts"] = workloads.run_laws(laws, ctx)
        else:
            report["suites"] = workloads.run_catalog(
                workloads.CATALOG_WORKLOADS[workload], ctx
            )
        report["verdict_s"] = time.monotonic() - start
        report["verdict_paced_s"] = pace.stop()
        report["pace"] = pace.probe_stats()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer)
        report["spans"] = {"kept": len(tracer.span_name), "dropped": tracer.dropped}
        tracer.dump(trace_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
