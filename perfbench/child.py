"""One measured process: import the package, run one command, report timings.

    python3 perfbench/child.py RESULT [--trace FILE] [--capture DIR] cli ARGS...
    python3 perfbench/child.py RESULT [--trace FILE] [--capture DIR] regular-pair P CAP

The CLI command writes to standard output as it would for a user; the
timings go to RESULT as JSON.  ``ready`` is a CLOCK_MONOTONIC reading, which
the parent compares with its own spawn time, so set-up covers interpreter
start-up plus imports; ``work_s`` covers the command after that.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

NUMPY_DONE = time.monotonic()

import coniveau.certificates  # noqa: E402
import coniveau.cli  # noqa: E402

READY = time.monotonic()


def regular_pair(p, cap):
    report, _, pair = coniveau.certificates.comparison_regular_pair(int(p), int(cap))
    body = {
        "regular": report.regular,
        "degrees": [g.degree() for g in pair],
        "quotient_series": list(report.quotient_series),
    }
    sys.stdout.write(json.dumps(body) + "\n")
    return 0


def main(argv):
    result_path = argv.pop(0)
    trace_path = capture_dir = None
    while argv[0].startswith("--"):
        flag, value = argv.pop(0), argv.pop(0)
        if flag == "--trace":
            trace_path = value
        elif flag == "--capture":
            capture_dir = value
    tracer = None
    if trace_path:
        import tracer as tracing  # the script's directory is on sys.path

        tracer = tracing.Tracer(capture_dir)
        tracing.install(tracer)
    begin = time.monotonic()
    kind, args = argv[0], argv[1:]
    if kind == "cli":
        code = coniveau.cli.main(args)
    elif kind == "regular-pair":
        code = regular_pair(*args)
    else:
        raise SystemExit(f"unknown command kind {kind!r}")
    sys.stdout.flush()
    end = time.monotonic()
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "numpy_import_s": NUMPY_DONE - START,
                "package_import_s": READY - NUMPY_DONE,
                "ready": READY,
                "work_s": end - begin,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "exit_code": code,
                "backend": coniveau.backend_name(),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
