"""crossedext's CLI run by perfbench/run.py in a fresh interpreter, with
PYTHONPATH pointing at the crossedext sources.

  probe.py cli SAMPLES CLI-ARGS...
      Run `crossed-ext CLI-ARGS...` through `cli.main` while a wall-clock
      timer interrupts it every SAMPLE_EVERY_S seconds to time a fixed
      reference kernel (pure-Python Fraction arithmetic, no crossedext code).
      stdout and the exit status are the CLI's; the kernel times go to
      SAMPLES as {"kernel_s": [...]}.  run.py uses them to express the
      process's wall time in seconds at a fixed reference speed (see
      run.py's docstring).

  probe.py report DOC OUT [--field F]
      Run `crossed-ext report --input DOC --format json` through `cli.main`,
      with a clock read before and after each `cli.run_command` call and
      nothing else added.  stdout and the exit status are the CLI's; the
      command latencies go to OUT as {"latency_s": [...]}.

  probe.py trace DOC REPORT OUT [--field F]
      The same run with the layer spans of layers.py installed.  The report
      goes to REPORT, the per-layer metrics to OUT.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
# The kernel's time at the reference speed: its time on an idle core of the
# 2-vCPU Xeon the benchmark was tuned on.
REF_KERNEL_S = 0.00025


def kernel():
    """The reference work: pure-Python Fraction arithmetic, like crossedext's."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 7 + 1, i % 11 + 1)
    return s


def sampled(samples_path, cli_argv):
    clock = time.perf_counter
    samples = []

    def on_alarm(signum, frame):
        # The collector stays off so that the kernel is never charged with
        # collecting the CLI's garbage.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        kernel()
        samples.append(clock() - t0)
        if was_enabled:
            gc.enable()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        import crossedext.cli as cli
        rc = cli.main(cli_argv)
        sys.stdout.flush()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(samples_path, "w") as fh:
            json.dump({"kernel_s": samples}, fh)
    return rc


def _argv(doc_path, field):
    argv = ["report", "--input", doc_path, "--format", "json"]
    if field is not None:
        argv += ["--field", field]
    return argv


def report(doc_path, out_path, field):
    import crossedext.cli as cli
    run_command = cli.run_command
    clock = time.perf_counter
    latency = []

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return run_command(*args, **kwargs)
        finally:
            latency.append(clock() - t0)

    cli.run_command = timed
    rc = cli.main(_argv(doc_path, field))
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"latency_s": latency}, fh)
    return rc


def trace(doc_path, report_path, out_path, field):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from layers import Tracer
    t0 = time.perf_counter()
    import crossedext.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(_argv(doc_path, field))
    with open(report_path, "wb") as fh:
        fh.write(buf.getvalue().encode())
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "import_s": import_s,
                   "bookkeeping_s": tracer.bookkeeping_s,
                   "metrics": tracer.metrics(),
                   "installed": tracer.installed,
                   "entered": sorted(tracer.entered())}, fh)
    return 0


def main(argv):
    if argv[0] == "cli":
        return sampled(argv[1], argv[2:])
    field = None
    if "--field" in argv:
        i = argv.index("--field")
        field = argv[i + 1]
        del argv[i:i + 2]
    if argv[0] == "report":
        return report(*argv[1:3], field)
    if argv[0] == "trace":
        return trace(*argv[1:4], field)
    raise SystemExit(f"unknown probe mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
