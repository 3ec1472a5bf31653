#!/usr/bin/env python3
"""The crossedext benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (crossedext is imported from src/,
not installed).  Workloads: ladder-q, ladder-fp, crossed-mix (see
manifest.json for why each exists and what each metric should move).

The benchmark drives crossedext only from outside: it writes a seeded JSON
workspace (gen.py, which never imports crossedext), then runs a closed loop
with one client -- one crossedext process at a time, the next starting only
when the previous has exited.

--trace 0 measures, for --seconds seconds:
  setup_s        median time of `crossed-ext check` on the document
                 (interpreter start, import, parse, validation)
  report_s       median time of `crossed-ext report --format json`
  peak_rss_mb    median ru_maxrss of the report processes
setup_s and report_s are in seconds at a fixed reference speed, not raw
wall seconds.  The machine this benchmark was tuned on (two vCPUs of a
shared host) switches between a fast and a half-speed mode every few
seconds and drifts for minutes, so raw wall times of the same code spread
by 15-25 % between runs.  Each process therefore runs the CLI through
probe.py, which times a fixed pure-Python reference kernel every 20 ms
inside the process.  The process's wall time, less the kernel's own time,
is multiplied by the mean over the samples of REF_KERNEL_S / kernel time,
i.e. it is scaled to the speed at which the kernel takes REF_KERNEL_S.  A
change to crossedext moves this time as it moves wall time; a slow spell
of the host does not.  The raw wall medians are printed too.
--trace 1 runs untraced and traced reports in pairs and reports the
per-layer self times and counters of layers.py for the median traced run,
plus command_p50_s and command_p90_s: the 50th and 90th percentiles, over
the document's commands, of each command's median `cli.run_command` latency
across the untraced reports (probe.py report: the CLI's main with a clock
read around each command).  They are not end-to-end metrics: their
spread between seeds on a noisy two-CPU machine reached 0.3 of the median
(on the ladders p50 is one ~0.2 s command; on crossed-mix p90 falls among
the seeded tail items), more than the largest bound allowed.

Every report is checked by oracle.py; failures count in `failed`.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen      # noqa: E402  (stdlib only; never imports crossedext)
import oracle   # noqa: E402
from probe import REF_KERNEL_S   # noqa: E402

WORKLOADS = ("ladder-q", "ladder-fp", "crossed-mix")
SETUPS = 5                # measured `check` processes per run
MIN_SETUPS = 3
PROC_TIMEOUT_S = 150
STDLIB_ONLY = ("gen.py", "oracle.py")


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.manifest = json.loads((HERE / "manifest.json").read_text())
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_report = None
        self.bad = []

    # ------------------------------------------------------------ helpers
    def problem(self, msg):
        self.problems.append(msg)
        self.failed += 1

    def proc(self, argv, tag):
        """Run one child to completion; return (wall s, rc, maxrss MB, out)."""
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err,
                                     env=self.env, cwd=ROOT)
            timer = threading.Timer(PROC_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        return wall, child.returncode, usage.ru_maxrss / 1024, \
            out_path.read_bytes()

    def cli(self, command, tag):
        """Run one CLI process through probe.py; return (time at the
        reference speed, wall s, rc, maxrss MB, stdout)."""
        samples_path = self.work / f"{tag}.kernel"
        argv = [sys.executable, str(HERE / "probe.py"), "cli",
                str(samples_path), command, "--input", str(self.doc)] + \
            self.extra
        if command == "report":
            argv += ["--format", "json"]
        wall, rc, mb, out = self.proc(argv, tag)
        try:
            kernel = json.loads(samples_path.read_text())["kernel_s"]
        except (OSError, ValueError, KeyError):
            kernel = []
        if not kernel:
            self.problem(f"{command} process left no kernel samples "
                         f"(exit {rc})")
            return wall, wall, rc, mb, out
        speed = statistics.fmean(REF_KERNEL_S / k for k in kernel)
        return (wall - sum(kernel)) * speed, wall, rc, mb, out

    def probe(self, args, tag):
        argv = [sys.executable, str(HERE / "probe.py")] + args
        if self.extra:
            argv += self.extra  # --field F
        return self.proc(argv, tag)

    # ------------------------------------------------------------ checks
    def generate(self):
        text, self.extra, self.expect = gen.generate(self.workload, self.seed)
        again, _, _ = gen.generate(self.workload, self.seed)
        if text != again:
            self.problem("generator gave different bytes for one seed")
        if "crossedext" in sys.modules:
            self.problem("generator imported crossedext")
        for name in STDLIB_ONLY:
            tree = ast.parse((HERE / name).read_text())
            for node in ast.walk(tree):
                mods = [a.name for a in node.names] \
                    if isinstance(node, ast.Import) else \
                    [node.module or ""] if isinstance(node, ast.ImportFrom) \
                    else []
                if any(m.split(".")[0] == "crossedext" for m in mods):
                    self.problem(f"{name} imports crossedext")
        data = text.encode()
        self.doc_sha = sha256(data)
        info = self.manifest["workloads"][self.workload]
        if self.seed == self.manifest["default_seed"] and \
                self.doc_sha != info["document_sha256"]:
            self.problem("document hash differs from manifest.json")
        self.work.mkdir(parents=True, exist_ok=True)
        self.doc = self.work / "doc.json"
        self.doc.write_bytes(data)

    def check_report(self, rc, out):
        """Oracle one report's stdout; count its commands as attempted."""
        self.attempted += len(self.expect)
        if self.first_report is None:
            self.first_report = out
            try:
                report = json.loads(out)
            except ValueError:
                self.problem(f"report is not JSON (exit {rc})")
                return
            bad = oracle.check_report(self.workload, report, self.expect)
            self.bad = bad
            for idx, msg in bad[:5]:
                print(f"oracle: command {idx}: {msg}")
            info = self.manifest["workloads"][self.workload]
            if info.get("report_sha256_any_seed") or \
                    self.seed == self.manifest["default_seed"]:
                if sha256(out) != info["report_sha256"]:
                    self.problem("report hash differs from manifest.json")
        elif out != self.first_report:
            self.problem("report bytes differ between runs")
        self.failed += len(self.bad)

    # ------------------------------------------------------------ trace 0
    def measure(self):
        clock = time.perf_counter
        self.cli("check", "warmup")           # byte-compiles the sources
        start = clock()
        setups, reports, rss = [], [], []
        walls = {"check": [], "report": []}
        est = {}

        def fits(kind):
            return clock() - start + est.get(kind, 0.0) <= self.seconds

        # Alternate set-ups and reports so that both sample the whole run;
        # the first report and MIN_SETUPS set-ups always run.
        while True:
            progressed = False
            if len(setups) < MIN_SETUPS or \
                    (len(setups) < SETUPS and fits("check")):
                t, wall, rc, _, _ = self.cli("check", f"check{len(setups)}")
                setups.append(t)
                walls["check"].append(wall)
                est["check"] = wall
                self.attempted += 1
                if rc != 0:
                    self.problem(f"check exited {rc}")
                progressed = True
            if not reports or fits("report"):
                t, wall, rc, mb, out = self.cli("report",
                                                f"report{len(reports)}")
                reports.append(t)
                walls["report"].append(wall)
                rss.append(mb)
                est["report"] = wall
                self.check_report(rc, out)
                progressed = True
            if not progressed:
                break

        metrics = {
            "report_s": statistics.median(reports),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        lines = [f"report runs {len(reports)}, set-up runs {len(setups)}"]
        for name, values in (("report_s", reports), ("setup_s", setups)):
            p = tail_percentile(len(values))
            tail = f"p{p} {percentile(values, p):.6f} s" if p else \
                "no percentile has ten samples beyond it"
            lines.append(f"  {name}: n={len(values)} median "
                         f"{statistics.median(values):.6f} s, {tail}")
        for name, values in (("report_s", reports), ("setup_s", setups)):
            lines.append(f"  {name} samples: " +
                         " ".join(f"{x:.3f}" for x in values))
        for command, values in walls.items():
            lines.append(f"  {command} raw wall: median "
                         f"{statistics.median(values):.6f} s, samples " +
                         " ".join(f"{x:.3f}" for x in values))
        return metrics, lines

    # ------------------------------------------------------------ trace 1
    def timed_report(self, tag):
        """One report through probe.py, with each command's latency;
        returns (wall, stdout, latencies)."""
        lat_path = self.work / f"{tag}.lat"
        wall, rc, _, out = self.probe(
            ["report", str(self.doc), str(lat_path)], tag)
        self.check_report(rc, out)
        try:
            latency = json.loads(lat_path.read_text())["latency_s"]
        except (OSError, ValueError, KeyError):
            self.problem(f"report probe wrote no latencies (exit {rc})")
            latency = []
        return wall, out, latency

    def measure_traced(self):
        clock = time.perf_counter
        self.cli("check", "warmup")
        start = clock()
        plain, traced, samples = [], [], {}
        est = 0.0
        while not traced or clock() - start + est <= self.seconds:
            i = len(traced)
            wall, out, latency = self.timed_report(f"report{i}")
            plain.append(wall)
            for idx, dt in enumerate(latency):
                samples.setdefault(idx, []).append(dt)
            report_path = self.work / f"traced{i}.json"
            trace_path = self.work / f"trace{i}.json"
            t_wall, rc, _, _ = self.probe(
                ["trace", str(self.doc), str(report_path), str(trace_path)],
                f"trace{i}")
            try:
                res = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                self.problem(f"trace probe failed (exit {rc})")
                break
            self.attempted += len(self.expect)
            if report_path.read_bytes() != out:
                self.problem("traced report differs from the untraced one")
            traced.append((t_wall, res))
            est = wall + t_wall
        if not traced:
            return {}, []
        traced.sort(key=lambda x: x[0])
        t_wall, res = traced[(len(traced) - 1) // 2]
        m = dict(res["metrics"])
        spans = sum(v for k, v in m.items()
                    if k.endswith("_s") and not k.startswith("cli.op."))
        m["trace.report_s"] = t_wall
        m["trace.overhead_ratio"] = t_wall / statistics.median(plain)
        m["trace.import_s"] = res["import_s"]
        m["trace.bookkeeping_s"] = res["bookkeeping_s"]
        m["trace.unattributed_s"] = t_wall - spans - res["bookkeeping_s"]
        per_cmd = [statistics.median(v) for v in samples.values()] or [0.0]
        m["command_p50_s"] = percentile(per_cmd, 50)
        m["command_p90_s"] = percentile(per_cmd, 90)
        entered = self.manifest["layers_entered"]
        installed = set(res["installed"])
        missing = sorted((set(entered[self.workload]) & installed) -
                         set(res["entered"]))
        if missing:
            self.problem(f"wrapped layers never entered: {missing}")
        uncovered = sorted(installed - set().union(*entered.values()))
        if uncovered:
            self.problem(f"wrapped layers no workload enters: {uncovered}")
        lines = [f"traced runs {len(traced)}, untraced runs {len(plain)}",
                 f"  self time in spans {spans:.6f} s + bookkeeping "
                 f"{res['bookkeeping_s']:.6f} s + unattributed "
                 f"{m['trace.unattributed_s']:.6f} s = traced report "
                 f"{t_wall:.6f} s",
                 f"  layers entered: {' '.join(res['entered'])}"]
        return m, lines

    # ------------------------------------------------------------ run
    def run(self):
        self.generate()
        if self.trace:
            metrics, lines = self.measure_traced()
            spec = self.metric_spec("per_layer")
        else:
            metrics, lines = self.measure()
            spec = self.metric_spec("end_to_end")
        print(f"workload {self.workload} seed {self.seed} trace {self.trace}"
              f" document sha256 {self.doc_sha}")
        for line in lines:
            print(line)
        out = {}
        for name, unit in spec:
            value = metrics.get(name)
            if value is None:
                self.problem(f"metric {name} was not measured")
                value = 0.0
            out[name] = {"value": value, "unit": unit}
            print(f"{name:34s} {value!r:>24} {unit}")
        attempted = max(self.attempted, 1)
        print(f"{'failed_ratio':34s} {self.failed / attempted!r:>24} ratio "
              f"({self.failed} of {attempted} attempted)")
        for msg in self.problems:
            print(f"problem: {msg}")
        print(json.dumps({"correct": self.failed == 0,
                          "attempted": attempted,
                          "failed": self.failed,
                          "metrics": out}))

    def metric_spec(self, key):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
        return [(m["name"], m["unit"]) for m in spec]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "crossedext" / "cli.py").is_file():
        print(f"error: no crossedext sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    try:
        bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
