#!/usr/bin/env python3
"""The specpack benchmark: cold-process workloads with checked outputs.

    python3 perfbench/run.py --workload scan2d --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this directory.
Every sample runs specpack in a fresh interpreter, ``python -m specpack ...``
with ``PYTHONPATH=src``, one child at a time, because the zero tables are a
process-wide cache: a warm repeat in one process would time dict lookups. One
discarded pass of the README commands comes first, so that every ``.pyc``
exists before timing (children cache bytecode under ``.work/pycache``, even
where ``PYTHONDONTWRITEBYTECODE`` is set). ``SPECPACK_BACKEND`` is left as the caller set it; the
backend in use is recorded, and results from different backends are not
comparable.

``--trace 0`` reports the end-to-end metrics:

    wall_s       median over passes of one checked pass (all of the
                 workload's commands), in reference seconds (below)
    setup_s      median time of ``import specpack.cli`` in a fresh
                 interpreter, the fixed cost every command pays, in
                 reference seconds
    peak_rss_mb  largest peak RSS of a timed child (its rusage from wait4)

and prints ``failed_ratio``, the share of operations (commands and import
probes) whose exit code or output was wrong; it is the result's
``failed / attempted``.

``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports the per-layer metrics, the traced wall time, the
tracing overhead (traced minus untraced ``wall_s``) and each layer's share of
the traced wall time.

Reference seconds. On the shared 2-core machine this benchmark was written
on, the speed of a core drifts by a third and more over seconds to minutes
(neighbours on the same physical cores); CPU time drifts with it, so the
drift is not scheduling, and a median of raw times moved by 0.15-0.25 of
itself from one 25-second run to the next. The benchmark therefore pins
itself and its children to one CPU and times a fixed pure-Python loop
(``calibrate``) on that CPU before and after each pass and, every
PROBE_EVERY_S while an untraced child runs, with that child stopped. A pass's
time (stopped time excluded) is scaled by ``REFERENCE_LOOP_S`` over the mean
loop time, which reads as seconds on a machine whose core runs the loop in
``REFERENCE_LOOP_S``; the scaled medians moved by 0.02-0.05. Raw medians are
printed alongside. Traced children are not stopped (the stop would land in
their spans), so their scaling rests on the loops around the pass.

The last line of stdout is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment (Python, nproc, backend, commit, seed) and the
samples.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import tracer  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
MIN_SETUP_PROBES = 60
PROBE_EVERY_S = 0.25
REFERENCE_LOOP_S = 0.002  # calibrate() on an unloaded core of the reference machine
PERCENTILES = (50, 75, 90, 95, 99)

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import specpack, specpack.cli\n"
    "print(time.perf_counter() - t0, specpack.BACKEND)\n"
)

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {**tracer.METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}


def calibrate(n=20000):
    """Seconds for a fixed loop shaped like the Bessel recurrences; the
    fastest of three, so a momentary stall does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        a, b, x = 0.0, 1e-30, 37.5
        k = n
        while k > 0:
            a, b = b, (2.0 * k) / x * b - a
            if abs(b) > 1e250:
                a *= 1e-250
                b *= 1e-250
            k -= 1
        best = min(best, time.perf_counter() - t0)
    return best


def child_env():
    """The caller's environment with ``src`` on the path and bytecode caching
    on, kept inside this directory, so timed imports read ``.pyc`` files as
    in a default installation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(argv, workdir, speeds=None):
    """Run ``python argv`` to its end: (exit code, stdout, stderr, seconds,
    peak RSS in KiB).

    Given a ``speeds`` list, every PROBE_EVERY_S the child is stopped
    (SIGSTOP), ``calibrate()`` is timed on its CPU and appended to
    ``speeds``, and the child continues; the stopped time is not counted in
    the returned seconds. A child still running after CHILD_TIMEOUT_S is
    killed; its exit code is None.

    The child is waited for by polling its pidfd, not by a timer signal, so
    it is only ever signalled while it is unreaped: a signal sent to a child
    that has just exited reaches its zombie and does nothing.
    """
    with open(os.path.join(workdir, "stdout"), "w+", encoding="utf-8") as out, \
            open(os.path.join(workdir, "stderr"), "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=child_env(),
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        exited = select.poll()
        exited.register(pidfd, select.POLLIN)  # readable once the child has exited
        every = PROBE_EVERY_S if speeds is not None else CHILD_TIMEOUT_S
        paused = 0.0
        code = None
        peak_kib = 0
        try:
            while True:
                if exited.poll(every * 1000):
                    _, status, usage = os.wait4(proc.pid, 0)
                elif time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    break
                elif speeds is None:
                    continue
                else:
                    stopped_at = time.perf_counter()
                    signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if os.WIFSTOPPED(status):
                        speeds.append(calibrate())
                        signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                        paused += time.perf_counter() - stopped_at
                        continue
                code = proc.returncode = os.waitstatus_to_exitcode(status)
                peak_kib = usage.ru_maxrss
                break
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            os.close(pidfd)
        seconds = time.perf_counter() - t0 - paused
        out.seek(0)
        err.seek(0)
        stderr = err.read() if code is not None else f"killed after {CHILD_TIMEOUT_S} s"
        return code, out.read(), stderr, seconds, peak_kib


class Run:
    """Samples, failures and traced records of one benchmark run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.problems = []
        self.backend = None
        self.peak_kib = None  # largest child RSS; None until timing starts

    def fail(self, what, problem):
        self.problems.append(f"{what}: {problem}")

    def note_rss(self, kib):
        if self.peak_kib is not None:
            self.peak_kib = max(self.peak_kib, kib)

    def run_pass(self, commands, traced=False):
        """Run every command once; return (raw seconds, scale factor, outputs, records)."""
        speeds = [calibrate()]
        outputs = []
        records = []
        wall = 0.0
        for i, cmd in enumerate(commands):
            if traced:
                out = os.path.join(self.workdir, f"trace{i}.json")
                argv = [str(HERE / "tracer.py"), out, *cmd.argv]
            else:
                argv = ["-m", "specpack", *cmd.argv]
            # no stops inside a traced child: they would land inside its spans
            code, stdout, stderr, seconds, kib = run_child(
                argv, self.workdir, None if traced else speeds)
            wall += seconds
            self.note_rss(kib)
            self.attempted += 1
            problem = cmd.check(code, stdout, self.workdir)
            if problem:
                self.fail(" ".join(cmd.argv), f"{problem}; stderr: {stderr.strip()[-300:]}")
            elif traced:
                with open(out, encoding="utf-8") as fh:
                    records.append(json.load(fh))
                os.unlink(out)
            outputs.append(stdout)
        speeds.append(calibrate())
        return wall, REFERENCE_LOOP_S / statistics.fmean(speeds), outputs, records

    def setup_probe(self):
        """(raw import seconds, scale factor), or None if the probe failed."""
        speeds = [calibrate()]
        code, stdout, stderr, _, kib = run_child(["-c", SETUP_PROBE], self.workdir, speeds)
        self.note_rss(kib)
        speeds.append(calibrate())
        factor = REFERENCE_LOOP_S / statistics.fmean(speeds)
        self.attempted += 1
        try:
            seconds, backend = stdout.split()
            seconds = float(seconds)
        except ValueError:
            seconds = None
        if code != 0 or seconds is None:
            self.fail("import specpack.cli", f"exit code {code}; stderr: {stderr.strip()[-300:]}")
            return None
        if self.backend not in (None, backend):
            self.fail("import specpack.cli", f"backend changed from {self.backend} to {backend}")
        self.backend = backend
        return seconds, factor


def self_check(commands, outputs):
    """Problems found when feeding the checks a corrupted copy of each output."""
    missed = []
    for cmd, stdout in zip(commands, outputs):
        if cmd.check(0, workloads.corrupted(stdout), "") is None:
            missed.append(" ".join(cmd.argv))
    return [f"self-check: corrupted output of {m!r} passed its check" for m in missed]


def top_percentile(n):
    """The highest of PERCENTILES with at least ten of n samples beyond it."""
    ok = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return max(ok) if ok else None


def summary(values):
    """Median, sample count and the highest well-sampled percentile."""
    out = {"median": statistics.median(values), "n": len(values)}
    p = top_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def read_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu():
    """Pin this process (and so its children) to one allowed CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0]


def measure(args):
    commands = workloads.WORKLOADS[args.workload].commands(args.seed)
    warmup = workloads.readme_commands(args.seed)
    cpu = pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        run = Run(workdir)
        run.run_pass(warmup)  # compiles and caches bytecode: not timed, RSS not kept
        run.peak_kib = 0
        first_probe = run.setup_probe()  # also records the backend
        walls, raw_walls, traced_walls, layer_samples = [], [], [], []
        setups = [first_probe] if first_probe else []
        checked = []
        deadline = time.perf_counter() + args.seconds
        while True:
            if not args.trace:
                probe = run.setup_probe()
                if probe:
                    setups.append(probe)
            wall, factor, outputs, _ = run.run_pass(commands)
            raw_walls.append(wall)
            walls.append(wall * factor)
            if not checked:
                checked = self_check(commands, outputs)
            if args.trace:
                wall, factor, _, records = run.run_pass(commands, traced=True)
                if len(records) == len(commands):
                    traced_walls.append(wall * factor)
                    layer_samples.append(scale(tracer.pass_metrics(records, wall), factor))
            if time.perf_counter() >= deadline:
                break
        while not args.trace and len(setups) < MIN_SETUP_PROBES:
            probe = run.setup_probe()
            if probe is None:
                break
            setups.append(probe)
        peak_rss_mb = run.peak_kib / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = run.problems + checked
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "backend": run.backend,
        "commit": read_commit(),
        "argv": [" ".join(c.argv) for c in commands],
        "wall_s": summary(walls),
        "wall_raw_s": summary(raw_walls),
        "failed_ratio": len(run.problems) / run.attempted,
        "problems": problems[:20],
    }
    if args.trace:
        units = PER_LAYER_UNITS
        metrics = {
            name: statistics.median(s[name] for s in layer_samples) if layer_samples else 0.0
            for name in tracer.METRICS
        }
        traced = statistics.median(traced_walls) if traced_walls else 0.0
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - statistics.median(walls)
        record["traced_passes"] = len(traced_walls)
    else:
        units = E2E_UNITS
        setup_s = [s * f for s, f in setups]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s) if setup_s else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        record["setup_s"] = summary(setup_s) if setup_s else None
        record["setup_raw_s"] = summary([s for s, _ in setups]) if setups else None
    return record, problems, run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def scale(metrics, factor):
    """Per-layer metrics in reference seconds (times scaled, rates inverse)."""
    units = PER_LAYER_UNITS
    out = {}
    for name, value in metrics.items():
        if units[name] == "s":
            value *= factor
        elif units[name] == "1/s":
            value /= factor
        out[name] = value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "specpack" / "__init__.py").is_file():
        print(f"error: no specpack package under {SRC}", file=sys.stderr)
        return 2

    record, problems, run, metrics = measure(args)
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: python {record['python']}, "
        f"nproc {record['nproc']}, backend {record['backend']}, commit {record['commit'][:12]}"
    )
    wall, raw = record["wall_s"], record["wall_raw_s"]
    extra = "".join(f", p{k[1:]} {v:.4f} s" for k, v in wall.items() if k.startswith("p"))
    print(f"  wall_s       {wall['median']:.4f} s (median of {wall['n']} passes{extra}; "
          f"raw median {raw['median']:.4f} s)")
    if not args.trace:
        setup, setup_raw = record["setup_s"], record["setup_raw_s"]
        if setup:
            print(f"  setup_s      {setup['median']:.4f} s (median of {setup['n']} probes; "
                  f"raw median {setup_raw['median']:.4f} s)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB")
    print(f"  failed_ratio {record['failed_ratio']:.4f} "
          f"({len(run.problems)} of {run.attempted} operations)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
