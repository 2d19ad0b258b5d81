"""Benchmark of the steinerchains library, run from outside through its
public functions, through cli.main and through `python -m steinerchains`.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each operation starts
when the previous one has returned and been checked, as in a script or a
shell that waits for each answer. Operations come from bench/generate.py
for the seed, pass after pass, until --seconds of wall time have gone, not
counting the fresh processes it starts (the last pass is completed, so every
run holds whole passes). Every output is checked by bench/checker.py outside
the timed region.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs a fixed number of passes untraced and then traced, and prints the
per-layer metrics. The last line of output is one JSON object; the lines
before it spell out each metric, the failures by reason, and provenance.
Details and spans are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

import checker
from generate import PASSES, CliOp, ConstructOp, FeasibilityOp, SweepOp, hard_inputs, make_pass, why
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROBES = 24  # fresh processes per run for setup_s and cold_start_ms
# Shared 2-vCPU machines change speed by up to about 1.6x from one second
# to the next as neighbours come and go, which moves every wall time with
# it. So next to the operations the run times a fixed reference kernel (no
# library code in it) and scales each wall time by REFERENCE_S over the
# kernel's time measured around it: times are reported as they would read
# with the kernel at REFERENCE_S, its fast time on the machine this was
# built on (Intel Xeon, 2 vCPU, Python 3.11). Raw wall times are printed
# and saved beside them.
REFERENCE_S = 77e-6
REFERENCE_EVERY_S = 0.004  # busy time between two kernel measurements
BARE_START_S = 0.030  # `python3 -c pass` on that machine at the kernel's fast time
TRACE_PASSES = {"sweep": 1, "construct": 40, "feasibility": 100, "cli": 30}
RSS_PASSES = {"sweep": 1, "construct": 8, "feasibility": 20, "cli": 6}
LIBRARY_SWEEP_TOL = 1e-8  # the absolute threshold `steiner sweep` applies by default
# Past p99 the values on a shared machine are pauses of the process (the
# kernel scaling cannot see a pause inside one operation), not the program.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
COLD_COMMAND = ("-m", "steinerchains", "gauge", "--n", "3", "--R", "15", "--r", "1")

# One small call after the import, so that one-time set-up done lazily on
# first use counts in setup_s as well as set-up done at import.
SETUP_CALL = {
    "sweep": "steinerchains.invariance_sweep(steinerchains.Gauge.from_radii(4, 6.0, 1.0), 2)",
    "construct": "steinerchains.chain_at_phase(steinerchains.Gauge.from_radii(3, 15.0, 1.0), 0.1)",
    "feasibility": "steinerchains.feasibility_check((1.0, 2.0, 3.0, 4.0), 'constructive')",
    "cli": "import steinerchains.cli; steinerchains.cli.build_parser()",
}
SETUP_CODE = """import sys, time
t = time.perf_counter()
import steinerchains
{call}
print(repr(time.perf_counter() - t))
"""


def reference_kernel() -> float:
    """Wall time of a fixed piece of pure-Python work (float and complex
    arithmetic, calls and small allocations, as in the library), the least
    of five tries so that a pause of the process does not count."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        items = []
        for i in range(200):
            x = (i * 0.37) % 5.0
            items.append((x, math.sqrt(x + 1.0), complex(x, 1.0) ** 3))
            acc += math.hypot(x, items[-1][1])
        best = min(best, time.perf_counter() - t0)
    return best


# --- operations: the only code that calls the library while timed --------


class Workload:
    """Runs and checks operations against the library. Each operation is
    run by its type, so the hard inputs of any workload run here too."""

    def __init__(self, name: str, sc, cli, session_dir: Path) -> None:
        self.name = name
        self.sc = sc
        self.cli = cli
        self.session_dir = session_dir
        self.bytes_written = 0

    def prepare(self, op):
        if not isinstance(op, CliOp):
            return op
        return [str(self.session_dir / a[1:]) if a.startswith("@") else a for a in op.argv]

    def run(self, op, prepared):
        sc = self.sc
        if isinstance(op, SweepOp):
            report = sc.invariance_sweep(sc.Gauge(op.n, op.R, op.r, op.d), op.samples)
            report.invariants_ok(LIBRARY_SWEEP_TOL)  # the library's own verdict, counted when traced
            return report
        if isinstance(op, ConstructOp):
            g = sc.Gauge(op.n, op.R, op.r, op.d)
            if op.kind is None:
                chain = sc.chain_at_phase(g, op.phase)
            else:
                chain = sc.symmetric_chain(g, sc.SymmetricChainKind(op.kind))
            valid = sc.is_valid_chain(chain)
            text = json.dumps(sc.chain_to_document(chain))
            back = sc.document_to_chain(json.loads(text))
            return chain, valid, text, back, sc.render_svg(chain)
        if isinstance(op, FeasibilityOp):
            return sc.feasibility_check(op.radii, op.mode)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = self.cli.main(prepared)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
        return code, out.getvalue()

    def check(self, op, prepared, result) -> str | None:
        sc = self.sc
        if isinstance(op, SweepOp):
            chain = sc.chain_at_phase(sc.Gauge(op.n, op.R, op.r, op.d), op.check_phase)
            circles = _circles(chain)
            failure = checker.sweep_failure(op.n, op.R, op.r, op.samples, result, circles)
            if failure:
                return failure
            # The report holds spans only, so the values come from the
            # library's public moment kernels on a member of the family.
            bending = {k: sc.bending_moment(chain, k) for k in range(1, op.n + 1)}
            values = {(k, m): sc.complex_moment(chain, k, m) for k in range(op.n) for m in range(k + 1)}
            return checker.moment_values_failure(circles, op.n, bending, values)
        if isinstance(op, ConstructOp):
            chain, valid, text, back, svg = result
            self.bytes_written += len(text) + len(svg)
            circles = _circles(chain)
            failure = checker.chain_failure(circles, op.n, op.R, op.r, op.d)
            if failure:
                return failure
            if not valid:
                return "is_valid_chain rejected an exact chain"
            if _circles(back) != circles or (back.gauge, back.phase) != (chain.gauge, chain.phase):
                return "JSON round trip changed the chain"
            return checker.svg_failure(svg, op.n)
        if isinstance(op, FeasibilityOp):
            return checker.feasibility_failure(result, op.mode, op.feasible)
        code, output = result
        files = {}
        for flag, path in zip(prepared, prepared[1:]):
            if flag in ("--out", "--csv", "--svg") and code == 0:
                files[Path(path).name] = Path(path).read_bytes()
                self.bytes_written += len(files[Path(path).name])
        if op.reads and code == 0:
            files[op.reads] = (self.session_dir / op.reads).read_bytes()
        return checker.cli_failure(op, code, output, files)


def _circles(chain) -> list[tuple[float, float, float]]:
    return [(c.center.x, c.center.y, c.radius) for c in chain.circles]


def raised_reason(exc: BaseException) -> str:
    """Exception type, the library function the benchmark called, and the
    message up to its first colon with numbers masked."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if f.filename.startswith(str(SRC))]
    where = f" in {Path(frames[0].filename).stem}.{frames[0].name}" if frames else ""
    head = re.sub(r"\d[\d.eE+-]*", "#", str(exc).split(":")[0])[:80]
    return f"raised {type(exc).__name__}{where}: {head}"


def bucket(op) -> str:
    """Where in the input space an operation sits, for the failure table."""
    if isinstance(op, ConstructOp):
        return f"R/r~1e{math.floor(math.log10(op.R / op.r))}"
    if isinstance(op, FeasibilityOp):
        return f"{op.group}/{op.mode}"
    if isinstance(op, CliOp):
        return op.argv[0]
    return f"n={op.n}"


# --- the measured loop ---------------------------------------------------


class Tally:
    """Latency and outcome of every operation, in blocks of about
    REFERENCE_EVERY_S of busy time, with the reference kernel timed before
    the first block and after each."""

    def __init__(self) -> None:
        self.latency = array("d")
        self.block_end: list[int] = []
        self.kernel: list[float] = []
        self.passed = 0
        self.reasons: Counter = Counter()
        self.buckets: Counter = Counter()
        self.failed_per_pass: list[int] = []

    def record(self, op, seconds: float, reason: str | None) -> None:
        self.latency.append(seconds)
        if reason is None:
            self.passed += 1
            return
        self.reasons[reason] += 1
        self.buckets[bucket(op)] += 1

    def calibrate(self) -> None:
        """Close the open block (if any) with a kernel measurement."""
        if self.kernel and self.block_end[-1:] == [len(self.latency)]:
            return
        if self.kernel:
            self.block_end.append(len(self.latency))
        self.kernel.append(reference_kernel())

    def scale(self) -> array:
        """Per operation: REFERENCE_S over the mean kernel time around its block."""
        out = array("d")
        start = 0
        for k, end in enumerate(self.block_end):
            factor = REFERENCE_S / ((self.kernel[k] + self.kernel[k + 1]) / 2.0)
            out.extend([factor] * (end - start))
            start = end
        return out

    def scaled(self) -> array:
        return array("d", (t * f for t, f in zip(self.latency, self.scale())))


def run_passes(work: Workload, passes, tally: Tally, tracer: Tracer | None = None, deadline=None, between=None, op_base: int = 0) -> int:
    """Run whole passes (lists of operations); stop after the last or at the
    first pass boundary past `deadline`. between() runs after each pass and
    returns the seconds it took, which move the deadline. Spans are filed
    under op_base plus the operation's index in the tally. Returns the
    number of passes run."""
    clock = time.perf_counter
    done = 0
    tally.calibrate()
    for ops in passes:
        since_kernel = 0.0
        for op in ops:
            prepared = work.prepare(op)
            result, reason = None, None
            if tracer is not None:
                tracer.current_op = op_base + len(tally.latency)
                tracer.active = True
            t0 = clock()
            try:
                if tracer is None:
                    result = work.run(op, prepared)
                else:
                    result = tracer.span(f"op.{work.name}", work.run, op, prepared)
            except Exception as exc:  # a failed operation is recorded, not fatal
                reason = raised_reason(exc)
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            if reason is None:
                try:
                    reason = work.check(op, prepared, result)
                except Exception as exc:
                    reason = f"output unreadable: {type(exc).__name__}"
            tally.record(op, t1 - t0, reason)
            since_kernel += t1 - t0
            if since_kernel >= REFERENCE_EVERY_S:
                tally.calibrate()
                since_kernel = 0.0
        tally.calibrate()
        tally.failed_per_pass.append(len(tally.latency) - tally.passed - sum(tally.failed_per_pass))
        done += 1
        if between is not None:
            deadline += between()
        if deadline is not None and clock() >= deadline:
            break
    return done


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)]


def tail_percentile(count: int) -> float:
    """Highest percentile on the ladder with at least 10 samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count - math.ceil(p / 100.0 * count) >= 10:
            best = p
    return best


# --- fresh processes -----------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "STEINER_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(args, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


class Probes:
    """Fresh processes for setup_s and cold_start_ms, one at a time, spread
    evenly over the run. The import time a set-up probe reports is scaled by
    the reference kernel timed just before and after it. Starting a process
    also waits on the host (fork, exec, page faults), which the kernel does
    not see, so a cold start is scaled by a bare interpreter started just
    before it instead: its wall time over the bare one's, times BARE_START_S."""

    def __init__(self, workload: str, seconds: float) -> None:
        self.env = child_env()
        self.code = SETUP_CODE.format(call=SETUP_CALL[workload])
        start = time.perf_counter()
        self.due = [start + (k + 0.5) * seconds / PROBES for k in range(PROBES)]
        self.setup: list[tuple[float, float]] = []  # (raw, scaled) seconds
        self.cold: list[tuple[float, float]] = []  # (raw, scaled) milliseconds

    def take(self) -> None:
        k0 = reference_kernel()
        _, proc = _child(["-c", self.code], self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup = float(proc.stdout.strip().splitlines()[-1])
        self.setup.append((setup, setup * REFERENCE_S / ((k0 + reference_kernel()) / 2.0)))
        bare, _ = _child(["-c", "pass"], self.env)
        wall, proc = _child(COLD_COMMAND, self.env)
        if proc.returncode != 0 or not proc.stdout.startswith("d = 4.0"):
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        self.cold.append((wall * 1e3, wall / bare * BARE_START_S * 1e3))

    def between_passes(self) -> float:
        """Take the probes now due; return the seconds they took."""
        t0 = time.perf_counter()
        while self.due and t0 >= self.due[0]:
            self.due.pop(0)
            self.take()
        return time.perf_counter() - t0

    def finish(self) -> None:
        while len(self.setup) < PROBES:
            self.take()


def peak_rss_mb(workload: str, seed: int) -> float:
    """Peak resident memory (MB) of a fresh process that imports the library
    and runs the first RSS_PASSES[workload] passes of the seed, unchecked.
    A fixed amount of work, so the figure does not grow with throughput."""
    code = f"import run; run.rss_child({workload!r}, {seed})"
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "bench")
    proc = _child(["-c", code], env)[1]
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def rss_child(workload: str, seed: int) -> None:
    sc, cli = load_library()
    OUT.mkdir(exist_ok=True)
    session_dir = OUT / f"session-{os.getpid()}"
    session_dir.mkdir()
    work = Workload(workload, sc, cli, session_dir)
    try:
        for index in range(RSS_PASSES[workload]):
            for op in make_pass(workload, seed, index):
                with contextlib.suppress(Exception):
                    work.run(op, work.prepare(op))
    finally:
        shutil.rmtree(session_dir, ignore_errors=True)
    print(high_water_mb())


def high_water_mb() -> float:
    """Peak resident memory of this process image (MB). ru_maxrss is not
    used: Linux carries it over from the process that forked this one."""
    with contextlib.suppress(OSError):
        for line in open("/proc/self/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_ms() -> float:
    """Cold `import steinerchains.cli` minus a bare interpreter start (ms),
    each scaled by the reference kernel timed just before and after it."""
    env = child_env()
    times: dict[str, list[float]] = {"pass": [], "import steinerchains.cli": []}
    for _ in range(PROBES):
        for code, scaled in times.items():
            before = reference_kernel()
            wall = _child(["-c", code], env)[0]
            scaled.append(wall * REFERENCE_S / ((before + reference_kernel()) / 2.0))
    return (statistics.median(times["import steinerchains.cli"]) - statistics.median(times["pass"])) * 1e3


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "steinerchains").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        cpu = next((ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# --- the two kinds of run ------------------------------------------------


def timing(latency, passed: int) -> dict:
    ordered = sorted(latency)
    p = tail_percentile(len(ordered))
    return {
        "throughput_ops_s": passed / math.fsum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": nearest_rank(ordered, p) * 1e3,
        "tail_percentile": p,
    }


def measured_run(work: Workload, seed: int, seconds: int) -> tuple[dict, Tally, Tally, dict]:
    tally = Tally()
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the collector's walks
    probes = Probes(work.name, seconds)
    deadline = time.perf_counter() + seconds
    endless = (make_pass(work.name, seed, index) for index in itertools.count())
    passes = run_passes(work, endless, tally, deadline=deadline, between=probes.between_passes)
    probes.finish()
    hard = Tally()
    run_passes(work, [hard_inputs()], hard)
    values = timing(tally.scaled(), tally.passed)
    raw = timing(tally.latency, tally.passed)
    values.update(
        hard_ok_share=hard.passed / len(hard.latency),
        setup_s=statistics.median(v for _, v in probes.setup),
        peak_rss_mb=peak_rss_mb(work.name, seed),
        cold_start_ms=statistics.median(v for _, v in probes.cold),
    )
    raw.update(
        setup_s=statistics.median(v for v, _ in probes.setup),
        cold_start_ms=statistics.median(v for v, _ in probes.cold),
    )
    notes = {
        "passes": passes,
        "ops": len(tally.latency),
        "tail_percentile": values.pop("tail_percentile"),
        "raw": raw,
        "failed_per_pass": tally.failed_per_pass,
        "kernel_s": tally.kernel,
        "setup_probes_s": probes.setup,
        "cold_probes_ms": probes.cold,
    }
    return values, tally, hard, notes


def traced_run(work: Workload, seed: int) -> tuple[dict, Tally, Tally, dict]:
    passes = TRACE_PASSES[work.name]
    plain = Tally()
    run_passes(work, (make_pass(work.name, seed, i) for i in range(passes, 2 * passes)), plain)
    work.bytes_written = 0
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    hard = Tally()
    try:
        run_passes(work, (make_pass(work.name, seed, i) for i in range(passes)), tally, tracer)
        # The hard inputs are traced too, so that porism.chain_at_phase.raised
        # and document.document_to_chain.rejected see the failures they
        # cause; their outcomes are tallied apart.
        run_passes(work, [hard_inputs()], hard, tracer, op_base=len(tally.latency))
    finally:
        tracer.uninstall()
    summary = tracer.summary(tally.scale() + hard.scale())
    tracer.write(OUT / f"{work.name}-seed{seed}-spans.csv.gz")
    extra = {
        "document.bytes_written": work.bytes_written,
        "cli.import_ms": import_ms(),
        "trace.untraced_throughput_ops_s": len(plain.latency) / math.fsum(plain.scaled()),
        "trace.throughput_ops_s": len(tally.latency) / math.fsum(tally.scaled()),
    }
    extra["trace.overhead_ratio"] = extra["trace.untraced_throughput_ops_s"] / extra["trace.throughput_ops_s"]
    values = {name: layer_value(name, summary, tracer, extra) for name in metric_units("per_layer")}
    notes = {"passes": passes, "ops": len(tally.latency), "spans": len(tracer.start), "spans_by_name": summary}
    return values, tally, hard, notes


def layer_value(name: str, summary: dict, tracer: Tracer, extra: dict) -> float:
    if name in extra:
        return extra[name]
    if name in tracer.counts or name in ("moments.terms", "moments.invariants_ok.false"):
        return tracer.counts[name]
    span, field = name.rsplit(".", 1)
    row = summary.get(span, {"calls": 0, "self_ms": 0.0, "raised": 0})
    if field == "useful_ratio":
        return len(tracer.keys[span]) / row["calls"] if row["calls"] else 0.0
    if field == "rejected":
        return row["raised"]
    return row[field]


def load_library():
    """Import steinerchains from the checkout's src/, with the tolerance
    pinned: a user's STEINER_TOL would change verdicts."""
    if not (SRC / "steinerchains" / "__init__.py").is_file():
        raise RuntimeError(f"no library source at {SRC / 'steinerchains'}")
    os.environ.pop("STEINER_TOL", None)
    sys.path.insert(0, str(SRC))
    import steinerchains
    import steinerchains.cli

    if not Path(steinerchains.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported steinerchains from {steinerchains.__file__}, not {SRC}")
    steinerchains.set_tolerance(None)
    return steinerchains, steinerchains.cli


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        steinerchains, cli = load_library()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    session_dir = OUT / f"session-{os.getpid()}"
    session_dir.mkdir()
    work = Workload(args.workload, steinerchains, cli, session_dir)
    try:
        if args.trace:
            values, tally, hard, notes = traced_run(work, args.seed)
            units = metric_units("per_layer")
        else:
            values, tally, hard, notes = measured_run(work, args.seed, args.seconds)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(session_dir, ignore_errors=True)

    info = provenance()
    result = {
        "correct": tally.passed == len(tally.latency),
        "attempted": len(tally.latency),
        "failed": len(tally.latency) - tally.passed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why(args.workload)}")
    for name, unit in units.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{notes['tail_percentile']:g} of {notes['ops']} ops)"
        print(f"  {name} = {values[name]:.6g} {unit}{note}")
    if "raw" in notes:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items()))
    print(f"  passes {notes['passes']}, attempted {result['attempted']}, failed {result['failed']}")
    for reason, count in tally.reasons.most_common():
        print(f"  failed {count}: {reason}")
    for where, count in sorted(tally.buckets.items()):
        print(f"  failed at {where}: {count}")
    print(f"  hard inputs (known library defects, not counted in failed): {hard.passed} of {len(hard.latency)} handled")
    for reason, count in hard.reasons.most_common():
        print(f"    failed {count}: {reason}")
    for where, count in sorted(hard.buckets.items()):
        print(f"    failed at {where}: {count}")
    print(f"  provenance {json.dumps(info)}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": info,
        "notes": notes,
        "failures": dict(tally.reasons),
        "failures_by_input": dict(tally.buckets),
        "hard_inputs": {"handled": hard.passed, "attempted": len(hard.latency), "failures": dict(hard.reasons), "failures_by_input": dict(hard.buckets)},
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
