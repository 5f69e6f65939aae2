"""infoflow benchmark: one closed-loop client, seeded inputs, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the workload is set up several times (the median is
``setup_s``) and then timed for S seconds with tracing off. With
``--trace 1`` it is timed for S/3 seconds untraced and S/3 traced, and the
traced run is repeated for S/3 in a child process started with
``OPENBLAS_NUM_THREADS=1``; the per-layer tables of both traced runs are
reported. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and the full report go to ``bench/out/``.

Every reported time is at reference speed: its wall time times
CALIBRATION_NOMINAL_S over the time of a fixed mix of interpreter, text and
small-numpy work, measured between ops at least every CALIBRATION_EVERY_S
(median of the latest CALIBRATION_WINDOW). The speed of a shared machine
drifts by up to half over tens of seconds; the factor cancels that drift, and
a change to infoflow cannot change the calibration work. The raw wall times
are in the report.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "infoflow" / "__init__.py").is_file():
    sys.exit(f"bench: no infoflow sources under {SRC}; run from the root of a source tree")
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it
CHILD_TIMEOUT_S = 170
MAX_REPORTED_PROBLEMS = 5

CALIBRATION_NOMINAL_S = 0.003
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW = 5

IMPORT_PROBE = "import time; t = time.perf_counter(); import infoflow.cli; print(time.perf_counter() - t)"


def calibration_s() -> float:
    """Median time of three runs of fixed work shaped like the workloads' own:
    an interpreter loop, float formatting and parsing, small numpy calls."""
    times = []
    a, b = np.arange(8.0), np.empty(8)
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(30_000):
            total += k
        text = ",".join([format(k * 0.1, ".17g") for k in range(1_500)])
        total += len([float(x) for x in text.split(",")])
        for _ in range(300):
            np.add(a, a, out=b)
        total += len({str(k): k for k in range(2_000)})
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(wall: float, calibrated_before: float) -> float:
    """Scale ``wall`` by the mean of a calibration taken before it and one now."""
    return wall * CALIBRATION_NOMINAL_S / ((calibrated_before + calibration_s()) / 2)


@dataclass
class Phase:
    """Timed ops of one closed-loop phase, and their checks."""

    wall: list[float] = field(default_factory=list)  # seconds
    factors: list[float] = field(default_factory=list)  # speed factor in effect for each op
    failed: int = 0
    truths: list[bool] = field(default_factory=list)
    oracle_errs: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def latencies(self) -> list[float]:
        """Op latencies at reference speed, in seconds."""
        return [w * f for w, f in zip(self.wall, self.factors)]

    def throughput(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)

    def tail(self) -> tuple[float, float, int]:
        """Latency with TAIL_BEYOND ops above it, its percentile and that op count."""
        ordered = sorted(self.latencies)
        rank = max(len(ordered) - TAIL_BEYOND, 1)
        return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank

    def merge(self, other: "Phase") -> None:
        self.wall += other.wall
        self.factors += other.factors
        self.failed += other.failed
        self.truths += other.truths
        self.oracle_errs += other.oracle_errs


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Run ops back to back for ``seconds``; check each one outside its timing."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    recent = collections.deque(maxlen=CALIBRATION_WINDOW)
    calibrated = -math.inf
    i = 0
    while True:
        if time.perf_counter() - calibrated >= CALIBRATION_EVERY_S:
            recent.append(calibration_s())
            factor = CALIBRATION_NOMINAL_S / statistics.median(recent)
            calibrated = time.perf_counter()
        if tracer is not None:
            tracer.begin(i)
        error = None
        start = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end(i, wall, factor)
        phase.wall.append(wall)
        phase.factors.append(factor)
        if error is None:
            try:
                check = workload.check(i, out)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
            else:
                if check.problems:
                    error = "; ".join(check.problems)
                if check.truth is not None:
                    phase.truths.append(check.truth)
                phase.oracle_errs.extend(check.oracle_errs)
                if tracer is not None:
                    tracer.add_counts(i, check.counts)
        if error is not None:
            phase.failed += 1
            if phase.failed <= MAX_REPORTED_PROBLEMS:
                print(f"op {i} failed: {error}", file=sys.stderr)
        i += 1
        if time.perf_counter() >= deadline:
            return phase


def set_up(cls, seed: int, workdir: Path, tiny: bool):
    """Build the workload and run its untimed warm-up ops."""
    workload = cls(seed, workdir, tiny)
    for w in range(workload.warmups):
        workload.op(workloads.SETUP_BASE + w)
    return workload


def import_s() -> float:
    """Time to import the package in a fresh interpreter, at reference speed."""
    argv = [sys.executable, "-c", IMPORT_PROBE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = calibration_s()
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    return at_reference_speed(float(child.stdout), before)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "infoflow").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    return next((unit for unit in ("ms", "bytes", "ratio") if name.endswith(unit)), "count")


def run_traced(workload, seconds: float) -> tuple[Phase, "tracing.Tracer", list[str]]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = measure(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    missing = [layer for layer in workload.layers if layer not in tracer.layers_seen()]
    return phase, tracer, missing


def single_thread_table(args) -> dict:
    """Traced run in a child process whose BLAS uses one thread."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds / 3), "--trace", "1", "--traced-only"]
    if args.tiny:
        argv.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"single-thread traced run exited {child.returncode}: {child.stderr.strip()}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--traced-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.traced_only:
            phase, tracer, missing = run_traced(set_up(cls, args.seed, workdir, args.tiny), args.seconds)
            table = tracer.table()
            table["missing_layers"] = missing
            print(json.dumps(table))
            return 0

        report = {"workload": args.workload, "environment": environment(args.seed)}
        if args.trace == 0:
            imports, setups = [], []
            for _ in range(SETUP_REPEATS):
                imports.append(import_s())
                before = calibration_s()
                start = time.perf_counter()
                workload = set_up(cls, args.seed, workdir, args.tiny)
                setups.append(at_reference_speed(time.perf_counter() - start, before))
            phase = measure(workload, args.seconds)
            tail, tail_pct, beyond = phase.tail()
            metrics = {
                "throughput_ops_s": metric(phase.throughput(), "1/s"),
                "latency_p50_ms": metric(statistics.median(phase.latencies) * 1e3, "ms"),
                "setup_s": metric(statistics.median(imports) + statistics.median(setups), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            # Reported, not gated: on millisecond ops it samples host stalls
            # (see README).
            report["latency_tail"] = {"latency_tail_ms": metric(tail * 1e3, "ms"), "percentile": tail_pct,
                                      "ops": phase.attempted, "ops_beyond": beyond}
            report["setup"] = {"import_s": imports, "set_up_s": setups}
            problems = []
        else:
            workload = set_up(cls, args.seed, workdir, args.tiny)
            untraced = measure(workload, args.seconds / 3)
            phase, tracer, missing = run_traced(workload, args.seconds / 3)
            tracer.write(OUT / f"{tag}.spans.jsonl")
            single = single_thread_table(args)
            missing_single = single.pop("missing_layers")
            metrics = {key: metric(value, layer_unit(key)) for key, value in tracer.table().items()}
            metrics["trace_overhead_ops_s"] = metric(untraced.throughput() - phase.throughput(), "1/s")
            for layer in tracing.LAYERS:
                metrics[f"blas1.{layer}.self_ms"] = metric(single[f"{layer}.self_ms"], "ms")
            for key in ("op_ms", "unattributed_ms"):
                metrics[f"blas1.{key}"] = metric(single[key], "ms")
            report["untraced"] = {"throughput_ops_s": untraced.throughput(), "attempted": untraced.attempted,
                                  "failed": untraced.failed}
            report["blas1_table"] = single
            problems = [f"traced run recorded no span for layer {m!r}" for m in missing]
            problems += [f"single-thread traced run recorded no span for layer {m!r}" for m in missing_single]
            phase.merge(untraced)

    report["quality"] = {
        "fail_ratio": metric(phase.failed / phase.attempted, "ratio"),
        "truth_match_rate": (metric(sum(phase.truths) / len(phase.truths), "ratio") if phase.truths else None),
        "oracle_rel_err": (metric(statistics.median(phase.oracle_errs), "ratio") if phase.oracle_errs else None),
    }
    report["metrics"] = metrics
    report["wall"] = {"latency_p50_ms": statistics.median(phase.wall) * 1e3,
                      "speed_factor_p50": statistics.median(phase.factors)}
    for problem in problems:
        print(problem, file=sys.stderr)
    result = {"correct": phase.failed == 0 and not problems, "attempted": phase.attempted,
              "failed": phase.failed, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
