"""Benchmark of the tsdlink command line, run in-process through `run_cli`.

    python3 bench/run.py --workload invariant|markov|check --seed N --seconds S --trace 0|1

One client runs one op after another (a closed loop) in this single process,
on the `tsdlink` package under `src/` of the checkout that holds this file.
Ops run in whole rounds that end within `--seconds` of measured time, so
every run measures the same mix of op classes.  Every output is checked.
With `--trace 0` the last line of output holds the end-to-end metrics, with
times scaled to a reference speed by probes timed between the ops; with
`--trace 1` every op runs once untraced and once with spans (see spans.py),
and the last line holds the per-layer metrics and the tracing overhead.
Earlier lines record the machine, the code revision, the op-list hash, the
wall-clock metrics and per-class latencies.  See README.md in this
directory for the workloads, the metrics and the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A run sets up SETUP_REPEATS times before the first op and once more after
# each op (outside the measured time, at most SETUP_SAMPLES times in all),
# and reports the median of all.
SETUP_REPEATS = 5
SETUP_SAMPLES = 100

# Duration of `probe()` on the reference machine in its fast state (see
# README.md, "Reference speed"), and the least distance on either side of a
# timed step within which probes count towards the speed it ran at.
PROBE_S = 0.0105
PROBE_LOOPS = 4000
NEAR_S = 0.05


def probe() -> float:
    """Time a fixed pure-Python loop of the kind tsdlink runs (rational
    arithmetic into a dict keyed by index tuples).  Its duration tracks the
    speed the machine runs Python at, at that moment."""
    start = time.perf_counter()
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(PROBE_LOOPS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + third * (i % 7)
    return time.perf_counter() - start


class Speed:
    """Probes timed between the measured steps of a run, and the scaling of
    each step's time to the reference speed."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)

    def take(self) -> None:
        start = time.perf_counter()
        took = probe()
        self.probes.append((start, start + took))

    def scaled(self, start: float, end: float) -> float:
        """`end - start` at the reference speed: scaled by the mean of the
        probes that overlap the step widened on either side by its own
        length (at least NEAR_S), so that a short step is judged by the
        probes next to it and a long one also by those of its neighbours."""
        width = max(end - start, NEAR_S)
        near = [b - a for a, b in self.probes if b >= start - width and a <= end + width]
        return (end - start) * PROBE_S * len(near) / sum(near)


def _import_cli():
    """Import tsdlink afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "tsdlink" or m.startswith("tsdlink.")]:
        del sys.modules[name]
    cli = importlib.import_module("tsdlink.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tsdlink imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, work: Path):
    """Import, generate the rounds of ops and write the documents they read;
    returns the module, the rounds and the (start, end) of the set-up."""
    start = time.perf_counter()
    cli = _import_cli()
    rounds = workloads.generate(workload, seed, work)
    return cli, rounds, (start, time.perf_counter())


def run_op(cli, op: workloads.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run_cli(list(op.argv), out=out)
    except Exception as e:  # a traceback is a failed op, not a failed run
        code, err = -1, io.StringIO(f"{type(e).__name__}: {e}\n")
    latency = time.perf_counter() - start
    ok, columns = workloads.verify(op, code, out.getvalue(), err.getvalue())
    return {"op": op, "start": start, "latency": latency, "ok": ok, "columns": columns}


def another_round(elapsed: float, done: int, seconds: float) -> bool:
    """Whether a round as long as the average one so far still ends within
    `seconds`; the first round always runs."""
    return done == 0 or elapsed * (done + 1) / done <= seconds


def measure(cli, rounds, seconds: float, speed: Speed, resample):
    """Run whole rounds while they end within `seconds`.  After each op,
    outside the clock, `speed` takes a probe, and `resample()` may set up
    once more; if it does (returns True), another probe follows."""
    records = []
    done = 0
    wall = 0.0
    while another_round(wall, done, seconds):
        for op in rounds[done % len(rounds)]:
            start = time.perf_counter()
            records.append(run_op(cli, op))
            wall += time.perf_counter() - start
            speed.take()
            if resample():
                speed.take()
        done += 1
    return records, done


def measure_traced(cli, rounds, seconds: float, tracer):
    """Like `measure`, but each op runs untraced and at once traced, so that
    both runs of an op see the same machine state; which of the two goes
    first alternates from op to op.  Both runs count towards `seconds`."""
    untraced, traced = [], []
    done = 0
    while another_round(sum(r["latency"] for r in untraced + traced), done, seconds):
        for op in rounds[done % len(rounds)]:
            for with_spans in (False, True) if len(untraced) % 2 == 0 else (True, False):
                if with_spans:
                    tracer.op = len(traced)
                    with tracer.installed():
                        traced.append(run_op(cli, op))
                else:
                    untraced.append(run_op(cli, op))
        done += 1
    return untraced, traced, done


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(records, setup_s: float, key: str = "norm") -> dict:
    """The end-to-end metrics from each op's `key` time: "norm" (reference
    speed) or "latency" (wall clock)."""
    latencies = [r[key] for r in records]
    wall = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "columns_per_s": (sum(r["columns"] for r in records) / wall, "columns/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            git = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": git, "src_sha256": digest.hexdigest()}


def machine() -> dict:
    uname = platform.uname()
    return {
        "system": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def class_summary(records) -> dict:
    """Median latency and op count per op class and field."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(f"{r['op'].label} [{r['op'].field}]", []).append(r["latency"])
    return {k: {"n": len(v), "median_s": round(statistics.median(v), 4)} for k, v in sorted(groups.items())}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, rounds=None) -> dict:
    """Run one workload and print its report; returns the result object.

    `rounds` replaces the generated op list (the tests use small ones)."""
    work = ROOT / "bench" / ".work" / f"{workload}-{os.getpid()}"
    try:
        speed = Speed()
        setups = []
        speed.take()
        for _ in range(SETUP_REPEATS):
            cli, generated, span = setup(workload, seed, work)
            setups.append(span)
            speed.take()
        rounds = rounds or generated
        if trace:
            tracer = spans.Tracer()
            records, traced, done = measure_traced(cli, rounds, seconds, tracer)
        else:

            def resample() -> bool:
                if len(setups) >= SETUP_SAMPLES:
                    return False
                setups.append(setup(workload, seed, work)[2])
                return True

            records, done = measure(cli, rounds, seconds, speed, resample)
            for r in records:
                r["norm"] = speed.scaled(r["start"], r["start"] + r["latency"])
        info = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "ops_sha256": workloads.ops_digest(rounds, work),
            "rounds": done,
            "machine": machine(),
            "revision": revision(),
        }
        all_records = list(records)
        if trace:
            all_records += traced
            untraced_s = sum(r["latency"] for r in records)
            overhead_s = sum(r["latency"] for r in traced) - untraced_s
            metrics = {k: (v, spans.UNITS[k]) for k, v in spans.layer_metrics(tracer.spans, len(traced)).items()}
            metrics["trace.overhead_s"] = (overhead_s, "s")
            metrics["trace.overhead_share"] = (overhead_s / untraced_s, "ratio")
            info["spans"] = len(tracer.spans)
            info["trace_share_by_class"] = spans.trace_share_by_class(tracer.spans, traced)
            info["diff_ms_by_caller"] = spans.diff_ms_by_caller(tracer.spans, len(traced))
        else:
            metrics = end_to_end(records, statistics.median(speed.scaled(*span) for span in setups))
            wall_clock = end_to_end(records, statistics.median(end - start for start, end in setups), key="latency")
            info["wall_clock"] = {name: round(value, 6) for name, (value, _) in wall_clock.items()}
            info["speed"] = round(statistics.median(r["latency"] / r["norm"] for r in records), 4)
            info["latency_samples"] = len(records)
            # Not a metric: with 16 to 40 ops a run, it rests on 2 to 4 of them.
            info["latency_p90_s"] = {"norm": percentile90([r["norm"] for r in records]),
                                     "wall_clock": percentile90([r["latency"] for r in records])}
        failed = sum(not r["ok"] for r in all_records)
        info["failed_ratio"] = failed / len(all_records)
        info["failed_ops"] = sorted({" ".join(r["op"].argv) for r in all_records if not r["ok"]})
        info["classes"] = class_summary(records)
        print("# " + json.dumps(info))
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
        print(f"# failed_ratio = {info['failed_ratio']:.6g} ({failed}/{len(all_records)} ops)")
        result = {
            "correct": failed == 0,
            "attempted": len(all_records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsdlink" / "__init__.py").is_file():
        print(f"error: no tsdlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
