#!/usr/bin/env python3
"""Seeded benchmark for ``alliance analyze`` and ``alliance survey``.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload exact_n24 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
first times round 0 untraced, then runs traced and reports per-layer
metrics; the difference between the two round-0 times is the tracing
overhead. Every output is checked after the timed work. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record (environment, per-graph times,
digest) goes to ``perfbench/results/``, and a traced run also writes its spans
there. The program runs in this process, on one thread.
"""

from __future__ import annotations

import os

# Set before numpy loads: one BLAS/OpenMP thread, so that on a small machine
# an eigensolver that calls LAPACK measures the program, not the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("exact_n24", "survey_n10", "bounds_n120")


@dataclass
class Sample:
    """One graph's timed work: parse, analyze and serialize, or one survey row and its JSON."""

    label: str
    seconds: float
    output: dict | None = None
    text: str | None = None
    graph: object = None
    error: str | None = None


@dataclass
class Pass:
    samples: list[Sample]
    summary: list[dict] | None = None
    summary_seconds: float = 0.0


def _out_of_time(samples: list[Sample], round_size: int, deadline: float) -> bool:
    # Do not start a round that would, on average, finish after the deadline.
    mean_round = sum(s.seconds for s in samples) / len(samples) * round_size
    return perf_counter() + mean_round > deadline


def timed(tracer, graph_id: int, step) -> tuple[float, dict | None, str | None, str | None]:
    """Time ``step() -> (output, json_text)`` for one graph, under a root span when tracing."""
    output = text = error = None
    with tracer.graph(graph_id) if tracer else nullcontext() as root:
        start = perf_counter()
        try:
            output, text = step()
        except Exception:
            error = traceback.format_exc()
        seconds = perf_counter() - start
    if root is not None and output is not None:
        root.attrs["tight"] = sum(1 for entry in output["bounds"] if entry.get("gap") == 0)
    return seconds, output, text, error


def measure_analyze(workload, seed: int, deadline: float, tracer=None) -> Pass:
    """Parse each graph6 input, analyze it and serialize the report, as ``alliance analyze`` does."""

    def step(case):
        g = io_formats.parse_graph6(case.graph6)
        output = report.analyze(g, label=case.label, bounds_only=workload.bounds_only)
        return output, report.report_to_json(output)

    samples: list[Sample] = []
    for cases in bench_workloads.rounds(workload, seed):
        if len(samples) >= workload.round0 and _out_of_time(samples, workload.round_size, deadline):
            break
        for case in cases:
            seconds, output, text, error = timed(tracer, case.index, lambda: step(case))
            samples.append(Sample(case.label, seconds, output, text, case.graph, error))
    return Pass(samples)


def measure_survey(workload, seed: int, deadline: float, tracer=None) -> Pass:
    """Stream survey rows and one JSON line per row, then the summary, as ``alliance survey`` does."""
    spec = bench_workloads.parse_family(workload.random[0])
    serialize = tracer.wrap("report.serialize", json.dumps) if tracer else json.dumps
    rows = report.survey_rows(spec, bench_workloads.SEED_STRIDE, seed * bench_workloads.SEED_STRIDE)

    def step():
        output = next(rows)
        return output, serialize(output)

    samples: list[Sample] = []
    try:
        while len(samples) < workload.round0 or not _out_of_time(samples, 1, deadline):
            seconds, output, text, error = timed(tracer, len(samples), step)
            label = bench_workloads.random_label(workload, seed, len(samples))
            samples.append(Sample(label, seconds, output, text, None, error))
            if error is not None:
                break  # a survey stops at its first failure, as the CLI does
    finally:
        rows.close()
    start = perf_counter()
    summary = report.summarize_survey([s.output for s in samples if s.output is not None])
    json.dumps({"summary": summary})
    return Pass(samples, summary, perf_counter() - start)


def check_pass(workload, run: Pass, log: list[str]) -> tuple[int, list]:
    """Check every output of a pass; returns (failed graphs, digest records of round 0)."""
    failed = 0
    records = []
    for index, sample in enumerate(run.samples):
        if sample.error is not None:
            problems = [sample.error]
        elif workload.survey:
            g = bench_workloads.build_label(sample.label)
            problems = bench_checks.check_row(g, sample.output)
            if index < workload.round0:
                full = report.analyze(g, label=sample.label)
                problems += bench_checks.check_report(g, full, report.report_to_json(full))
                problems += bench_checks.check_row_against_report(sample.output, full)
                rows = [[e["theorem"], e["target"], e["value"], e["exact"]] for e in sample.output["bounds"]]
                records.append([rows, bench_checks.result_record(full)])
        else:
            problems = bench_checks.check_report(sample.graph, sample.output, sample.text)
            if index < workload.round0:
                records.append(bench_checks.result_record(sample.output))
        if problems:
            failed += 1
            log.append(f"{sample.label}: " + "; ".join(problems))
    if run.summary is not None:
        rows = [s.output for s in run.samples if s.output is not None]
        log.extend(f"survey summary: {p}" for p in bench_checks.check_summary(rows, run.summary))
    return failed, records


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import alliances.cli``, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import alliances.cli"],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def warm_up() -> None:
    """One untimed tiny analyze, so lazy set-up is not in the first latency sample."""
    g = io_formats.parse_graph6(io_formats.write_graph6(bench_workloads.build_label("petersen")))
    report.report_to_json(report.analyze(g, label="warm-up"))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        return (git / ref).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = bench_workloads.WORKLOADS[name]
    measure = measure_survey if workload.survey else measure_analyze
    setup_s = None if trace else measure_setup()
    warm_up()
    deadline = perf_counter() + seconds
    log: list[str] = []
    details: dict = {}
    if trace:
        untraced = measure(workload, seed, deadline=0.0)  # round 0 only
        tracer = bench_trace.Tracer()
        with bench_trace.install(tracer):
            traced = measure(workload, seed, deadline, tracer)
        passes = [untraced, traced]
        metrics = bench_trace.layer_metrics(tracer.spans, workload.round0)
        untraced_s = sum(s.seconds for s in untraced.samples)
        traced_s = sum(s.seconds for s in traced.samples[: workload.round0])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        details["round0_untraced_s"] = untraced_s
        details["round0_traced_s"] = traced_s
    else:
        passes = [measure(workload, seed, deadline)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    for index, run in enumerate(passes):
        run_failed, records = check_pass(workload, run, log)
        failed += run_failed
        if index == 0:
            details["digest"] = bench_checks.digest(records)
    attempted = sum(len(run.samples) for run in passes)
    expected = bench_workloads.EXPECTED_DIGEST[name] if seed == bench_workloads.DIGEST_SEED else None
    if expected is not None and details["digest"] != expected:
        failed = min(attempted, failed + workload.round0)
        log.append(f"round-0 digest {details['digest']} != recorded {expected}")

    samples = passes[-1].samples
    latencies = [s.seconds for s in samples]
    if len(latencies) >= 100:
        details["latency_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    details["graphs"] = len(latencies)
    details["fail_ratio"] = failed / attempted
    details["log"] = log
    details["samples"] = [[s.label, s.seconds, s.error is None] for s in samples]
    if not trace:
        completed = sum(1 for s in samples if s.error is None)
        metrics = {
            "graphs_per_s": completed / (sum(latencies) + passes[-1].summary_seconds),
            "latency_s.p50": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {entry["name"]: entry["unit"] for entry in declared["end_to_end"] + declared["per_layer"]}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "metrics": metrics,
        "details": details,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in log:
        print(f"perfbench: {name}: {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and not log,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after another, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0 or not child.stdout:
            raise RuntimeError(f"workload {name} exited with code {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    return merged


def print_result(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{key:56s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    if not (SRC / "alliances" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'alliances'} not found; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import bench_checks
    import bench_trace
    import bench_workloads
    from alliances import io_formats, report

    sys.exit(main())
