"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload loop --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The process is serial (one worker,
OpenBLAS and OpenMP at one thread) so the figures measure the program,
not the scheduler of a shared host.  It sets up (imports, the serving
model, the first round's inputs -- the model and inputs three times,
reporting the median), then runs whole rounds of the workload until
``--seconds`` of measured time have passed, checks every round's
outputs, and prints two JSON lines: the run record, then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
wraps the program's layers and reports the per-layer metrics instead.
The serving model is trained, and the checks run, in forked child
processes, so the process's peak memory is that of the workload.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path):
    """The checked-out commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def peak_rss_mb() -> float:
    """This process's peak resident set so far (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def in_child(call):
    """``call()`` in a forked child process, its result pickled back.

    Set-up trains the serving model and the output checks run this way,
    so the memory they take stays out of this process's peak:
    ``peak_rss_mb`` is that of the imports, the inputs and the timed
    part.  An exception in the child is raised here.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def target():
        try:
            writer.send((True, call()))
        except BaseException:
            writer.send((False, traceback.format_exc()))

    child = context.Process(target=target)
    child.start()
    writer.close()
    try:
        ok, value = reader.recv()
    except EOFError:
        ok, value = False, f"exit code {child.exitcode}, no result"
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


def probe_ms(repeats: int = 5) -> float:
    """A fixed pure-Python plus numpy sort/gather kernel (median ms).

    Timed before and after the run, it tells a host that slowed down
    from a program that did.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    values = rng.random(200_000)
    order = rng.integers(0, values.size, values.size)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        float(np.sort(values)[order].sum())
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import suite

    import_s = time.perf_counter() - _STARTED
    try:
        workload = suite.WORKLOADS[args.workload]
    except KeyError:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    try:
        return _run(args, spec, workload, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def _run(args, spec, workload, import_s, scratch) -> int:
    import numpy as np

    import suite
    import tracing

    probe_before = probe_ms()

    model_times, build_times = [], []
    for _ in range(SETUPS):
        fixture = prepared = None  # the previous set-up's, freed first
        started = time.perf_counter()
        fixture = in_child(workload.setup)
        model_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        prepared = workload.prepare(fixture, suite.round_seed(args.seed, 0), scratch)
        build_times.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(
        m + b for m, b in zip(model_times, build_times)
    )
    rss_setup_mb = peak_rss_mb()

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        suite.install_layers(tracer)
    rounds = []
    measured = 0.0
    try:
        while not rounds or measured < args.seconds:
            if rounds:
                prepared = None  # the previous round's, freed first
                prepared = workload.prepare(
                    fixture, suite.round_seed(args.seed, len(rounds)), scratch
                )
            result = workload.run_round(fixture, prepared, tracer)
            result.failures = in_child(result.check)
            result.check = None
            result.rss_mb = peak_rss_mb()
            rounds.append(result)
            measured += result.seconds
    finally:
        tracer.restore()
    probe_after = probe_ms()

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.operations for r in rounds)
    # An operation that raises ends the run with a traceback and no
    # result, so a run that prints one failed none.
    failed = 0
    op_ms = np.asarray([s for r in rounds for s in r.op_seconds]) * 1e3
    if args.trace:
        layers = _layer_values(tracer, rounds, import_s, model_times,
                               build_times, probe_before, probe_after)
        # A layer the workload never calls reads 0.
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "setup_s": setup_s,
            # After the first round: later rounds add a little (heap
            # reuse), and how many there are depends on the host's speed.
            "peak_rss_mb": rounds[0].rss_mb,
            "container_ticks_per_s": sum(r.container_ticks for r in rounds)
            / sum(r.seconds for r in rounds),
        }
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_sha": git_sha(ROOT),
        },
        "host.probe_ms": {"before": probe_before, "after": probe_after},
        "setup": {"import_s": import_s, "model_s": model_times,
                  "build_s": build_times},
        # ru_maxrss after set-up and after each round: which phase
        # sets the peak.
        "peak_rss_mb": {"setup": rss_setup_mb,
                        "rounds": [r.rss_mb for r in rounds]},
        "rounds": [
            {"seconds": r.seconds, "operations": r.operations,
             "container_ticks": r.container_ticks, **r.phases}
            for r in rounds
        ],
        "op_ms": _op_summary(op_ms),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    print(json.dumps({"record": record}))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _op_summary(op_ms) -> dict:
    """Median and, where ten samples lie beyond it, p95 and p99."""
    summary = {"n": int(op_ms.size), "p50_ms": float(statistics.median(op_ms))}
    for q in (95, 99):
        if op_ms.size * (100 - q) / 100 >= 10:
            summary[f"p{q}_ms"] = float(statistics.quantiles(op_ms, n=100)[q - 1])
    return summary


def _layer_values(tracer, rounds, import_s, model_times, build_times,
                  probe_before, probe_after) -> dict:
    """Per-round self times and counts, the remainder, and the
    tracing overhead."""
    n = len(rounds)
    values = {name: total / n for name, total in tracer.busy.items()}
    values.update({name: total / n for name, total in tracer.counts.items()})
    values["other_s"] = (tracer.timed_s - sum(tracer.busy.values())) / n
    values["trace.run_s"] = tracer.timed_s / n
    values["trace.calls"] = tracer.calls / n
    values["trace.overhead_s"] = tracer.calls * tracer.per_call_overhead_s() / n
    values["setup.import_s"] = import_s
    values["setup.model_s"] = statistics.median(model_times)
    values["setup.build_s"] = statistics.median(build_times)
    values["host.probe_ms"] = statistics.median([probe_before, probe_after])
    return values


if __name__ == "__main__":
    sys.exit(main())
