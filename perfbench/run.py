"""sandlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload drop --seed 1 --seconds 20 --trace 0

Run from a checkout: the benchmark imports ``sandlab`` from ``src/`` next
to this directory and refuses to run without it.

The seed fixes one batch of inputs.  The run repeats that batch until
``--seconds`` of measured time (set-up plus answers) has passed, at least
four times; every repetition builds fresh graphs, so no cache outlives it.
An answer's latency is the median of its repetitions, and repetitions
take turns on the CPUs the process may use: on a shared 2-CPU virtual
machine each CPU has slow phases, seconds to minutes long, in which the
same code runs up to 1.7 times slower.  Over such a host's phases the
median of about ten repetitions spreads half as much as their least
value, which depends on whether a rare fast moment fell into the run.
``setup_s`` is the median import of ``sandlab`` (this
process's own and one child interpreter's after each of the first
repetitions) plus the median graph build.
Answers are checked outside the timed region, once, and every repetition
must reproduce the same answers bit for bit.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` repetitions alternate untraced and traced, the last line
reports the per-layer metrics of the traced ones (each the median over
traced repetitions of one repetition's value), and
``trace.wall_ratio`` is the traced over the untraced ``wall_s`` (their
difference, the tracing overhead in seconds, is printed above it).
Human-readable lines come first; details, failure witnesses and spans go
to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# single-threaded benchmark: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("drop", "thresholds", "fields", "cli_mix")
MIN_REPETITIONS = 4
IMPORTS = 7


IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sandlab, sandlab.cli
print(time.perf_counter() - start)
"""


def import_sandlab() -> float:
    """Seconds this process takes to import the checkout's sandlab."""
    if not (SRC / "sandlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sandlab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sandlab
    import sandlab.cli  # noqa: F401

    seconds = time.perf_counter() - start
    if Path(sandlab.__file__).resolve().parent != SRC / "sandlab":
        sys.exit(f"perfbench: imported sandlab from {sandlab.__file__}, not {SRC}")
    return seconds


def child_import() -> float:
    """Seconds a fresh child interpreter takes to import sandlab."""
    child = subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True,
                           capture_output=True, text=True, timeout=60)
    return float(child.stdout)


def run_batch(wl, seed, scratch, tracer=None) -> dict:
    """Build the graphs and answer the seed's batch; both are timed."""
    import numpy as np
    from sandlab import engine

    rng = np.random.default_rng([seed % 2**64, wl.code])
    before = engine.engine_stats()
    first_span = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        ctx = wl.setup(scratch)
        setup_s = time.perf_counter() - start
        ops = [op for _ in range(wl.sets) for op in wl.ops(ctx, rng)]
        answers = []
        batch_start = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            try:
                answer, error = op.run(), None
            except Exception as exc:  # a failed answer is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            answers.append((op, answer, error or op.failure(answer), seconds))
        wall_s = time.perf_counter() - batch_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = engine.engine_stats()
    return {
        "spans": (first_span, len(tracer.spans)) if tracer is not None else None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "answers": answers,
        "audit": (after["identity_checks"] - before["identity_checks"],
                  after["identity_failures"] - before["identity_failures"]),
    }


def digest_of(batch) -> str:
    """Hash of every answer (artifact bytes for CLI answers) in order."""
    digest = hashlib.sha256()
    for op, answer, error, _ in batch["answers"]:
        digest.update(f"failed {op.kind}".encode() if error else op.fingerprint(answer))
        digest.update(b"\n")
    return digest.hexdigest()


def check_answers(batch, known_defect):
    """Check every answer once; return (problems, failures)."""
    problems, failures = [], []
    for op, answer, error, _ in batch["answers"]:
        if error is not None:
            failures.append({"op": op.kind, "witness": op.witness, "error": error,
                             "known": known_defect(op.kind, error)})
            continue
        try:
            found = op.check(answer)
        except Exception as exc:  # a checker that cannot read the output rejects it
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems += [f"{op.kind} {json.dumps(op.witness)}: {p}" for p in found]
    return problems, failures


def tail(latencies):
    """Highest nearest-rank percentile with at least 10 answers beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10)
    return ordered[rank - 1], 100 * rank / n


def json_number(value):
    """``value`` as the result line carries it: integers beyond 2**53 (the
    bigint toppling counts of the line graph) become floats, so that every
    JSON reader takes them as numbers; the exact counts go to the details."""
    if isinstance(value, int) and abs(value) > 2**53:
        return float(value)
    return value


def machine_info():
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_times = [import_sandlab()]
    from tracer import Tracer, batch_spans, layer_metrics
    from workloads import WORKLOADS, is_known_defect

    wl = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    scratch_root = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    plain, traced = [], []
    problems, failures, digests = [], [], set()
    measured = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while measured < args.seconds or len(plain) < MIN_REPETITIONS:
            os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
            for tr in (None, tracer) if tracer else (None,):
                scratch = scratch_root / f"r{len(plain) + len(traced)}"
                scratch.mkdir()
                batch = run_batch(wl, args.seed, scratch, tr)
                measured += batch["setup_s"] + batch["wall_s"]
                digests.add(digest_of(batch))
                if not plain:
                    problems, failures = check_answers(batch, is_known_defect)
                shutil.rmtree(scratch)
                # keep (error, seconds) only: answers hold the graphs alive
                batch["answers"] = [(err, s) for _, _, err, s in batch["answers"]]
                (traced if tr else plain).append(batch)
            # imports are spread over the run, like the batches, so that
            # their median is not one slow phase of the host
            if len(import_times) < IMPORTS:
                import_times.append(child_import())
        while len(import_times) < IMPORTS:
            import_times.append(child_import())
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
    import_s = statistics.median(import_times)
    if len(digests) != 1:
        problems.append(f"repetitions gave {len(digests)} different answer sets")

    def per_answer(batches):
        """Each answer's median latency over the repetitions."""
        return [statistics.median(b["answers"][i][1] for b in batches)
                for i in range(len(batches[0]["answers"]))]

    answer_s = per_answer(plain)
    latencies = [s for s, (err, _) in zip(answer_s, plain[0]["answers"]) if err is None]
    tail_s, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    build_s = statistics.median(b["setup_s"] for b in plain)
    metrics = {
        "setup_s": (import_s + build_s, "s"),
        "wall_s": (sum(answer_s), "s"),
        "answer_p50_ms": (1000 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "answer_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    overhead_s = None
    if tracer is not None:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        per_batch = []
        for b in traced:
            layers = layer_metrics(batch_spans(tracer.spans, *b["spans"]))
            checks, audit_failures = b["audit"]
            if checks != layers["engine.stabilize_calls"] or audit_failures:
                problems.append(f"audit: {checks} checks, {audit_failures} failures, "
                                f"{layers['engine.stabilize_calls']} stabilize calls")
            layers["engine.audit_checks"] = checks
            layers["engine.audit_failures"] = audit_failures
            per_batch.append(layers)
        # counts repeat exactly in every repetition; times take their median
        layers = {name: statistics.median_low(b[name] for b in per_batch)
                  for name in per_batch[0]}
        traced_wall_s = sum(per_answer(traced))
        overhead_s = traced_wall_s - sum(answer_s)
        layers["trace.wall_ratio"] = traced_wall_s / sum(answer_s)
        metrics.update({name: (value, units[name]) for name, value in layers.items()})
    correct = not problems and all(f["known"] for f in failures)
    attempted = len(plain[0]["answers"])
    machine = machine_info()

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"answers={attempted} repetitions={len(plain)}+{len(traced)} traced "
          f"import_s={import_s:.4f} build_s={build_s:.4f} "
          f"batch_walls={[round(b['wall_s'], 3) for b in plain]}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown_value = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown_value} {unit}")
    print(f"  answer_tail_ms is p{tail_pct:.1f} of {len(latencies)} answers")
    if overhead_s is not None:
        print(f"  tracing overhead = {overhead_s:.6g} s (traced minus untraced wall_s)")
    print(f"  failed_ops = {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for f in failures:
        print(f"  failure{'' if f['known'] else ' (unexpected)'}: {f['op']} "
              f"{json.dumps(f['witness'])}: {f['error']}")
    for p in problems:
        print(f"  check failed: {p}")
    print(f"digest {' '.join(sorted(digests))}")

    shown = {name: {"value": json_number(value), "unit": unit}
             for name, (value, unit) in metrics.items()}
    details = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine, "metrics": shown,
        "tail_percentile": tail_pct, "answers": attempted, "trace_overhead_s": overhead_s,
        "exact_counts": {name: value for name, (value, _) in metrics.items()
                         if isinstance(value, int)},
        "failures": failures, "problems": problems, "digests": sorted(digests),
        "spans": tracer.to_json() if tracer else [],
    }
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details) + "\n")

    names = [m["name"] for m in bench["per_layer" if tracer else "end_to_end"]]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: shown[name] for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
