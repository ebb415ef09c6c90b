"""Benchmark of the vardtf command-line tool.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is imported from ``src/`` next to this
directory and driven in-process through ``vardtf.cli.main(argv)``. One
operation is one CLI invocation; it fails when it exits non-zero or its
output fails a check in ``checks.py``. A pass is the workload's command
list (``workloads.py``); passes repeat until ``--seconds`` have elapsed.

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics. With ``--trace 1`` the run makes one untraced pass and
one pass with spans installed (``spans.py``) and reports the per-layer
metrics. The line before the result holds the details: per-command times,
quartiles, sample counts, SHA-256 digests of every output and any check
failures. Scratch files go to ``.bench_work/`` and are removed at exit;
spans and details are kept in ``.bench_out/``.
"""

import os

# Thread pools read these once, when numpy loads: at most two threads, BLAS
# included.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up is repeated this many times; setup_s takes the median repetition.
SETUP_REPS = 3

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def invoke(cli, argv) -> tuple:
    """Run one CLI invocation; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _digests(op, stdout: str) -> dict:
    digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    if op.out is not None and op.out.is_dir():
        for path in sorted(op.out.iterdir()):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digests[path.name] = digest.hexdigest()
    return digests


def run_pass(cli, ops) -> dict:
    """One timed pass over ``ops``, then the checks of its outputs."""
    import checks

    for op in ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
    seconds, stdouts, failures = {}, {}, {}
    for op in ops:
        code, stdout, stderr, elapsed = invoke(cli, op.argv)
        seconds[op.label] = elapsed
        stdouts[op.label] = stdout
        if code != 0:
            failures[op.label] = [f"exit code {code}: {stderr.strip()[-2000:]}"]
    done = [op for op in ops if op.label not in failures]
    begin = time.perf_counter()
    wrong = {label: p for label, p in checks.check_pass(done, stdouts).items() if p}
    check_s = time.perf_counter() - begin
    per_command: dict = {}
    for op in ops:
        per_command[op.metric] = per_command.get(op.metric, 0.0) + seconds[op.label]
    return {
        "pass_s": sum(seconds.values()),
        "check_s": check_s,
        "commands": per_command,
        "ops": seconds,
        "failed": {**failures, **wrong},
        "wrong": sorted(wrong),
        "digests": {op.label: _digests(op, stdouts[op.label]) for op in ops},
    }


def _summary(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "samples": len(values)}


def run(cli, import_s: float, args, work: Path) -> tuple:
    """Set up, measure and check; returns (metrics, detail, passes, ops per pass)."""
    import workloads
    from spans import LAYER_METRICS, Tracer

    indir, outdir = work / "inputs", work / "out"
    setup_reps = []
    for _ in range(SETUP_REPS):
        begin = time.perf_counter()
        inputs = workloads.make_inputs(args.seed)
        workloads.write_models(inputs, indir)
        for op in workloads.small_ops(workloads.COMMANDS, inputs, work / "warmup"):
            code, _, stderr, _ = invoke(cli, op.argv)
            if code != 0:
                raise RuntimeError(f"warm-up {op.label} exited {code}: {stderr.strip()}")
        setup_reps.append(time.perf_counter() - begin)
    ops = workloads.pass_ops(args.workload, inputs, indir, outdir)

    detail = {
        "workload": args.workload, "seed": args.seed, "blas_threads": int(THREADS),
        "setup": {"import_s": import_s, "reps_s": setup_reps},
    }
    if args.trace:
        untraced = run_pass(cli, ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        values = tracer.metrics()
        values.update(untraced["commands"])
        values["trace.overhead_s"] = traced["pass_s"] - untraced["pass_s"]
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        units.update(dict.fromkeys(untraced["commands"], "s"))
        units["trace.overhead_s"] = "s"
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(run_pass(cli, ops))
        values = {
            "setup_s": import_s + statistics.median(setup_reps),
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        detail["pass_s"] = _summary([p["pass_s"] for p in passes])
        detail["check_s"] = _summary([p["check_s"] for p in passes])
        detail["commands"] = {
            name: _summary([p["commands"][name] for p in passes]) for name in passes[0]["commands"]
        }
        detail["ops"] = {
            label: _summary([p["ops"][label] for p in passes]) for label in passes[0]["ops"]
        }
    detail["failures"] = [p["failed"] for p in passes if p["failed"]]
    detail["digests"] = passes[-1]["digests"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, detail, passes, len(ops)


def main(argv=None) -> int:
    if not (SRC / "vardtf" / "cli.py").is_file():
        print(f"error: the program's sources are missing: no {SRC / 'vardtf' / 'cli.py'}",
              file=sys.stderr)
        return 2
    # Timed first, so that import_s includes loading numpy and scipy.
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vardtf.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported vardtf from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    args = _parse_args(argv)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, detail, passes, n_ops = run(cli, import_s, args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    result = {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": n_ops * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
