"""semshare benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload frame-384 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a checkout; the package is imported from ``src/``.
Every input is generated from ``--seed`` in set-up.  The set-up runs
``SETUP_REPEATS`` times (its median is ``setup_s``), then one untimed
warm-up operation, then operations back to back for ``--seconds``.  Every
operation's output is checked; an exception of any kind counts as one
failed operation.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics.  With ``--trace 1`` the set-up runs once under
the tracer, every second operation is traced, the spans are written as JSON
lines under ``.perfbench-work/traces/`` and the result holds the per-layer
metrics.  ``--workload all`` runs each workload in its own process and
prints every named metric of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("frame-384", "train-heads", "ablate")
SETUP_REPEATS = 3
TAIL = 70  # op_ms tail: ten samples beyond it need 34 operations, 1.06 s each in 36 s
BLAS_THREADS = 1  # measured: 2 threads made basic steps slower and noisier
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms.p50", "ms"),
    (f"op_ms.p{TAIL}", "ms"),
    ("miou", "mIoU"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="ascii", errors="replace").strip()
    except OSError:
        return ""


def _machine(threads: int) -> dict:
    info = {"nproc": os.cpu_count(), "blas_threads": threads, "python": platform.python_version()}
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            info["cpu"] = line.split(":", 1)[1].strip()
            break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            shared = _read(index / "shared_cpu_list")
            info[f"L{level}"] = f"{_read(index / 'size')} shared by cpus {shared}"
    import numpy

    info["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _import_package():
    """Put the checkout's src/ first on the path; None when it is absent."""
    src = ROOT / "src"
    if not (src / "semshare" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import semshare

    if Path(semshare.__file__).resolve().parent != (src / "semshare").resolve():
        return None
    return semshare


def _attempt(state, i, tracer, errors):
    """Run operation i; returns its seconds, or None when it failed."""
    try:
        if tracer is not None:
            with tracer.scope(i):
                return state.op(i)
        return state.op(i)
    except Exception as exc:  # any failure is one failed operation
        errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        return None


def run_workload(args, machine) -> int:
    import bench_layers
    import bench_stats
    from bench_spans import Tracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(bench_layers.TARGETS) if args.trace else None
    try:
        setup_s, state = [], None
        for r in range(1 if tracer else SETUP_REPEATS):
            state = None  # frees the previous set-up's inputs
            workdir = work / f"setup{r}"
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            if tracer:
                with tracer.scope("setup"):
                    state = workload.setup(args.seed, str(workdir))
            else:
                state = workload.setup(args.seed, str(workdir))
            setup_s.append(time.perf_counter() - start)
            if r:
                shutil.rmtree(work / f"setup{r - 1}")

        errors = []
        attempted, failed = 1, 0
        if _attempt(state, 0, None, errors) is None:  # warm-up, untimed
            failed += 1
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        i = 1
        while time.perf_counter() < deadline:
            use_tracer = tracer if i % 2 == 0 else None
            elapsed = _attempt(state, i, use_tracer, errors)
            attempted += 1
            if elapsed is None:
                failed += 1
            else:
                (traced if use_tracer else plain).append(1e3 * elapsed)
            i += 1
        summary = state.summary()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in errors[:20]:
        print(f"failed {line}", file=sys.stderr)
    if not plain or (tracer and not traced):
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(plain)
    tail = bench_stats.tail_percentile(n)
    named = [
        ("setup_s", statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        ("peak_rss_mb", peak_rss_mb, "MB", "one process"),
        ("fail_ratio", failed / attempted, "ratio", f"{failed} failed of {attempted} operations"),
    ]
    prefix = workload.named_op
    if prefix:
        named.append((f"{prefix}.p50", statistics.median(plain), "ms", f"{n} samples"))
        if tail is not None and tail > 50:
            named.append(
                (f"{prefix}.p{tail}", bench_stats.percentile(plain, tail), "ms",
                 f"{bench_stats.beyond(n, tail)} of {n} samples beyond it")
            )
    named += [(name, value, unit, "") for name, value, unit in summary["named"]]
    named.append(("miou", summary["miou"], "mIoU", "the workload's quality figure"))
    if not tracer and bench_stats.beyond(n, TAIL) < bench_stats.MIN_BEYOND:
        print(f"perfbench: op_ms.p{TAIL} has fewer than ten of {n} samples beyond it",
              file=sys.stderr)

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload}: {workload.op_label} per operation, closed loop, one caller")
    for name, value, unit, note in named:
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print("named " + json.dumps({"workload": args.workload, "metrics": named}))

    if tracer:
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        metrics = bench_layers.per_layer(
            tracer, len(traced), len(setup_s), summary.get("valid_frac", {}), overhead
        )
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path, {"machine": machine})
        for target in tracer.missing():
            print(f"  not traced (name absent): {target}")
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "op_ms.p50": statistics.median(plain),
            f"op_ms.p{TAIL}": bench_stats.percentile(plain, TAIL),
            "miou": summary["miou"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process; prints every named metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            if not line.startswith("named "):
                print(line)
            else:
                named = json.loads(line[len("named "):])["metrics"]
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"][name] = {n: {"value": v, "unit": u} for n, v, u, _ in named}
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(threads)
    if _import_package() is None:
        print(f"perfbench: no semshare package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    machine = _machine(threads)
    machine.update(seed=args.seed, workload=args.workload, seconds=args.seconds)
    return run_workload(args, machine)


if __name__ == "__main__":
    sys.exit(main())
