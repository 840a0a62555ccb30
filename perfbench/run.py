"""Benchmark of the catring package: build, query and serve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

One client runs a closed loop in this single process: the next operation
starts when the previous one has returned.  `--trace 0` measures the
end-to-end metrics, each timing scaled to a reference host speed measured
beside it (hostspeed.py); `--trace 1` runs a fixed seeded plan twice,
untraced and then with spans around every layer's public functions, and
reports the per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Other modes:
    --all             every workload, each in its own fresh process, as a table
    --selfcheck       same seed gives identical inputs and identical counts
    --write-reference regenerate reference.json (answers of the default seed)
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import islice  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("build", "query", "serve")
SETUP_KERNELS = 3  # host-speed samples before and after each set-up sample

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def import_catring():
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import catring
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import catring from {SRC}: {exc}")
    if not os.path.abspath(catring.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: catring was imported from {catring.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Time one more import of the package: every catring module body runs
    again, from its cached bytecode, as in a fresh interpreter whose
    standard library is already loaded.  The modules in use stay in use."""
    loaded = {k: v for k, v in sys.modules.items() if k == "catring" or k.startswith("catring.")}
    for name in loaded:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        for name in sorted(loaded):
            importlib.import_module(name)
        return time.perf_counter() - t0
    finally:
        for name in [k for k in sys.modules if k == "catring" or k.startswith("catring.")]:
            del sys.modules[name]
        sys.modules.update(loaded)


def time_setup(workload, seed: int, workdir: str, speed):
    """One set-up sample: the import plus the workload's set-up, raw and
    scaled to the reference host by kernel timings taken around it."""
    gc.collect()
    speed.sample(SETUP_KERNELS)
    import_s = import_seconds()
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    t1 = time.perf_counter()
    speed.sample(SETUP_KERNELS)
    raw = import_s + t1 - t0
    return raw, raw * speed.scale(t0 - import_s, t1), state


@dataclass
class Record:
    op: tuple
    start: float
    answer: object
    error: str | None
    expected_failure: bool
    seconds: float


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int, wanted: float) -> float:
    """The workload's tail percentile, lowered if fewer than ten samples
    would lie beyond it."""
    return min(wanted, 100.0 * (n - 10) / n) if n > 10 else 50.0


def run_ops(workload, state, rounds, deadline=None, tracer=None, speed=None) -> list[Record]:
    """Closed loop over whole rounds; stops after the round that passes the
    deadline (or when `rounds` is exhausted).  With `speed`, the host-speed
    kernel runs between operations, never inside one."""
    records = []
    clock = time.perf_counter
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = clock()
            try:
                answer = workload.execute(state, op)
            except Exception as exc:  # a failed operation is counted, the loop goes on
                t1 = clock()
                error = f"{type(exc).__name__}: {exc}"
                records.append(Record(op, t0, None, error, workload.expected_failure(op, exc), t1 - t0))
            else:
                records.append(Record(op, t0, answer, None, False, clock() - t0))
            if speed is not None:
                speed.maybe_sample()
        if deadline is not None and clock() >= deadline:
            break
    if speed is not None:
        speed.sample()
    return records


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)[name]


def fresh_workdir(name: str) -> str:
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def summarize_checks(workload, state, records, reference):
    wrong = workload.check(state, records, reference)
    unexpected = [r for r in records if r.error is not None and not r.expected_failure]
    failed = sum(1 for r in records if r.error is not None) + len(wrong)
    for line in wrong[:20]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    for r in unexpected[:5]:
        print(f"perfbench: failed op {r.op!r:.120}: {r.error}", file=sys.stderr)
    known = sum(1 for r in records if r.expected_failure)
    if known:
        print(f"perfbench: {known} ops hit the known defect "
              f"(first: {next(r.error for r in records if r.expected_failure)[:160]})", file=sys.stderr)
    return not wrong and not unexpected, min(failed, len(records))


def measure(workload, seed: int, seconds: float, import_s: float) -> dict:
    """Set-up is timed several times before and after the timed loop, so
    that its median does not rest on the host's speed at one moment.  Every
    timing is scaled to the reference host (see hostspeed.py); the raw
    figures go to stderr."""
    import tracing

    workdir = fresh_workdir(workload.name)
    before, after = workload.setup_samples
    speed = hostspeed.HostSpeed()
    try:
        setup_raw, setup_scaled = [], []
        state = None
        for _ in range(before):
            state = None
            raw, scaled, state = time_setup(workload, seed, workdir, speed)
            setup_raw.append(raw)
            setup_scaled.append(scaled)
        tracing.assert_clean()
        rounds = workload.rounds(state, seed)
        t0 = time.perf_counter()
        records = run_ops(workload, state, rounds, deadline=t0 + seconds, speed=speed)
        elapsed = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, failed = summarize_checks(workload, state, records, load_reference(workload.name))
        raw_lat = sorted(r.seconds for r in records)
        lat = sorted(r.seconds * speed.scale(r.start, r.start + r.seconds) for r in records)
        # a larger live heap would slow the garbage collector inside the
        # samples after the loop; start them from the heap the first ones had
        state = rounds = records = None
        for _ in range(after):
            raw, scaled, _ = time_setup(workload, seed, workdir, speed)
            setup_raw.append(raw)
            setup_scaled.append(scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(lat)
    pct = tail_percentile(n, workload.tail_pct)
    print(f"perfbench: {workload.name} seed {seed}: {n} ops in {elapsed:.3f} s, "
          f"tail = p{pct:g} with {n - int(n * pct / 100.0)} samples beyond, "
          f"first import {import_s:.4f} s", file=sys.stderr)
    print(f"perfbench: raw: set-ups {[round(t, 4) for t in setup_raw]} s, "
          f"ops_per_s {n / elapsed:.4f}, op_p50_ms {percentile(raw_lat, 50.0) * 1000.0:.4f}, "
          f"op_tail_ms {percentile(raw_lat, pct) * 1000.0:.4f}; host kernel median "
          f"{speed.median_s() * 1000.0:.3f} ms over {len(speed.seconds)} samples "
          f"(reference {hostspeed.REF_S * 1000.0:g} ms)", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": n / sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1000.0,
        "op_tail_ms": percentile(lat, pct) * 1000.0,
        "ok_share": (n - failed) / n,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def measure_traced(workload, seed: int) -> dict:
    """Fixed plan, run untraced and then traced; per-layer metrics."""
    import tracing

    workdir = fresh_workdir(workload.name)
    tracer = tracing.Tracer()
    try:
        tracing.assert_clean()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        plan = list(islice(workload.rounds(state, seed), workload.trace_rounds))
        plain = run_ops(workload, state, plan)
        untraced_s = time.perf_counter() - t0
        state = None
        gc.collect()

        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.op_id = -1
            state = workload.setup(seed, workdir)
            records = run_ops(workload, state, plan, tracer=tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        correct, failed = summarize_checks(workload, state, records, load_reference(workload.name))
        if [r.error for r in plain] != [r.error for r in records]:
            correct = False
            print("perfbench: traced and untraced runs failed on different ops", file=sys.stderr)
        out_dir = os.path.join(HERE, ".out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    overhead = traced_s / untraced_s - 1.0
    print(f"perfbench: {workload.name} seed {seed} traced plan of {len(records)} ops: "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, {len(tracer.start)} spans",
          file=sys.stderr)
    units = tracing.per_layer_metric_units()
    values = tracer.metrics(overhead)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# -- modes that drive several processes -----------------------------------


def child(args: list[str]) -> dict:
    """Run one workload in a fresh interpreter and return its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, trace: int) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        res = child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)])
        ok = ok and res["correct"]
        fail_share = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_share={fail_share:.4f}")
        for metric, mv in res["metrics"].items():
            print(f"  {name}.{metric} = {mv['value']:.6g} {mv['unit']}")
    return 0 if ok else 1


def selfcheck(workloads: dict, seed: int) -> int:
    """Inputs repeat byte for byte under one seed and differ under another;
    every count metric of the traced run repeats exactly."""
    import tracing

    ok = True
    for name in WORKLOAD_NAMES:
        wl = workloads[name]
        digests = []
        for s in (seed, seed, seed + 1):
            workdir = fresh_workdir(name)
            try:
                state = wl.setup(s, workdir)
                digests.append(wl.input_digest(state, list(islice(wl.rounds(state, s), 4))))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        same, different = digests[0] == digests[1], digests[0] != digests[2]
        print(f"{name}: inputs identical under seed {seed}: {same}; differ under seed {seed + 1}: {different}")
        ok = ok and same and different
        runs = [child(["--workload", name, "--seed", str(seed), "--trace", "1"]) for _ in range(2)]
        counts = [k for k, u in tracing.per_layer_metric_units().items() if u in ("count", "bytes")]
        diff = [k for k in counts if runs[0]["metrics"][k]["value"] != runs[1]["metrics"][k]["value"]]
        print(f"{name}: {len(counts)} count metrics, differing across two traced runs: {diff or 'none'}")
        ok = ok and not diff
    return 0 if ok else 1


def write_reference(workloads: dict) -> int:
    workdir = fresh_workdir("reference")
    try:
        ref = {
            "build": workloads["build"].make_reference(),
            "query": workloads["query"].make_reference(),
            "serve": workloads["serve"].make_reference(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"wrote {REFERENCE}: " + ", ".join(f"{k} {len(v)}" for k, v in ref.items()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import_catring()
    from workloads import WORKLOADS  # imports every catring module

    import_s = time.perf_counter() - _T_START
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.selfcheck:
        return selfcheck(WORKLOADS, args.seed)
    if args.write_reference:
        return write_reference(WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(REFERENCE):
        sys.exit(f"perfbench: missing {REFERENCE}")

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = measure_traced(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds, import_s)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
