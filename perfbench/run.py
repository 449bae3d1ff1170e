"""cylcavity benchmark: one workload, one seed, one timed closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is the result object; the line before it is the
run record (also written to perfbench/out/).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 11
HELD_OUT_SEED = 72_931_604     # never run while the benchmark was sized
TAIL_BEYOND = 10               # samples a tail percentile must leave above it
FAILURES_KEPT = 10


def ensure_package():
    """Import cylcavity from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cylcavity" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'cylcavity'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import cylcavity
    if Path(cylcavity.__file__).resolve().parent != (src / "cylcavity").resolve():
        raise SystemExit(f"perfbench: cylcavity imported from {cylcavity.__file__}, not {src}")
    return cylcavity


# ------------------------------------------------------------- statistics

def tail(samples):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least TAIL_BEYOND samples above it, by nearest rank.

    Below 2 * TAIL_BEYOND samples no percentile at or above the median
    qualifies; the median is reported and the record says so.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 50, statistics.median(xs), n - math.ceil(n / 2)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU.

    On a shared virtual machine each virtual CPU has its own slow phases,
    so the reference kernel only predicts the speed of a step that runs on
    the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ------------------------------------------------------------- run record

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout is not a git repository)"


def _cpu():
    model, caches = platform.processor() or "unknown", {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return model, caches


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model, caches = _cpu()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }


# ------------------------------------------------------------------ setup

def setup_probe(args) -> None:
    """Child side of a setup measurement: set up, then print the time."""
    ensure_package()
    import workloads

    workload = workloads.make(args.workload, args.seed, Path(args.setup_probe), ROOT)
    workload.setup()
    print(repr(time.perf_counter()))


def measure_setup(args, workloads) -> float:
    """Launch one fresh interpreter that sets up and reports when its first
    op could start; return that time.  perf_counter is system-wide."""
    work = OUT / f"probe-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    out, err = work / "probe.out", work / "probe.err"
    argv = [Path(__file__), "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", 0, "--setup-probe", work]
    launched = time.perf_counter()
    code, _ = workloads.spawn(argv, out, err)
    if code != 0:
        raise RuntimeError(f"setup probe failed ({code}): {err.read_text()[-2000:]}")
    ready = float(out.read_text().split()[-1])
    shutil.rmtree(work)
    return ready - launched


# ------------------------------------------------------------------- loop

def run_loop(args, workload, tracer, between=None):
    """Closed loop, one client: the next op starts when one has finished.

    Each step of an op is timed on its own, with the reference kernel
    timed just before it (outside the step).  An op's time is the sum of
    its steps; its ratio is the sum of step time / reference.  With a
    tracer, odd ops are traced and even ops are not, so the two medians
    give the tracing overhead from the same inputs and moment.  `between`
    is called after each op; its time does not count against --seconds.
    Returns {traced: [(op s, op ratio, {step: s})]}, attempted, failures.
    """
    samples = {False: [], True: []}
    failures = []
    attempted = 0
    at_least = 1 if tracer is None else 2      # a traced run needs both kinds
    deadline = time.perf_counter() + args.seconds
    while attempted < at_least or time.perf_counter() < deadline:
        i = attempted
        attempted += 1
        inp = workload.inputs(i)
        traced = tracer is not None and i % 2 == 1
        child = ChildSpans(workload.workdir, i) if traced else None
        result, steps = workload.steps(inp, child.prefix if child else None)
        if traced:
            root = tracer.begin_op(i)
            tracer.install()
        op_s = op_ratio = 0.0
        step_s = {}
        try:
            for step in steps:
                ref = workload.reference_s()
                t0 = time.perf_counter()
                step()
                elapsed = time.perf_counter() - t0
                op_s += elapsed
                op_ratio += elapsed / ref
                step_s[step.__name__] = elapsed
            workload_error = None
        except Exception:                       # the op failed; keep measuring
            workload_error = traceback.format_exc(limit=3)[-1500:]
        if traced:
            tracer.uninstall()
            tracer.end_op(failed=workload_error is not None)
            child.merge(tracer, root)
        if workload_error is None:
            try:
                workload.check(inp, result)
                if traced:
                    workload.count_output(result)
            except Exception:                   # gate exceeded or output unreadable
                workload_error = traceback.format_exc(limit=3)[-1500:]
        if workload_error is None:
            samples[traced].append((op_s, op_ratio, step_s))
        else:
            failures.append({"op": i, "error": workload_error})
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
    return samples, attempted, failures


class ChildSpans:
    """Traced cli-cold sessions: each CLI child runs under cli_child.py and
    leaves its spans in a file, merged into the parent's op afterwards."""

    def __init__(self, workdir: Path, op: int):
        self.files = []
        self.workdir = workdir
        self.op = op

    def prefix(self, cmd: str) -> list:
        path = self.workdir / f"spans-{self.op}-{cmd}.json"
        self.files.append(path)
        return [Path(__file__).with_name("cli_child.py"), path]

    def merge(self, tracer, root: int) -> None:
        for path in self.files:
            if path.is_file():
                data = json.loads(path.read_text())
                tracer.add_spans(root, data["names"], data["spans"])
                for key, value in data["counters"].items():
                    tracer.counters[key] += value
                tracer.unobserved = sorted(set(tracer.unobserved) | set(data["unobserved"]))
                path.unlink()


# ---------------------------------------------------------------- metrics

def end_to_end(samples, setup_times, peak_rss_mb):
    """Op metrics are reference ratios; the raw seconds go to the record."""
    seconds = [s[0] for s in samples]
    ratios = [s[1] for s in samples]
    p, tail_ratio, beyond = tail(ratios)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "op_ref.p50": {"value": statistics.median(ratios), "unit": "ref"},
        "op_ref.tail": {"value": tail_ratio, "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    record = {
        "samples": {"setup_s": len(setup_times), "op": len(samples), "tail": {
            "percentile": p, "samples_beyond": beyond,
            "limited_by_sample_count": beyond < TAIL_BEYOND}},
        "op_s.p50": statistics.median(seconds),
        "op_s.tail": tail(seconds)[1],
        "step_s.p50": {name: statistics.median(s[2][name] for s in samples)
                       for name in samples[0][2]},
        "setup_s_samples": setup_times,
        "op_s_samples": seconds,
        "op_ref_samples": ratios,
    }
    return metrics, record


DESIGNED_LEAD = {
    "certify": ("verify",),
    "fields": ("bessel", "modefield"),
    "cli-cold": ("bessel", "spectrum", "cli"),
}


def per_layer(args, tracer, workload, samples):
    from tracer import LAYERS, METRIC_UNITS

    n = len(samples[True])
    totals = tracer.layer_totals()
    totals["cli.bytes_out"] = workload.out_bytes
    totals["cli.rows_out"] = workload.out_rows
    values = {key: totals.get(key, 0.0) / n for key in METRIC_UNITS if key != "trace.overhead_s"}
    pair_s = totals.get("verify.pair_s", 0.0)
    values["verify.pair_nodes_per_s"] = totals.get("verify.pair_nodes", 0.0) / pair_s if pair_s else 0.0
    syn_s = totals.get("synthesis.self_s", 0.0)
    values["synthesis.mode_points_per_s"] = (
        totals.get("synthesis.mode_points", 0.0) / syn_s if syn_s else 0.0)
    # the ratio medians, converted back to seconds at this run's mean rate
    ratio = {k: statistics.median(s[1] for s in v) for k, v in samples.items()}
    seconds_per_ref = sum(s[0] for v in samples.values() for s in v) / sum(
        s[1] for v in samples.values() for s in v)
    values["trace.overhead_s"] = (ratio[True] - ratio[False]) * seconds_per_ref
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in METRIC_UNITS.items()}

    self_s = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    lead = DESIGNED_LEAD[args.workload]
    lead_s = sum(self_s[layer] for layer in lead)
    others = {layer: s for layer, s in self_s.items() if layer not in lead}
    wall = totals.get("bench.wall_s", 0.0) / n
    bench = totals.get("bench.self_s", 0.0) / n
    split = {
        "layer_self_s_per_op": self_s,
        "bench_self_s_per_op": bench,
        "op_wall_s_per_op": wall,
        "accounted_share": (sum(self_s.values()) + bench) / wall if wall else 0.0,
        "designed_lead": list(lead),
        "designed_lead_share_of_layers": lead_s / sum(self_s.values()) if any(self_s.values()) else 0.0,
        "designed_split_holds": lead_s > max(others.values()),
        "traced_ops": n,
        "untraced_ops": len(samples[False]),
        "unobserved_public_names": tracer.unobserved,
    }
    return metrics, split


# ------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "fields", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    cpu = pin_to_one_cpu()
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    ensure_package()
    import workloads
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
              "seconds": args.seconds, "trace": args.trace, "pinned_cpu": cpu,
              **machine_record()}
    setup_times = []

    def probe_setup():
        # spread over the run, so that the probes see the CPU's slow and
        # fast phases in about the proportion the ops do
        if not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args, workloads))

    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.make(args.workload, args.seed, workdir, ROOT)
    t0 = time.perf_counter()
    workload.setup()
    record["in_process_setup_s"] = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    try:
        samples, attempted, failures = run_loop(args, workload, tracer, probe_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for _ in range(SETUP_PROBES):
        probe_setup()

    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "accuracy": workload.accuracy,
        "failures": failures[:FAILURES_KEPT],
    })
    timed = all(samples.values()) if args.trace else bool(samples[False])
    if not timed:
        print(json.dumps({"record": record}))
        raise SystemExit("perfbench: no op succeeded, so there is no time to report")
    if args.trace:
        metrics, record["layer_split"] = per_layer(args, tracer, workload, samples)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.csv")
    else:
        metrics, extra = end_to_end(samples[False], setup_times,
                                    workload.peak_rss_kib() / 1024.0)
        record.update(extra)
    record["metrics"] = metrics
    (OUT / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
