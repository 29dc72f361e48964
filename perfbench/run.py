"""subflow benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the repository root. Set-up (imports plus building the workload's
inputs) runs in child processes and is timed; then operations run back to
back for --seconds and every output is checked. With --trace 0 the last
stdout line holds the end-to-end metrics listed in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics from a traced run. A table with
sample counts and a JSON record with the per-stage numbers and the
environment come before it. See perfbench/README.md.
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up builds per run: at least 3, and up to 7 while they take under 4 s in all,
# so the cheap set-ups (imports only) get a steadier median at little cost.
SETUP_BUILDS = (3, 7, 4.0)
# One BLAS thread: the workloads' matrices are small and the measuring box is
# a shared 2-core machine, where a second BLAS thread mostly adds jitter.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", help=argparse.SUPPRESS)  # set-up child: build inputs here
    return p.parse_args(argv)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else median_or_zero(values)


# -- environment -----------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    import ctypes

    import numpy as np
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    threads = -1
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "openblas": version, "blas_threads": threads}


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"git_sha": git_sha(), "python": platform.python_version(), **blas_info(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


# -- set-up --------------------------------------------------------------------------------


def set_up(args, work: Path, builds: tuple) -> tuple[list, list, bool]:
    """Build the inputs in fresh processes, `builds` = (min, max, seconds);
    keep the last build.

    Returns the wall time of each build, the same at the reference host
    speed the build measured, and whether all builds were byte-identical."""
    import workloads
    least, most, budget = builds
    times, calibrated = [], []
    while len(times) < least or (len(times) < most and sum(times) < budget):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                                "--seed", str(args.seed),
                                "--build", str(work / f"setup{len(times)}")],
                               check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        factor, spent = (float(x) for x in child.stdout.split()[-2:])
        times.append(time.perf_counter() - start - spent)
        calibrated.append(times[-1] * factor)
    last = work / f"setup{len(times) - 1}"
    same = True
    for k in range(len(times) - 1):
        earlier = work / f"setup{k}"
        try:
            workloads.check_same_tree(workloads.tree_bytes(last), earlier)
        except workloads.OpFailed as exc:
            print(f"set-up {k}: {exc}", file=sys.stderr)
            same = False
        shutil.rmtree(earlier)
    return times, calibrated, same


# -- the closed loop -------------------------------------------------------------------------


class Loop:
    """Issues operations one after another and keeps what they measured."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.next_op = 0
        self.samples: dict[str, list] = {}      # raw wall seconds per stage and "op"
        self.calibrated: dict[str, list] = {}   # the same at the reference host speed

    def run_op(self):
        """One operation: its raw stage times, or None when it failed."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        w = self.workload
        w.times, w.calibrated = {}, {}
        try:
            w.op(i)
        except Exception:  # the loop must go on; the failure is counted and shown
            self.failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return w.times

    def record(self) -> None:
        for into, times in ((self.samples, self.workload.times),
                            (self.calibrated, self.workload.calibrated)):
            for stage, seconds in times.items():
                into.setdefault(stage, []).append(seconds)
            into.setdefault("op", []).append(sum(times.values()))

    def block(self, size: int, trace=None):
        """`size` operations; their summed raw time, or None if any failed."""
        total = 0.0
        for _ in range(size):
            if trace is not None:
                trace.op = self.next_op     # spans of one operation share its number
            times = self.run_op()
            if times is None:
                return None
            total += sum(times.values())
        return total


def timed_run(loop: Loop, seconds: float) -> None:
    """An untimed warm-up operation if the workload has one, then operations
    until the window is used: a new one starts only if the median so far
    still fits."""
    import workloads
    with workloads.SpeedSampler() as sampler:
        loop.workload.sampler = sampler
        if loop.workload.warm_up:
            loop.run_op()
        deadline = time.perf_counter() + seconds
        while True:
            ops = loop.samples.get("op", [])
            if time.perf_counter() + median_or_zero(ops) > deadline:
                break
            if loop.run_op() is not None:
                loop.record()
    loop.workload.sampler = None


def traced_run(loop: Loop, seconds: float, tracer) -> dict:
    """Alternate untraced and traced blocks of whole input rotations."""
    size = loop.workload.cycle
    loop.run_op()
    plain, traced, pairs = [], [], []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() + statistics.median(pairs) <= deadline:
        start = time.perf_counter()
        untraced = loop.block(size)
        tracer.install()
        try:
            with_trace = loop.block(size, tracer)
        finally:
            tracer.uninstall()
        pairs.append(time.perf_counter() - start)
        if untraced is not None and with_trace is not None:
            plain.append(untraced)
            traced.append(with_trace)
    return {"ops": size * len(traced), "plain": plain, "traced": traced}


# -- reporting ---------------------------------------------------------------------------------


def stat(values: list, how: str, unit: str) -> float:
    scale = 1000.0 if unit == "ms" else 1.0
    return scale * (median_or_zero(values) if how == "p50" else p90(values))


def stage_report(loop: Loop) -> dict:
    """The workload's per-stage numbers, raw and calibrated, with sample counts."""
    out = {}
    for name, stage, how, unit in loop.workload.stages:
        raw = loop.samples.get(stage, [])
        out[name] = {"value": stat(raw, how, unit), "unit": unit, "samples": len(raw),
                     "calibrated": stat(loop.calibrated.get(stage, []), how, unit)}
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    print(f"  {'metric':44s} {'value':>14s} {'calibrated':>14s}  {'unit':8s} samples")
    for name, m in rows.items():
        cal = f"{m['calibrated']:14.6g}" if "calibrated" in m else " " * 14
        print(f"  {name:44s} {m['value']:14.6g} {cal}  {m['unit']:8s} {m.get('samples', '')}")


def end_to_end(args, spec, loop: Loop, setup_raw: list, setup_cal: list) -> tuple[dict, dict]:
    """Timed run; returns (the end-to-end metrics, the per-stage numbers)."""
    timed_run(loop, args.seconds)
    ops = loop.samples.get("op", [])
    everything = {
        "setup_s": {"value": statistics.median(setup_cal), "unit": "s",
                    "samples": len(setup_cal)},
        "setup_raw_s": {"value": statistics.median(setup_raw), "unit": "s",
                        "samples": len(setup_raw)},
        "op_cal_ms_p50": {"value": stat(loop.calibrated.get("op", []), "p50", "ms"),
                          "unit": "ms", "samples": len(ops)},
        "op_ms_p50": {"value": stat(ops, "p50", "ms"), "unit": "ms", "samples": len(ops)},
        "op_ms_p90": {"value": stat(ops, "p90", "ms"), "unit": "ms", "samples": len(ops)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "samples": 1},
        "failed_ops": {"value": loop.failed / max(loop.attempted, 1), "unit": "fraction",
                       "samples": loop.attempted},
    }
    stages = stage_report(loop)
    print_table(f"{args.workload} seed={args.seed} seconds={args.seconds:g}",
                {**everything, **stages})
    return {m["name"]: {"value": everything[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]}, stages


def per_layer(args, spec, loop: Loop, spans_path: Path) -> dict:
    """Traced run; returns the per-layer metrics and writes the spans."""
    import tracer
    from subflow import config
    trace = tracer.Tracer()
    res = traced_run(loop, args.seconds, trace)
    trace.write(spans_path)
    workload = loop.workload
    extra = {"trace.overhead_frac": (statistics.median(res["traced"])
                                     / statistics.median(res["plain"]) - 1.0)
             if res["traced"] else 0.0,
             **workload.probes()}
    values = tracer.layer_metrics([m["name"] for m in spec["per_layer"]],
                                  tracer.SpanStats(trace.spans), trace, max(res["ops"], 1),
                                  config.load_config(workload.work / "run.cfg"), extra)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print_table(f"{args.workload} seed={args.seed} traced, per operation", metrics)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "subflow" / "__init__.py").is_file():
        print(f"perfbench: no subflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    # subflow reads SUBFLOW_THREADS before its config; a caller's value would
    # switch the rasterizer to threads and skew the single-threaded calibration
    os.environ.pop("SUBFLOW_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, so only after the BLAS thread limit is set
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}', choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    if args.build:
        with workloads.SpeedSampler() as sampler:
            sampler.snapshot()      # the speed during imports, which ran before sampling
            workload.build(Path(args.build), args.seed)
            sampler.snapshot()
        print(sampler.factor(0), sampler.spent(0))   # host speed over the build
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = set_up(args, work, (1, 1, 0.0) if args.trace else SETUP_BUILDS)
        setup_same = setup[2]
        workload.start(work / f"setup{len(setup[0]) - 1}", args.seed)
        loop = Loop(workload)
        if args.trace:
            metrics, stages = per_layer(args, spec, loop, out_dir / f"{tag}-spans.jsonl"), {}
        else:
            metrics, stages = end_to_end(args, spec, loop, *setup[:2])
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "stages": stages,
                  "failed_ops": loop.failed / max(loop.attempted, 1),
                  "setup_identical": setup_same, "environment": environment()}
        print(json.dumps({"record": record}))
        result = {"correct": loop.failed == 0 and setup_same and loop.attempted > 0,
                  "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
        (out_dir / f"{tag}.json").write_text(json.dumps({**result, **record}, indent=1))
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
