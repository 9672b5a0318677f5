"""Benchmark of the eprenorm CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): scan, sweep, selfcheck; "all" runs each in
turn and prints one table instead of the single-workload JSON line.

Each run generates its inputs from the seed (INI files under .bench_work/),
then starts a fresh worker interpreter (worker.py) that imports
``eprenorm.cli`` from ``src/`` and drives ``cli.main(argv)`` in-process, one
op after another, for --seconds.  Every op's outputs are checked by
check.py, which shares no code with the package.  Set-up time is the median
over SETUP_PROBES further fresh interpreters, each timed from spawn until
its warm-up op is done.

With --trace 0 the last line reports, per op of the workload:

- latency_p50_ref: median op wall time in "ref" units, where one ref is the
  time of speedref.kernel measured right after that op (speedref.py says
  why raw wall time is not gated);
- throughput_ops_per_kref: ops completed per 1000 refs of op time;
- setup_s: median time for a fresh interpreter to import eprenorm.cli and
  finish one warm-up op, in seconds at nominal reference speed: each
  probe's wall time times REF_NOMINAL_S over the reference time measured in
  that probe right after (the raw median is printed as setup_raw_s);
- peak_rss_mb: peak resident memory of the workload process.

The lines before it give error_rate, the raw wall-clock latency_p50_ms,
the latency tail (highest listed percentile with at least ten ops beyond it,
named with its percentile), throughput_ops_per_s and the reference time.
With --trace 1 it reports the per-layer metrics of layertrace.py
(layertrace.PER_LAYER) and writes the spans under .bench_work/.

Limits: the machine is shared with other tenants and only the wall clock of
our own processes is measured; nothing pins CPUs or frequency.  Workers run
with EPRENORM_THREADS unset (one thread) and the BLAS thread variables as
inherited, both recorded on the "machine:" line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Seconds per ref at nominal speed: about speedref.kernel's time on a 2-vCPU Xeon VM.
REF_NOMINAL_S = 0.003
PROBE_TIMEOUT_S = 15.0
RUN_SLACK_S = 60.0
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = [
    ("latency_p50_ref", "ref"),
    ("throughput_ops_per_kref", "1/kref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env.pop("EPRENORM_THREADS", None)
    # Let imports use cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["SOURCE_DATE_EPOCH"] = "0"  # fixed manifest timestamps, so output bytes repeat
    return env


def start_worker(spec, timeout):
    """Run worker.py to completion: (spawn wall time, stdout lines)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    t_spawn = time.time()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['mode']} worker timed out after {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"{spec['mode']} worker exited with code {proc.returncode}")
    return t_spawn, lines


def setup_seconds(t_spawn, lines):
    """(raw set-up seconds, the same scaled to the nominal reference speed)."""
    raw = float(lines[0].split()[1]) - t_spawn
    return raw, raw * REF_NOMINAL_S / float(lines[1].split()[1])


def latency_tail(op_s):
    """Highest listed percentile with at least TAIL_MIN_BEYOND ops beyond it (nearest rank)."""
    ranked = sorted(op_s)
    n = len(ranked)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return q, ranked[rank - 1], n - rank
    return None


def run_workload(workload, seed, seconds, trace):
    """Run one workload: (result dict, info lines, {diagnostic: (value, unit)})."""
    inputs = workloads.generate(workload, seed)
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    workloads.write_configs(inputs, workdir)
    spec = {"root": ROOT, "workdir": workdir, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "mode": "run"}
    try:
        _, lines = start_worker(spec, seconds + RUN_SLACK_S)
        res = json.loads(lines[-1])
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(setup_seconds(*start_worker({**spec, "mode": "setup"}, PROBE_TIMEOUT_S)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = res["op_s"]
    attempted, failed = res["attempted"], res["failed"]
    info = [
        f"inputs: workload={workload} seed={seed} devices={len(inputs.devices)} "
        f"sha256={res['digest']}  why: {workloads.WHY[workload]}",
        f"ops: timed={len(op_s)} attempted={attempted} failed={failed} warmup_op_s={res['warmup_s']:.6g}",
    ]
    info += [f"error: warm-up: {e}" for e in res["warmup_errors"]]
    info += [f"error: {e}" for e in res["errors"]]
    diagnostics = {"error_rate": (failed / max(attempted, 1), "ratio")}
    if trace:
        untraced = res["untraced_op_s"]
        metrics = dict(res["layers"])
        metrics["cli.output_bytes"] = res["output_bytes_per_op"]
        metrics["trace.overhead"] = (len(untraced) / sum(untraced)) / (len(op_s) / sum(op_s)) - 1.0
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
        info.append(f"trace: untraced_ops={len(untraced)} traced_ops={len(op_s)} spans={res['trace_file']}")
    else:
        rel = [op / ref for op, ref in zip(op_s, res["ref_s"])]
        metrics = {
            "latency_p50_ref": statistics.median(rel),
            "throughput_ops_per_kref": 1e3 * len(rel) / sum(rel),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        units = dict(END_TO_END)
        diagnostics["latency_p50_ms"] = (1e3 * statistics.median(op_s), "ms")
        tail = latency_tail(op_s)
        if tail is not None:
            diagnostics[f"latency_p{tail[0]:g}_ms"] = (1e3 * tail[1], "ms")
            info.append(f"tail: p{tail[0]:g} is the highest listed percentile with "
                        f">= {TAIL_MIN_BEYOND} ops beyond it ({tail[2]} of {len(op_s)})")
        else:
            info.append(f"tail: none, fewer than {2 * TAIL_MIN_BEYOND} timed ops")
        diagnostics["throughput_ops_per_s"] = (len(op_s) / sum(op_s), "1/s")
        diagnostics["ref_ms"] = (1e3 * statistics.median(res["ref_s"]), "ms")
        diagnostics["setup_raw_s"] = (statistics.median(raw for raw, _ in setups), "s")
        info.append("setup: raw_s=" + ",".join(f"{raw:.4f}" for raw, _ in setups)
                    + " scaled_s=" + ",".join(f"{scaled:.4f}" for _, scaled in setups))
    result = {
        "correct": failed == 0 and not res["warmup_errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, info, diagnostics


def machine_line():
    blas = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    numpy = importlib.metadata.version("numpy")
    return (f"machine: nproc={cpus} python={platform.python_version()} numpy={numpy} {blas} "
            "EPRENORM_THREADS=unset; shared VM, only our own processes' wall clock is measured")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.DEVICES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "eprenorm", "cli.py")):
        print(f"bench: no eprenorm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(machine_line(), flush=True)
    names = list(workloads.DEVICES) if args.workload == "all" else [args.workload]
    all_correct = True
    for workload in names:
        try:
            result, info, diagnostics = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(info), flush=True)
        all_correct &= result["correct"]
        rows = [(name, m["value"], m["unit"], "") for name, m in result["metrics"].items()]
        rows += [(name, value, unit, "diagnostic") for name, (value, unit) in diagnostics.items()]
        if args.workload == "all":
            for name, value, unit, note in rows:
                print(f"{workload:10s} {name:45s} {value:14.6g} {unit:8s} {note}")
        else:
            for name, value, unit, _ in rows[len(result["metrics"]):]:
                print(f"diagnostic: {name} = {value:.6g} {unit}")
            print(json.dumps(result), flush=True)
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
