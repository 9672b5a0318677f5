"""End-to-end A/B benchmark of two versions of the package through bench/run.py.

Usage, from the root of a checkout:

    python3 tools/benchab.py A B --label 47 --seed 77

A and B are each a source tree (a directory holding src/eprenorm) or a git
revision of this repository, which tools/parity.py's own code unpacks.  Each
side is set up in its own temporary root: the side's src/ and a copy of this
checkout's bench/, which the tool never edits, so both sides run the same
harness (bench/run.py imports eprenorm from the src/ beside its own
directory).  Bytecode is compiled for both roots before the first run.

The plan is fixed: 10 pairs on scan, then 5 on sweep and 5 on selfcheck.
Each pair runs ``bench/run.py --workload W --seed S --seconds 8`` once per
side, each in a fresh interpreter; the first pair runs A first, the second
B first, and so on alternating (pair k, counted from 1 as the progress
lines count it, runs A first when k is odd).  From each run it keeps the end-to-end metrics of the last
line, the "diagnostic:" lines (setup_raw_s and ref_ms among them), the
attempted and failed op counts and the machine line.

It writes BENCH_<label>.json (--out, default the checkout root) with the
machine line, both sides' specs, revisions and source digests, every pair's
raw numbers and, per workload and metric, each side's median, each side's
interquartile range (quartiles by statistics.quantiles, inclusive method;
null below two pairs) and the number of pairs B won, strictly, in the
metric's better direction (null for ref_ms, the machine's speed probe).
A = B runs one version against itself: the A/A mode, whose spread is the
noise floor of each metric on the machine.  The tool records numbers; it
does not judge them.  Exit code 0 when every run completed, 2 otherwise.
Every run lasts the same SECONDS, so every BENCH_*.json it writes compares
with every other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import parity  # tools/parity.py: python3 puts a script's own directory first on sys.path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLAN = (("scan", 10), ("sweep", 5), ("selfcheck", 5))
SECONDS = 8.0  # bench/run.py --seconds of every run
# Metrics where a larger value is better; ref_ms measures the machine, not the code.
HIGHER_IS_BETTER = ("throughput_ops_per_kref", "throughput_ops_per_s")
NO_DIRECTION = ("ref_ms",)
# bench/run.py's own budget beyond its run time: its RUN_SLACK_S plus five set-up probes of 15 s.
RUN_SLACK_S = 140.0


class BenchABError(Exception):
    """A side could not be set up or a run did not complete."""


def parse_run(text: str) -> dict:
    """The numbers of one single-workload bench/run.py stdout.

    Returns {"machine", "attempted", "failed", "metrics": {name: value}},
    metrics holding the last line's end-to-end values and every diagnostic.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise BenchABError("bench/run.py printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchABError(f"bench/run.py's last line is not its JSON result: {lines[-1]!r}") from None
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    machine = None
    for line in lines[:-1]:
        if line.startswith("machine: "):
            machine = line[len("machine: "):]
        elif line.startswith("diagnostic: "):
            name, _, rest = line[len("diagnostic: "):].partition(" = ")
            metrics[name] = float(rest.split()[0])
    return {"machine": machine, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def _iqr(values: list) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list) -> dict:
    """Per metric present in every run of pairs [{"a": run, "b": run}]: each side's
    median and IQR and the number of pairs B won in the metric's better direction."""
    names = [name for name in pairs[0]["a"]["metrics"]
             if all(name in pair[side]["metrics"] for pair in pairs for side in "ab")]
    summary = {}
    for name in names:
        a = [pair["a"]["metrics"][name] for pair in pairs]
        b = [pair["b"]["metrics"][name] for pair in pairs]
        if name in NO_DIRECTION:
            better, wins = None, None
        else:
            better = "higher" if name in HIGHER_IS_BETTER else "lower"
            wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
        summary[name] = {
            "better": better,
            "a_median": statistics.median(a),
            "b_median": statistics.median(b),
            "a_iqr": _iqr(a),
            "b_iqr": _iqr(b),
            "b_wins": wins,
            "pairs": len(pairs),
        }
    return summary


def _git(*args, cwd=ROOT):
    proc = subprocess.run(["git", "-C", cwd, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src: str) -> str:
    """sha256 over the relative paths and bytes of every .py file under src/eprenorm."""
    h = hashlib.sha256()
    package = os.path.join(src, "eprenorm")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(f"{name}\0".encode() + fh.read() + b"\0")
    return h.hexdigest()


def setup_side(spec: str, scratch: str, label: str) -> dict:
    """A root holding the side's src/ and a copy of this checkout's bench/, and its provenance."""
    root = os.path.join(scratch, label)
    ignore = shutil.ignore_patterns("__pycache__")
    tree, revision = parity._side_tree(spec, scratch, label)  # a revision's src/ is unpacked into root
    if revision is None:
        shutil.copytree(os.path.join(tree, "src"), os.path.join(root, "src"), ignore=ignore)
        revision = _git("rev-parse", "HEAD", cwd=tree)
        dirty = None if revision is None else bool(_git("status", "--porcelain", "--", "src", cwd=tree))
    else:
        dirty = False
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(root, "bench"), ignore=ignore)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=root, check=True)
    return {"spec": spec, "revision": revision, "dirty": dirty, "root": root,
            "src_sha256": _source_digest(os.path.join(root, "src"))}


def run_once(root: str, workload: str, seed: int) -> dict:
    """One bench/run.py run in a fresh interpreter under root, parsed."""
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(SECONDS)]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=SECONDS + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchABError(f"{workload} run under {root} timed out") from None
    if proc.returncode != 0:
        raise BenchABError(f"{workload} run under {root} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="source tree or git revision (the reference side)")
    parser.add_argument("b", help="source tree or git revision (the side compared to it)")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True, help="bench/run.py --seed")
    parser.add_argument("--out", default=ROOT, help="directory of the output file (default the checkout root)")
    args = parser.parse_args(argv)

    report = {"label": args.label, "seed": args.seed, "seconds": SECONDS, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="benchab-") as scratch:
        try:
            sides = {label: setup_side(spec, scratch, label) for label, spec in (("a", args.a), ("b", args.b))}
            for workload, count in PLAN:
                pairs = []
                for k in range(count):
                    order = "ab" if k % 2 == 0 else "ba"
                    runs = {side: run_once(sides[side]["root"], workload, args.seed) for side in order}
                    report["machine"] = report["machine"] or runs["a"]["machine"]
                    pairs.append({"order": order.upper(), "a": runs["a"], "b": runs["b"]})
                    a, b = runs["a"]["metrics"], runs["b"]["metrics"]
                    print(f"{workload} pair {k + 1}/{count} ({order.upper()}): latency_p50_ref "
                          f"A {a['latency_p50_ref']:.4f} B {b['latency_p50_ref']:.4f}", flush=True)
                report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
        except (BenchABError, parity.SideError) as exc:
            print(f"benchab: {exc}", file=sys.stderr)
            return 2
        report["a"], report["b"] = ({key: value for key, value in side.items() if key != "root"}
                                    for side in (sides["a"], sides["b"]))
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    for workload, block in report["workloads"].items():
        for name, s in block["summary"].items():
            iqr = "-" if s["a_iqr"] is None else f"{s['a_iqr']:.4g}"
            wins = "-" if s["b_wins"] is None else f"{s['b_wins']}/{s['pairs']}"
            print(f"{workload:10s} {name:26s} A {s['a_median']:12.6g} B {s['b_median']:12.6g} "
                  f"A iqr {iqr:>10s} B wins {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
