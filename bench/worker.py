"""One fresh interpreter running one workload in-process.

Started by run.py as ``python3 worker.py '<json spec>'``.  It imports
eprenorm.cli from the checkout's ``src``, runs one warm-up op and prints
``READY <wall-clock time>``; run.py reads set-up time off that line.  In
"setup" mode it then times the speed reference, prints ``REF <seconds>``
and stops.  In "run" mode it then runs ops back to back
(one closed-loop client, no threads) for the given seconds, checks every
op's outputs outside the timed region, and prints one JSON line of results.
With trace set, the first half of the time runs untraced and the second
half under layertrace, which gives the tracing overhead.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

import check
import speedref
import workloads

MAX_ERRORS_KEPT = 5
SETUP_REF_BUDGET_S = 0.1  # speed-reference time after a set-up probe


def import_cli(root):
    """eprenorm.cli from root/src, refusing any other installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("eprenorm.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"eprenorm was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Runs, times and checks the ops of one workload, cycling over its devices."""

    def __init__(self, spec, cli):
        self.cli = cli
        self.workload = spec["workload"]
        self.inputs = workloads.generate(self.workload, spec["seed"])
        self.configs = workloads.config_paths(self.inputs, spec["workdir"])
        self.tracer = None
        self.op_id = 0
        self.reset()

    def reset(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.out_bytes = 0

    def call(self, argv):
        """One CLI invocation with stdout and stderr captured: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()

    def op_calls(self, dev, config):
        """The op's CLI calls in order; a call that exits nonzero ends the op."""
        results = []
        for argv in workloads.static_argv(self.workload, dev, config):
            results.append(self.call(argv))
            if results[-1][0] != 0:
                return results
        if self.workload == "scan":
            g_ep = float(check.parse_kv(results[0][1])[1]["exact_g_khz"])
            results.append(self.call(workloads.scan_probe_argv(config, g_ep)))
        return results

    def run(self):
        """Run and time the next op without checking it: (seconds, device, results, error)."""
        k = self.op_id % len(self.configs)
        dev, config = self.inputs.devices[k], self.configs[k]
        results, error = None, None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                results = self.op_calls(dev, config)
            else:
                results = self.tracer.run_op(self.op_id, lambda: self.op_calls(dev, config))
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.fold()
        self.op_id += 1
        return elapsed, dev, results, error

    def account(self, dev, results, error):
        """Check one op's outputs and count it as attempted, and failed if need be."""
        if error is None:
            error = self._check(dev, results)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"op {self.op_id - 1}: {error}")
        else:
            self.out_bytes += sum(len(out.encode()) for _, out, _ in results)

    def _check(self, dev, results):
        for rc, _, err in results:
            if rc != 0:
                return f"exit code {rc}: {err.strip()}"
        try:
            check.check_op(self.workload, dev, [out for _, out, _ in results],
                           workloads.SCAN_PROBE_POINTS)
        except (check.CheckError, KeyError, ValueError, TypeError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        return None

    def loop(self, seconds, refs=None):
        """Ops back to back for the given seconds; returns each op's wall time.

        With a refs list, the speed reference is timed after each op's check
        and its median appended, one entry per op.
        """
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed, *checked = self.run()
            self.account(*checked)
            times.append(elapsed)
            if refs is not None:
                refs.append(speedref.measure(speedref.SHARE * elapsed))
        return times


def traced_loop(runner, seconds, root, seed):
    """Half the time untraced, half traced; returns the trace part of the result."""
    import layertrace

    result = {"untraced_op_s": runner.loop(seconds / 2.0)}
    ok_before, bytes_before = runner.attempted - runner.failed, runner.out_bytes
    runner.tracer = layertrace.Tracer()
    runner.tracer.install()
    try:
        result["op_s"] = runner.loop(seconds / 2.0)
    finally:
        runner.tracer.uninstall()
    result["layers"] = runner.tracer.summary.metrics()
    ok = runner.attempted - runner.failed - ok_before
    result["output_bytes_per_op"] = (runner.out_bytes - bytes_before) / max(ok, 1)
    result["trace_file"] = os.path.join(".bench_work", f"spans-{runner.workload}-{seed}.jsonl")
    runner.tracer.write(os.path.join(root, result["trace_file"]))
    return result


def main():
    spec = json.loads(sys.argv[1])
    runner = Runner(spec, import_cli(spec["root"]))
    warm, *checked = runner.run()
    print(f"READY {time.time()!r}", flush=True)
    if spec["mode"] == "setup":
        print(f"REF {speedref.measure(SETUP_REF_BUDGET_S)!r}", flush=True)
        return
    runner.account(*checked)
    result = {"warmup_s": warm, "warmup_errors": runner.errors}
    runner.reset()

    if spec["trace"]:
        result.update(traced_loop(runner, spec["seconds"], spec["root"], spec["seed"]))
    else:
        result["ref_s"] = []
        result["op_s"] = runner.loop(spec["seconds"], result["ref_s"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                  digest=runner.inputs.digest())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
