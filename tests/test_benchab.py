"""tools/benchab.py's parser and summary on canned bench/run.py output, and the side specs
both A/B tools take; no bench is run."""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# benchab imports its sibling parity as a script does, from its own directory.
sys.path.insert(0, str(ROOT / "tools"))
import benchab  # noqa: E402
import parity  # noqa: E402

MACHINE = ("nproc=2 python=3.11.7 numpy=2.4.6 OMP_NUM_THREADS=unset OPENBLAS_NUM_THREADS=unset "
           "MKL_NUM_THREADS=unset BLIS_NUM_THREADS=unset EPRENORM_THREADS=unset; shared VM, only our "
           "own processes' wall clock is measured")


def _run_output(latency=0.5328531996892261, throughput=1826.6344981119407, failed=0, tail="p95"):
    """A single-workload bench/run.py stdout, as it prints one."""
    result = {"correct": failed == 0, "attempted": 792, "failed": failed, "metrics": {
        "latency_p50_ref": {"value": latency, "unit": "ref"},
        "throughput_ops_per_kref": {"value": throughput, "unit": "1/kref"},
        "setup_s": {"value": 0.29781962748952967, "unit": "s"},
        "peak_rss_mb": {"value": 40.453125, "unit": "MB"}}}
    return "\n".join([
        f"machine: {MACHINE}",
        "inputs: workload=scan seed=3 devices=64 sha256=76af17aa  why: many devices",
        f"ops: timed=792 attempted=792 failed={failed} warmup_op_s=0.00316333",
        f"tail: {tail} is the highest listed percentile with >= 10 ops beyond it (39 of 792)",
        "setup: raw_s=0.1259,0.1228,0.1457,0.1188,0.1184 scaled_s=0.2992,0.2978,0.3489,0.2881,0.2882",
        "diagnostic: error_rate = 0 ratio",
        "diagnostic: latency_p50_ms = 0.702701 ms",
        f"diagnostic: latency_{tail}_ms = 0.838414 ms",
        "diagnostic: throughput_ops_per_s = 1313.48 1/s",
        "diagnostic: ref_ms = 1.3197 ms",
        "diagnostic: setup_raw_s = 0.122762 s",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_metrics_diagnostics_and_counts():
    run = benchab.parse_run(_run_output(failed=2))
    assert run["machine"] == MACHINE
    assert (run["attempted"], run["failed"]) == (792, 2)
    assert run["metrics"] == {
        "latency_p50_ref": 0.5328531996892261,
        "throughput_ops_per_kref": 1826.6344981119407,
        "setup_s": 0.29781962748952967,
        "peak_rss_mb": 40.453125,
        "error_rate": 0.0,
        "latency_p50_ms": 0.702701,
        "latency_p95_ms": 0.838414,
        "throughput_ops_per_s": 1313.48,
        "ref_ms": 1.3197,
        "setup_raw_s": 0.122762,
    }


@pytest.mark.parametrize("text", ["", "machine: x\nbench: scan: worker timed out\n"], ids=["empty", "no_result"])
def test_parse_run_refuses_output_without_a_result(text):
    with pytest.raises(benchab.BenchABError):
        benchab.parse_run(text)


def test_summary_gives_medians_iqr_and_wins():
    """Four pairs: B is faster on latency in three and slower in one, has the higher
    throughput in three; ref_ms has no better direction, and a diagnostic that
    only some runs print (the latency tail's percentile) is left out."""
    a_lat, b_lat = [0.52, 0.53, 0.51, 0.54], [0.49, 0.50, 0.52, 0.48]
    a_thr, b_thr = [1800.0, 1810.0, 1790.0, 1820.0], [1900.0, 1805.0, 1950.0, 1990.0]
    pairs = []
    for k in range(4):
        tail = "p95" if k else "p99"
        pairs.append({
            "order": "AB" if k % 2 == 0 else "BA",
            "a": benchab.parse_run(_run_output(a_lat[k], a_thr[k])),
            "b": benchab.parse_run(_run_output(b_lat[k], b_thr[k], tail=tail)),
        })
    summary = benchab.summarize(pairs)
    lat = summary["latency_p50_ref"]
    assert lat["better"] == "lower" and lat["b_wins"] == 3 and lat["pairs"] == 4
    assert lat["a_median"] == pytest.approx(0.525) and lat["b_median"] == pytest.approx(0.495)
    # Inclusive quartiles of 0.51, 0.52, 0.53, 0.54: 0.5175 and 0.5325.
    assert lat["a_iqr"] == pytest.approx(0.015)
    thr = summary["throughput_ops_per_kref"]
    assert thr["better"] == "higher" and thr["b_wins"] == 3
    assert summary["ref_ms"]["better"] is None and summary["ref_ms"]["b_wins"] is None
    assert summary["setup_s"]["b_wins"] == 0  # equal values are no win
    assert "latency_p95_ms" not in summary and "latency_p99_ms" not in summary


def test_summary_of_one_pair_has_no_iqr():
    run = benchab.parse_run(_run_output())
    summary = benchab.summarize([{"order": "AB", "a": run, "b": run}])
    assert summary["latency_p50_ref"]["a_iqr"] is None and summary["latency_p50_ref"]["b_wins"] == 0


def test_setup_side_takes_this_checkout_as_a_source_tree(tmp_path):
    side = benchab.setup_side(str(ROOT), str(tmp_path), "a")
    root = Path(side["root"])
    assert (root / "src" / "eprenorm" / "__init__.py").is_file()
    assert (root / "bench" / "run.py").is_file()
    assert side["src_sha256"] == benchab._source_digest(str(ROOT / "src"))
    assert side["spec"] == str(ROOT)


@pytest.mark.parametrize("tool", [parity, benchab], ids=["parity", "benchab"])
@pytest.mark.parametrize("spec", ["", "no-such-tree-or-revision"], ids=["directory", "neither"])
def test_a_spec_that_is_no_tree_and_no_revision_exits_2(tool, spec, tmp_path, capsys):
    """A directory without src/eprenorm, and a name that is no directory and no
    revision, are refused by the one shared error: exit code 2, the spec named."""
    bad = os.path.join(tmp_path, spec)
    argv = [bad, str(ROOT)] + (["--label", "x", "--seed", "1", "--out", str(tmp_path)] if tool is benchab else [])
    assert tool.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad!r} is neither a directory holding src/eprenorm nor a git revision" in err
    assert not list(tmp_path.glob("BENCH_*.json"))
