"""Tests of the benchmark itself: inputs, the independent checker, the tracer.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import ast
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import check
import layertrace
import run
import workloads

from conftest import BENCH, ROOT


def _call(argv):
    import eprenorm.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real op's outputs per workload (sweeps on a 41-point grid)."""
    workdir = tmp_path_factory.mktemp("inputs")
    result = {}
    for workload in workloads.DEVICES:
        inputs = workloads.generate(workload, 3)
        directory = str(workdir / workload)
        workloads.write_configs(inputs, directory)
        dev, config = inputs.devices[0], workloads.config_paths(inputs, directory)[0]
        argvs = workloads.static_argv(workload, dev, config)
        if workload == "sweep":
            argvs = [[*argv, "--g-points", "41"] for argv in argvs]
        texts = [_call(argv) for argv in argvs]
        if workload == "scan":
            g = float(check.parse_kv(texts[0])[1]["exact_g_khz"])
            texts.append(_call(workloads.scan_probe_argv(config, g)))
        result[workload] = (dev, texts)
    return result


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.DEVICES:
        a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
        assert a.devices == b.devices
        assert a.digest() == b.digest()
        assert workloads.generate(workload, 8).digest() != a.digest()
        workloads.write_configs(a, str(tmp_path / "a"))
        workloads.write_configs(b, str(tmp_path / "b"))
        for pa, pb in zip(workloads.config_paths(a, str(tmp_path / "a")),
                          workloads.config_paths(b, str(tmp_path / "b"))):
            assert open(pa).read() == open(pb).read()


def test_devices_stay_in_the_supported_regime():
    for workload in workloads.DEVICES:
        for seed in range(20):
            for dev in workloads.generate(workload, seed).devices:
                assert dev.freq_hz > dev.kappa_hz > dev.gamma_hz > 0
                dt, t_final = workloads.embed_grid(dev)
                assert dt <= 1.0 / (50.0 * 2.0 * math.pi * max(dev.freq_hz, dev.cutoff_hz))
                assert round(t_final / dt) == workloads.EMBED_STEPS


def test_checker_accepts_real_outputs(outputs):
    for workload, (dev, texts) in outputs.items():
        check.check_op(workload, dev, texts, workloads.SCAN_PROBE_POINTS)


def _replace_kv(text, key, factor):
    lines = []
    for line in text.splitlines():
        if line.startswith(key + " = "):
            line = f"{key} = {float(line.split(' = ')[1]) * factor!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _edit_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _set_cell(row, col, value):
    def edit(doc):
        doc["rows"][row][col] = value
    return edit


def _corruptions(outputs):
    scan_dev, (ep, probe) = outputs["scan"][0], outputs["scan"][1]
    sweep_dev, (pet, eigs) = outputs["sweep"][0], outputs["sweep"][1]
    self_dev, (spec, emb) = outputs["selfcheck"][0], outputs["selfcheck"][1]

    def k_below_one(doc):
        doc["rows"][3][1], doc["rows"][3][4] = 0.5, 0.0

    def fail_status(doc):
        doc["embedcheck"]["status"] = "FAIL"

    def order_two(doc):
        doc["embedcheck"]["order_estimate"] = 2.0

    def coop(doc):
        doc["summary"]["cooperativity"]["c_eff"] *= 1.01

    return [
        ("scan", scan_dev, [_replace_kv(ep, "exact_g_khz", 1.001), probe]),
        ("scan", scan_dev, [_replace_kv(ep, "lambda_3_re_khz", 1.01), probe]),
        ("scan", scan_dev, [ep, "\n".join(probe.splitlines()[:-1]) + "\n"]),
        ("sweep", sweep_dev, [_edit_json(pet, k_below_one), eigs]),
        ("sweep", sweep_dev, [_edit_json(pet, _set_cell(5, 2, json.loads(pet)["rows"][5][2] * 1.01)), eigs]),
        ("sweep", sweep_dev, [pet, _edit_json(eigs, _set_cell(7, 1, json.loads(eigs)["rows"][7][1] + 1.0))]),
        ("selfcheck", self_dev, [_edit_json(spec, _set_cell(10, 2, 1.5)), emb]),
        ("selfcheck", self_dev, [_edit_json(spec, _set_cell(10, 1, json.loads(spec)["rows"][10][1] * 0.99)), emb]),
        ("selfcheck", self_dev, [_edit_json(spec, coop), emb]),
        ("selfcheck", self_dev, [spec, _edit_json(emb, fail_status)]),
        ("selfcheck", self_dev, [spec, _edit_json(emb, order_two)]),
    ]


def test_checker_rejects_corrupted_outputs(outputs):
    for k, (workload, dev, texts) in enumerate(_corruptions(outputs)):
        with pytest.raises(check.CheckError):
            check.check_op(workload, dev, texts, workloads.SCAN_PROBE_POINTS)
            pytest.fail(f"corruption {k} ({workload}) was accepted")


def test_checker_shares_no_code_with_the_package():
    allowed = {"__future__", "itertools", "json", "math", "numpy", "hashlib", "os", "random",
               "dataclasses", "time"}
    for name in ("check.py", "workloads.py", "speedref.py"):
        tree = ast.parse(open(os.path.join(BENCH, name)).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            for mod in mods:
                assert mod.split(".")[0] in allowed, f"{name} imports {mod}"


def test_every_public_layer_function_is_wrapped():
    import importlib

    modules = {layer: importlib.import_module(f"eprenorm.{layer}") for layer in layertrace.LAYERS}
    importlib.import_module("eprenorm")
    originals = {id(fn): fn for mod in modules.values()
                 for fn in layertrace.public_functions(mod).values()}
    assert len(originals) > 40
    before = {(mod.__name__, attr): value for mod in layertrace.package_modules()
              for attr, value in vars(mod).items()}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for mod in layertrace.package_modules():
            for attr, value in vars(mod).items():
                leaked = originals.get(id(value)) is value
                assert not leaked, f"{mod.__name__}.{attr} still refers to the unwrapped function"
        for fn in originals.values():
            assert tracer.wrapped(fn)
        assert modules["cli"].solve_exact_ep.__wrapped__ is modules["epsolver"].solve_exact_ep.__wrapped__
        assert hasattr(modules["spectral"].cubic_roots, "__wrapped__")
        assert hasattr(modules["response"].reflection, "__wrapped__")
    finally:
        tracer.uninstall()
    for (name, attr), value in before.items():
        assert getattr(sys.modules[name], attr) is value, f"{name}.{attr} was not restored"


def test_traced_op_self_times_account_for_op_time(tmp_path):
    inputs = workloads.generate("scan", 5)
    workloads.write_configs(inputs, str(tmp_path))
    config = workloads.config_paths(inputs, str(tmp_path))[0]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for op in range(2):
            tracer.run_op(op, lambda: _call(["--config", config, "ep"]))
            tracer.fold()
    finally:
        tracer.uninstall()
    m = tracer.summary.metrics()
    layers = sum(m[f"{layer}.self_ms"] for layer in layertrace.LAYERS)
    assert layers + m["bench.self_ms"] == pytest.approx(m["trace.op_ms"], rel=1e-9)
    assert m["epsolver.solve_exact_ep.calls"] == 1
    assert m["epsolver.factors_per_solve"] > 0
    assert m["spectral.eigensystem.calls"] == 0
    assert len(tracer.kept) == sum(tracer.summary.calls.values())
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    first = json.loads(path.read_text().splitlines()[0])
    assert first[0] == layertrace.ROOT and first[3] == -1


def test_benchmark_json_matches_the_harness():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layertrace.PER_LAYER


def test_latency_tail_needs_ten_ops_beyond():
    assert run.latency_tail([float(k) for k in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.latency_tail([1.0] * 19) is None
    assert run.latency_tail([float(k) for k in range(1, 1001)])[0] == 99.0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
