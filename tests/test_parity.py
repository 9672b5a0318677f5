"""The compare step of tools/parity.py on in-memory artifact texts."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from test_epsolver import _OVERDAMPED_CYCLE, _OVERDAMPED_OTHER_EP
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _golden(name):
    return (ROOT / "tests" / "golden" / name).read_text()


def test_corpus_runs_the_golden_argv():
    assert parity.GOLDEN_ARGV == CASES


def test_corpus_reaches_over_damped_devices_and_the_gamma_zero_dip(tmp_path):
    """Beside the 950 resolved-sideband and edge runs, the corpus runs ep, eigs
    and petermann on the two over-damped devices that test_epsolver pins and
    on at least 20 seeded over-damped draws, and the gamma_zero edge's
    memoryless spectrum, each as CSV and as JSON."""
    assert parity.OVERDAMPED_PINNED == {"cycle": _OVERDAMPED_CYCLE, "other_ep": _OVERDAMPED_OTHER_EP}
    ids = [run["id"] for run in parity.build_corpus(str(tmp_path))]
    assert len(ids) == len(set(ids))
    devices = parity.overdamped_devices()
    assert len(devices) >= 22 and {"cycle", "other_ep"} <= devices.keys()
    assert all(30.0 <= kappa_hz / freq_hz <= 1e3 for freq_hz, kappa_hz, *_ in devices.values())
    new = {f"overdamped-{name}-{command}-{fmt}" for name in devices for command in ("ep", "eigs", "petermann")
           for fmt in ("csv", "json")}
    new |= {f"edge-gamma_zero-spectrum-markovian-only-{fmt}" for fmt in ("csv", "json")}
    assert new <= set(ids)
    assert len(set(ids) - new) == 950


@pytest.mark.parametrize("name", ["ep.csv", "ep.json", "eigs.csv", "eigs.json"])
def test_identical_texts_compare_equal(name):
    text = _golden(name)
    assert parity.compare(text, text) == []
    assert parity.compare_runs({"code": 0, "out": text, "err": ""}, {"code": 0, "out": text, "err": ""}) == []


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_last_bit_of_a_footer_key(as_json):
    """ep prints its keys at 17 digits, so the next double up is a changed text."""
    text = _golden("ep.json" if as_json else "ep.csv")
    old = json.loads(text)["ep"]["exact_g_khz"] if as_json else float(
        next(line for line in text.splitlines() if line.startswith("exact_g_khz = ")).split(" = ")[1])
    new = math.nextafter(old, math.inf)
    changed = text.replace(repr(old) if as_json else f"{old:.17g}", repr(new) if as_json else f"{new:.17g}")
    assert changed != text
    [line] = parity.compare(text, changed)
    key = "ep.exact_g_khz" if as_json else "exact_g_khz"
    assert line == f"{key}: max rel dev {(new - old) / new:.3g} (1 of 1 values)"


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_last_digit_of_a_table_cell(as_json):
    """One cell of eigs' re_l2_khz column moved by one unit in its twelfth digit."""
    csv_lines = _golden("eigs.csv").splitlines()
    header = next(i for i, line in enumerate(csv_lines) if line.startswith("g_khz,"))
    old = csv_lines[header + 3].split(",")[2]
    x = float(old)
    new = f"{x + math.copysign(10.0 ** (math.floor(math.log10(abs(x))) - 11), x):.12g}"
    assert len(new.lstrip("-").replace(".", "")) == 12 and new != old
    text = _golden("eigs.json" if as_json else "eigs.csv")
    assert text.count(old) == 1
    [line] = parity.compare(text, text.replace(old, new))
    dev = abs(float(new) - x) / max(abs(float(new)), abs(x))
    assert line == f"column re_l2_khz: max rel dev {dev:.3g} (1 of 41 values)"


def test_run_changes_name_exit_code_and_stderr():
    text = _golden("eigs.csv")
    a = {"code": 0, "out": text, "err": "old line\nkept\n"}
    b = {"code": 2, "out": text, "err": "kept\nnew line\n"}
    assert parity.compare_runs(a, b) == ["exit code 0 -> 2", "stderr - old line", "stderr + new line"]
    assert parity.compare_runs(a, {**a, "out": ""}) == ["output only in A"]
