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
    on at least 20 seeded over-damped draws, the gamma_zero edge's memoryless
    spectrum, the five golden argv on the fast_bath and slow_bath edges and
    eigs and petermann on a coupling grid up to about 1.7e308 rad/s, each as
    CSV and as JSON: 1,132 runs."""
    assert parity.OVERDAMPED_PINNED == {"cycle": _OVERDAMPED_CYCLE, "other_ep": _OVERDAMPED_OTHER_EP}
    ids = [run["id"] for run in parity.build_corpus(str(tmp_path))]
    assert len(ids) == len(set(ids))
    devices = parity.overdamped_devices()
    assert len(devices) >= 22 and {"cycle", "other_ep"} <= devices.keys()
    assert all(30.0 <= kappa_hz / freq_hz <= 1e3 for freq_hz, kappa_hz, *_ in devices.values())
    new = {f"overdamped-{name}-{command}-{fmt}" for name in devices for command in ("ep", "eigs", "petermann")
           for fmt in ("csv", "json")}
    new |= {f"edge-gamma_zero-spectrum-markovian-only-{fmt}" for fmt in ("csv", "json")}
    new |= {f"edge-{edge}-{name}-{fmt}" for edge in ("fast_bath", "slow_bath") for name in CASES
            for fmt in ("csv", "json")}
    new |= {f"top-of-range-{command}-{fmt}" for command in ("eigs", "petermann") for fmt in ("csv", "json")}
    assert new <= set(ids)
    assert len(set(ids) - new) == 950
    assert len(ids) == 1132


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


def _swap_branches(cells, branches):
    """cells with the values of the two branches' columns exchanged, per pair of column indices."""
    cells = list(cells)
    for i, j in branches:
        cells[i], cells[j] = cells[j], cells[i]
    return cells


def test_exchanged_branch_labels_are_counted_per_column_family():
    """Rows whose branches appear in another order count under their column
    family; every other difference is still reported per column, after the
    exchanged rows are put back in A's order."""
    lines = _golden("eigs.csv").splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("g_khz,"))
    columns = lines[header].split(",")
    index = {name: columns.index(name) for name in columns}
    three = [(index["re_l1_khz"], index["re_l2_khz"]), (index["im_l1_khz"], index["im_l2_khz"])]
    two = [(index["mk_re_l1_khz"], index["mk_re_l2_khz"]), (index["mk_im_l1_khz"], index["mk_im_l2_khz"])]
    changed = list(lines)
    for row in range(header + 11, header + 42):
        changed[row] = ",".join(_swap_branches(changed[row].split(","), three + (two if row > header + 30 else [])))
    cells = changed[header + 1].split(",")
    old = cells[index["re_l3_khz"]]
    cells[index["re_l3_khz"]] = f"{float(old) * (1 + 1e-11):.12g}"
    changed[header + 1] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    report = parity.compare(text, "\n".join(changed) + "\n")
    dev = parity._deviation(old, cells[index["re_l3_khz"]])
    assert report == [
        "column re_l3_khz: max rel dev %.3g (1 of 41 values)" % dev,
        "columns mk_re_l*/mk_im_l*: labels exchanged in 11 of 41 rows",
        "columns re_l*/im_l*: labels exchanged in 31 of 41 rows",
    ]


def test_exchanged_petermann_labels_carry_their_flags():
    """A petermann row counts as exchanged only when each branch's K and
    divergent flag move together; a K exchanged without its flag is a
    difference of the K columns."""
    doc = json.loads(_golden("petermann.json"))
    columns = doc["columns"]
    k_pair = (columns.index("k_plus_exact"), columns.index("k_3_exact"))
    div_pair = (columns.index("div_plus_exact"), columns.index("div_3_exact"))
    for row in range(5):  # the plus branch flagged, the third not: flags that tell the two apart
        doc["rows"][row][div_pair[0]] = 1.0
    exchanged, k_only = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    for row in range(5):
        exchanged["rows"][row] = _swap_branches(exchanged["rows"][row], [k_pair, div_pair])
        k_only["rows"][row] = _swap_branches(k_only["rows"][row], [k_pair])
    exchanged["rows"][10][div_pair[1]] = 1.0
    text = json.dumps(doc)
    assert parity.compare(text, json.dumps(exchanged)) == [
        "column div_3_exact: max rel dev 1 (1 of 41 values)",
        "columns k_*_exact/div_*_exact: labels exchanged in 5 of 41 rows",
    ]
    report = parity.compare(text, json.dumps(k_only))
    assert [line.split(":")[0] for line in report] == ["column k_3_exact", "column k_plus_exact"]
