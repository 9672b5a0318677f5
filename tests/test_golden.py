"""Every subcommand's CSV and JSON artifact against the committed golden files.

The files under tests/golden/ were written once by `python3 -m eprenorm
[--json] <argv>` with SOURCE_DATE_EPOCH=1756080000 and the built-in default
configuration, for the argv in CASES.  They are never regenerated: a change
that moves a number beyond the tolerances below is a change to explain, not
to re-bless.

Everything that is not a number (manifest keys, timestamp, column names,
footer keys, status words, JSON layout) must match byte for byte.  Numbers
are compared by the name of the column or key they belong to:

- table cells and scalars: 1e-9 relative;
- Petermann factors (k_*): 1e-9 relative where the golden K < 1e4, not
  compared above it, where K diverges at the EP;
- divergence flags (div_*): exact;
- embedcheck: order_estimate and log2(order_ratio) within 0.01 absolute,
  max_rel_err at most 1e-14 (its golden value is rounding noise);
- ep: |p| and |p'| at the double root (residual_p, certificate_p_mag,
  residual_dp, certificate_dp_mag) are rounding noise; they must stay at most
  1e-12 of |lambda_ep|^3 and |lambda_ep|^2 (lambda_ep in rad/s).
"""

import json
import math
import sys
from pathlib import Path

import pytest

from eprenorm import charpoly, cli

GOLDEN = Path(__file__).parent / "golden"
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
SOURCE_DATE_EPOCH = "1756080000"

CASES = {
    "ep": ["ep"],
    "eigs": ["eigs", "--g-points", "41", "--markovian-ref"],
    "petermann": ["petermann", "--g-points", "41", "--delta-mode", "both"],
    "spectrum": ["spectrum", "--omega-points", "201"],
    "embedcheck": ["embedcheck"],
}

REL_TOL = 1e-9
K_CUTOFF = 1e4
ORDER_ATOL = 0.01
MAX_REL_ERR = 1e-14
NOISE_REL = 1e-12
NOISE_POWERS = {"residual_p": 3, "certificate_p_mag": 3, "residual_dp": 2, "certificate_dp_mag": 2}


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _csv_parts(text):
    """(skeleton, numbers) of a text artifact: its lines with every number
    masked, and the numbers as (column or key, value) pairs in order."""
    lines, numbers, columns = [], [], None
    for line in text.splitlines():
        if " = " in line:  # manifest, footer and summary lines
            key, value = line.split(" = ", 1)
            if _is_number(value):
                numbers.append((key.lstrip("# "), float(value)))
                value = "#"
            lines.append(f"{key} = {value}")
        elif line.startswith("#"):
            lines.append(line)
        elif columns is None:
            columns = line.split(",")
            lines.append(line)
        else:
            cells = line.split(",")
            numbers += [(columns[j], float(cell)) for j, cell in enumerate(cells)]
            lines.append(",".join("#" * len(cells)))
    return lines, numbers


def _json_parts(text):
    """(skeleton, numbers) of a JSON artifact: its document with every number
    (and numeric string) masked, and the numbers as (key, value) pairs."""
    numbers = []

    def mask(name, node):
        if isinstance(node, dict):
            return {key: mask(key, value) for key, value in node.items()}
        if isinstance(node, str) and _is_number(node):
            numbers.append((name, float(node)))
            return "#str"
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append((name, float(node)))
            return "#num"
        return node

    doc = json.loads(text)
    rows = doc.pop("rows", None)
    skeleton = mask(None, doc)
    if rows is not None:
        columns = doc["columns"]
        skeleton["rows"] = [[mask(columns[j], x) for j, x in enumerate(row)] for row in rows]
    return skeleton, numbers


def _agrees(name, want, got, lam):
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("div_"):
        return got == want
    if leaf.startswith("k_") and want >= K_CUTOFF:
        return True
    if leaf == "max_rel_err":
        return got <= MAX_REL_ERR
    if leaf == "order_estimate":
        return abs(got - want) <= ORDER_ATOL
    if leaf == "order_ratio":
        return abs(math.log2(got / want)) <= ORDER_ATOL
    if leaf in NOISE_POWERS:
        return 0.0 <= got <= NOISE_REL * lam ** NOISE_POWERS[leaf]
    return got == want or math.isclose(got, want, rel_tol=REL_TOL)


def _assert_matches_golden(capsys, monkeypatch, name, as_json):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    assert cli.main(["--json", *CASES[name]] if as_json else CASES[name]) == 0
    text = capsys.readouterr().out
    golden = (GOLDEN / f"{name}.{'json' if as_json else 'csv'}").read_text()

    parts = _json_parts if as_json else _csv_parts
    want_skeleton, want = parts(golden)
    got_skeleton, got = parts(text)
    assert got_skeleton == want_skeleton
    if as_json:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert [key for key, _ in got] == [key for key, _ in want]

    values = dict(want)
    lam = None
    if "lambda_ep_re_khz" in values:
        lam = 2e3 * math.pi * math.hypot(values["lambda_ep_re_khz"], values["lambda_ep_im_khz"])
    bad = [(key, w, g) for (key, w), (_, g) in zip(want, got) if not _agrees(key, w, g, lam)]
    assert not bad, bad[:10]


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_artifact_matches_golden(capsys, monkeypatch, name, as_json):
    _assert_matches_golden(capsys, monkeypatch, name, as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_golden_argv_print_the_same_bytes_through_the_shipped_config(capsys, monkeypatch, name, as_json):
    """The goldens run on the built-in defaults and read no file; each of their
    argv prints the same bytes, exit code and stderr with --config
    configs/default.ini, which holds the same values, as without it."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    argv = ["--json", *CASES[name]] if as_json else CASES[name]
    runs = []
    for config in ([], ["--config", str(SHIPPED_CONFIG)]):
        runs.append((cli.main([*config, *argv]), capsys.readouterr()))
    assert runs[0][0] == 0 and runs[0][1].out
    assert runs[1] == runs[0]


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_ep_matches_golden_without_the_companion_route(capsys, monkeypatch, as_json):
    """No EP route calls charpoly.cubic_roots, the tests' reference for
    char_cubic: ep still matches its golden with every package name bound
    to it raising."""

    def refuse(q):
        raise AssertionError("an EP route called charpoly.cubic_roots")

    original = charpoly.cubic_roots
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "eprenorm"]:
        if getattr(module, "cubic_roots", None) is original:
            monkeypatch.setattr(module, "cubic_roots", refuse)
    _assert_matches_golden(capsys, monkeypatch, "ep", as_json)
