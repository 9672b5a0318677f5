"""The CLI's one emitter against a plain json.dumps / format reference, reuse
of the parser across main() calls in one process, and main()'s reading of
plain argv off the parser's own tables against parse_args."""

import argparse
import contextlib
import io
import itertools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprenorm import cli
from test_parity import parity

EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 40.0, 1e-7, 2.5e15, 1e16, -1.0 / 3.0, 1.0]


def _manifest(out_path):
    return {
        "command": "eigs",
        "params_hz": {"mechanics.freq_hz": 1.0e6, "cavity.kappa_hz": 2.0e5},
        "grid": {"g_points": 3, "delta_mode": 'value:"x"\\'},
        "out": out_path,
        "version": "0.0",
        "timestamp": "2025-08-25T00:00:00Z",
    }


def _reference(manifest, columns, data, footer, summary, as_json):
    """The artifact built cell by cell with the standard library only."""
    if as_json:
        doc = {"manifest": manifest, **summary}
        if columns is not None:
            cells = [[float(format(float(x), ".12g")) for x in row] for row in data]
            doc["columns"] = columns
            doc["rows"] = [[x if math.isfinite(x) else None for x in row] for row in cells]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [
        "# eprenorm manifest",
        f"# version = {manifest['version']}",
        f"# command = {manifest['command']}",
        f"# timestamp = {manifest['timestamp']}",
        f"# out = {manifest['out'] or '-'}",
    ]
    params = sorted(manifest["params_hz"].items())
    lines += [f"# {key} = {format(value, '.12g')}" for key, value in params]
    lines += [f"# grid.{key} = {value}" for key, value in sorted(manifest["grid"].items())]
    if columns is not None:
        lines.append(",".join(columns))
        lines += [",".join(format(float(x), ".12g") for x in row) for row in data]
    return "\n".join(lines + list(footer)) + "\n"


def _emitted(tmp_path, capsys, out_name, as_json, columns, data, footer, summary):
    out = None if out_name is None else str(tmp_path / out_name)
    args = argparse.Namespace(json=as_json, out=out, quiet=False)
    manifest = _manifest(out)
    cli._emit(args, manifest, cli.Table({}, columns, data, footer, summary))
    text = capsys.readouterr().out if out is None else (tmp_path / out_name).read_text()
    return text, _reference(manifest, columns, data, footer, summary, as_json)


def _assert_same_text(text, reference):
    """text == reference, failing with the first line that differs instead of
    a diff of two whole artifacts, which pytest takes minutes to build."""
    lines, want = text.splitlines(keepends=True), reference.splitlines(keepends=True)
    if lines != want:
        k = next((k for k, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), min(len(lines), len(want)))
        pytest.fail(f"line {k + 1} of {len(lines)} (reference {len(want)}): "
                    f"{lines[k:k + 1]!r} != {want[k:k + 1]!r}")


TABLES = {
    "edge_values": np.array(EDGE_VALUES)[:, None] * np.array([1.0, -1.0, 1e-3]),
    "one_row": np.array([EDGE_VALUES]),
    "one_cell": np.array([[2.5e15]]),
    "empty": np.zeros((0, 3)),
    "random": np.random.default_rng(7).standard_normal((50, 4)) * 10.0 ** np.arange(-6, 14, 5),
}


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
@pytest.mark.parametrize("out_name", [None, 'we"ird\\ "rows": 0.out'], ids=["stdout", "odd_path"])
@pytest.mark.parametrize("name", list(TABLES))
def test_emitter_table_matches_reference(tmp_path, capsys, name, out_name, as_json):
    data = TABLES[name]
    columns = [f"col_{j}" for j in range(data.shape[1])]
    footer = ["# dip.markovian.r_sq_min = 0.5"]
    # "summary" sorts after "rows", "alpha" before everything else.
    summary = {"summary": {"b": math.pi, "a": {"x": 1e16}}, "alpha": [1, "rows", None]}
    text, reference = _emitted(tmp_path, capsys, out_name, as_json, columns, data, footer, summary)
    _assert_same_text(text, reference)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
def test_emitter_report_without_table(tmp_path, capsys, as_json):
    footer = ["residual_p = 1.0000000000000001e-30", "status = PASS"]
    summary = {"ep": {"residual_p": 1e-30, "exact_g_khz": 49.37501085439698, "status": "PASS"}}
    text, reference = _emitted(tmp_path, capsys, None, as_json, None, None, footer, summary)
    _assert_same_text(text, reference)


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON does not define."""

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_emitter_writes_non_finite_summary_values_as_null(tmp_path, capsys):
    """Every non-finite float of a JSON document is null, at any depth of
    nested dicts; text output still prints them as nan and inf."""
    footer = ["max_rel_err = nan", "order_estimate = inf"]
    summary = {
        "embedcheck": {"max_rel_err": math.nan, "order_estimate": math.inf, "order_ratio": -math.inf,
                       "kernel_fourier_err": 1e-5, "status": "FAIL"},
        "ep": {"residual_p": np.float64(math.nan), "nested": {"x": -math.inf, "y": 2.0}},
    }
    text, _ = _emitted(tmp_path, capsys, None, True, None, None, footer, summary)
    doc = _strict_json(text)
    assert doc["embedcheck"] == {"max_rel_err": None, "order_estimate": None, "order_ratio": None,
                                 "kernel_fourier_err": 1e-5, "status": "FAIL"}
    assert doc["ep"] == {"residual_p": None, "nested": {"x": None, "y": 2.0}}
    text, reference = _emitted(tmp_path, capsys, None, False, None, None, footer, summary)
    _assert_same_text(text, reference)
    assert text.endswith("max_rel_err = nan\norder_estimate = inf\n")


def test_emitter_cells_are_twelve_digit_text(tmp_path, capsys):
    data = TABLES["edge_values"]
    text, _ = _emitted(tmp_path, capsys, None, False, ["a", "b", "c"], data, (), {})
    rows = [line.split(",") for line in text.splitlines()[-len(data):]]
    assert rows == [[format(float(x), ".12g") for x in row] for row in data]
    assert rows[0][0] == "nan" and rows[3][0] == "-0" and rows[5][0] == "40"
    assert rows[8][0] == "1e+16" and rows[7][0] == "2.5e+15"


def _adversarial_cells():
    """Values whose ".12g" texts take every branch of the JSON cell layout.

    Random magnitudes from subnormal to near overflow, integers up to 1e15,
    signed zeros and non-finite values, every power of ten, and the
    neighbours (nextafter and ".12g" rounding) of each point where ".12g"
    or repr changes notation or a double turns subnormal.  The count is a
    multiple of 1 * 3 * 13, so every width tested divides it.
    """
    rng = np.random.default_rng(14)
    n = 15_000
    anchors = [1e-5, 1e-4, *(10.0 ** np.arange(11, 18)), 1e-307, 1e-308]
    near = []
    for anchor in anchors:
        # x * (1 - 5e-13) is where ".12g" rounds up to the anchor's text.
        for x in (anchor, anchor * (1.0 - 5e-13)):
            for toward in (0.0, math.inf):
                step = x
                for _ in range(3):
                    step = np.nextafter(step, toward)
                    near.append(step)
            near.append(x)
    values = np.concatenate([
        10.0 ** rng.uniform(-320.0, 308.0, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(-(10**15), 10**15, n, endpoint=True).astype(float),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324],
        10.0 ** np.arange(-323.0, 309.0),
        near,
        np.negative(near),
    ])
    rng.shuffle(values)
    return values[: len(values) // 39 * 39]


def _flag_and_near_integer_columns():
    """Flag, whole-number and near-integer columns, by name.

    Flag columns hold only +0.0 and 1.0; the "flag_with_*" columns are flags
    but for row 0, which holds -0.0, nan or 2.0.  The near-integer column
    holds n (1 + k 1e-12) for |k| <= 20, which ".12g" prints as n for
    |k| < 5 and which JSON prints as n.0 only then (n = 1, 40 and 1e11),
    and the neighbours a few ulps away of those n, of 1e-4 (where ".12g"
    leaves e-notation), of 5e10 + 0.5 and of 1e12 - 0.5 (where ".12g" turns
    to e-notation), each with both signs.
    """
    near = []
    for n in (1.0, 40.0, 1e11):
        near += [n * (1.0 + k * 1e-12) for k in range(-20, 21)]
    for n in (1.0, 40.0, 1e11, 1e-4, 5e10 + 0.5, 1e12 - 0.5):
        near.append(n)
        for toward in (0.0, math.inf):
            step = n
            for _ in range(3):
                step = np.nextafter(step, toward)
                near.append(step)
    near = np.array(near + [-x for x in near])
    rng = np.random.default_rng(26)
    rows = len(near)
    flag = rng.integers(0, 2, rows).astype(float)
    flag[:2] = [0.0, 1.0]
    columns = {
        "flag": flag,
        "zeros": np.zeros(rows),
        "ones": np.ones(rows),
        "near_integer": near,
        "fractions": rng.uniform(-1e3, 1e3, rows),
    }
    for name, odd in (("negative_zero", -0.0), ("nan", math.nan), ("two", 2.0)):
        columns[f"flag_with_{name}"] = np.concatenate([[odd], flag[1:]])
    return columns


def _flag_and_near_integer_tables(width):
    """For each rotation of the columns: the width-wide table, its rows 0 and 1
    as (1, width) tables, and the (0, width) table."""
    columns = list(_flag_and_near_integer_columns().values())
    for offset in range(len(columns)):
        table = np.column_stack([columns[(offset + j) % len(columns)] for j in range(width)])
        yield from (table, table[:1], table[1:2])
    yield np.zeros((0, width))


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
@pytest.mark.parametrize("width", [1, 3, 13])
def test_emitter_adversarial_cells_match_reference(tmp_path, capsys, width, as_json):
    """JSON cells laid out from their ".12g" texts equal json.dumps of float()
    of those texts, and CSV cells equal format(x, ".12g"), byte for byte, for
    the adversarial cells and the flag and near-integer tables."""
    columns = [f"col_{j}" for j in range(width)]
    for data in [_adversarial_cells().reshape(-1, width), *_flag_and_near_integer_tables(width)]:
        text, reference = _emitted(tmp_path, capsys, None, as_json, columns, data, (), {})
        _assert_same_text(text, reference)


def _digit_pass_cells():
    """Cells for the digit pass's fixed-notation route and its rare cells.

    - 50,000 random float64 bit patterns over every binade, subnormals and
      nan payloads included, and 50,000 over the binades of 1e-4 <= |x| <
      1e11;
    - per decade from 1e-4 to 1e11, cells at y = n + 0.5 of the pass's
      12-digit mantissa y = |x| 10**(11 - e), and 1 to 3 ulps either side;
    - exact decimal ties there, q / 2**(k + 1) for odd q, where ".12g"
      rounds half to even;
    - 10**k and its neighbours either way, for k = -5 ... 12;
    - +-0, +-inf and nan, whole numbers, and the flag and near-integer
      columns.
    Every cell comes with both signs.
    """
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64)
    # The binades 2**-14 to 2**36, which span 1e-4 <= |x| < 1e11.
    fixed_bits = rng.integers(0, 2**52, 50_000, dtype=np.uint64)
    fixed_bits |= rng.integers(1023 - 14, 1023 + 37, 50_000).astype(np.uint64) << np.uint64(52)
    fixed = fixed_bits.view(np.float64)
    cells = [bits.view(np.float64), fixed[(np.abs(fixed) >= 1e-4) & (np.abs(fixed) < 1e11)]]
    for e in range(-4, 11):
        k = 11 - e
        ties = (rng.integers(10**11, 10**12, 40) + 0.5) / 10.0**k
        odd = rng.integers(2 * 10**11 // 5**k, 2 * 10**12 // 5**k, 40) | 1
        exact_ties = odd.astype(float) / 2.0 ** (k + 1)
        cells += [ties, exact_ties]
        for toward in (0.0, math.inf):
            step = ties
            for _ in range(3):
                step = np.nextafter(step, toward)
                cells.append(step)
    for k in range(-5, 13):
        power = 10.0**k
        cells.append([power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)])
    cells += [
        [0.0, math.inf, math.nan, 1.0, 40.0, 1e10, 99999999999.0],
        rng.integers(-(10**12), 10**12, 5_000).astype(float),
        rng.integers(-1000, 1000, 5_000).astype(float),
        *_flag_and_near_integer_columns().values(),
    ]
    values = np.concatenate([np.ravel(c) for c in cells])
    values = np.concatenate([values, np.negative(values)])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
def test_digit_pass_matches_reference_on_both_sides_of_the_crossover(tmp_path, capsys, as_json):
    """The rows of _digit_pass_cells, byte for byte those of the
    standard-library reference: one table of all of them, well above
    DIGIT_PASS_MIN_CELLS, then 40 tables of 7-wide rows just below it and 40
    just at it."""
    values = _digit_pass_cells()
    width = 7
    table = values[: len(values) // width * width].reshape(-1, width)
    columns = [f"col_{j}" for j in range(width)]
    below = (cli.DIGIT_PASS_MIN_CELLS - 1) // width
    at = math.ceil(cli.DIGIT_PASS_MIN_CELLS / width)
    assert below * width < cli.DIGIT_PASS_MIN_CELLS <= at * width
    tables = [table, *(table[i : i + below] for i in range(0, 40 * below, below)),
              *(table[i : i + at] for i in range(0, 40 * at, at))]
    for data in tables:
        text, reference = _emitted(tmp_path, capsys, None, as_json, columns, data, (), {})
        _assert_same_text(text, reference)


def _rare_cells():
    """Cells the digit pass hands to _cell_rule: nan, +-inf, subnormals, 1e12 to
    1e15 in magnitude and values within 2.5e-4 of a rounding tie of the 12-digit
    mantissa, each with both signs but nan."""
    rng = np.random.default_rng(37)
    ties = (rng.integers(10**11, 10**12, 12) + 0.5 + rng.uniform(-2.4e-4, 2.4e-4, 12)) / 10.0 ** rng.integers(0, 15, 12)
    cells = np.concatenate([
        [math.inf, 5e-324, 2.2250738585072e-308, 1e-310, 1e12, 3.7e13, 999999999999999.0, 1e15],
        10.0 ** rng.uniform(12.0, 15.0, 8),
        ties,
    ])
    return np.concatenate([[math.nan], cells, np.negative(cells)])


def _joined_cells(table, as_json):
    """_cell_rule's texts of a (rows, columns) table joined by _SEPARATORS."""
    cell_sep, row_sep = cli._SEPARATORS[as_json]
    cells = cli._cell_rule(table.ravel().tolist(), as_json)
    width = table.shape[1]
    return row_sep.join(cell_sep.join(cells[i : i + width]) for i in range(0, len(cells), width))


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
def test_digit_pass_puts_rare_cells_in_place(as_json):
    """_digit_pass gives _cell_rule's texts joined by _SEPARATORS for blocks whose
    rare cells come first, last, side by side (across a row's end too) and fill the
    whole block, between 9-digit fixed-notation cells; and a rare cell's text fits
    the slot that its mask row keeps."""
    rng = np.random.default_rng(38)
    rare = _rare_cells()
    assert not cli._cell_words(rare, 1)[2].any()  # every one takes the rare route
    width = 7
    fixed = rng.integers(10**8, 10**9, 40 * width) / 10.0 ** rng.integers(0, 13, 40 * width)
    tables = []
    for start in (0, fixed.size - len(rare), width - 3, 5 * width - 1):
        cells = fixed.copy()
        cells[start : start + len(rare)] = rare
        tables.append(cells.reshape(-1, width))
    for k in (1, 2):
        cells = fixed.copy()
        cells[::k * 9] = rng.choice(rare, cells[::k * 9].size)
        tables.append(cells.reshape(-1, width))
    tables.append(np.resize(rare, (6, width)))
    tables.append(rare[:1].reshape(1, 1))
    for table in tables:
        text = cli._digit_pass(table, as_json)
        assert text == _joined_cells(table, as_json)
    # The rare row keeps a cell's marker (byte 0) and its 24 digit bytes (8 to 31), and nothing else.
    kept = cli._MASKS.view(np.uint8).reshape(2, cli._RARE_KEY + 1, 32)[:, cli._RARE_KEY]
    slot = (np.arange(32) == 0) | (np.arange(32) >= 8)
    assert (kept == np.where(slot, 0xFF, 0)).all()
    # Every rare cell's _cell_rule text fits those 24 bytes, with no NUL for translate to drop
    # and no marker byte for the separators to replace.
    texts = [text.encode() for text in cli._cell_rule(rare.tolist(), as_json)]
    assert max(map(len, texts)) <= 24 and not any(set(text) & set(b"\0,;") for text in texts)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
@pytest.mark.parametrize("width", [3, 7, 13])
def test_digit_pass_puts_rare_cells_at_block_edges(as_json, width):
    """Rare cells as the first and the last cell of each block of _DIGIT_BLOCK_CELLS
    cells (whole rows) in a three-block table: _digit_pass still gives _cell_rule's
    texts joined by _SEPARATORS, across every block boundary."""
    rng = np.random.default_rng(39)
    block = cli._DIGIT_BLOCK_CELLS // width * width
    cells = rng.integers(10**8, 10**9, 3 * block) / 10.0 ** rng.integers(0, 13, 3 * block)
    edges = np.arange(0, cells.size + 1, block)
    rare = _rare_cells()
    cells[edges[:-1]] = rare[: len(edges) - 1]
    cells[edges[1:] - 1] = rare[-(len(edges) - 1) :]
    table = cells.reshape(-1, width)
    assert not cli._cell_words(cells, width)[2][np.r_[edges[:-1], edges[1:] - 1]].any()
    assert cli._digit_pass(table, as_json) == _joined_cells(table, as_json)


def _sweep_sized_tables():
    """The bench's table shapes: eigs --markovian-ref (401 x 11), petermann --delta-mode
    both (401 x 13, K and 0/1 flag columns) and spectrum (2001 x 3)."""
    rng = np.random.default_rng(40)
    g = np.linspace(40.0, 60.0, 401)
    flags = rng.integers(0, 2, (401, 3)).astype(float)
    k = 10.0 ** rng.uniform(0.0, 4.0, (401, 3))
    yield np.column_stack([g, k, flags, k[::-1], flags[::-1]])
    yield np.column_stack([g, rng.standard_normal((401, 10)) * 10.0 ** rng.uniform(-1.0, 3.0, 10)])
    yield np.column_stack([np.linspace(900.0, 1100.0, 2001), rng.uniform(0.0, 1.0, (2001, 2))])


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
def test_table_text_peak_memory_is_bounded(as_json):
    """The traced peak of _table_text on the bench's table shapes stays under 300 kB:
    198 to 279 kB measured, where blocks of 4,000 cells that held every array to
    the end of the block peaked at 548 to 594 kB.  numpy registers its buffers
    with tracemalloc, so the peak is deterministic."""
    for table in _sweep_sized_tables():
        cli._table_text(table, as_json)
        tracemalloc.start()
        try:
            cli._table_text(table, as_json)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 300_000, (table.shape, peak)


def test_format_runs_per_rare_cell_at_the_crossover_and_per_cell_below(monkeypatch):
    """At DIGIT_PASS_MIN_CELLS cells and above, format and _json_cell run once
    per rare cell and never for a flag or fixed-notation cell; below it,
    once per cell.  The fixed-notation cells are 9-digit decimals from 1e-4
    to 1e9, far from any rounding tie, and whole numbers."""
    rng = np.random.default_rng(27)
    rare = np.array([math.nan, math.inf, -math.inf, 1e-7, -2.5e15, 1e11, 123456789012.0])

    def table(rows):
        decimals = rng.integers(10**8, 10**9, rows) / 10.0 ** rng.integers(0, 13, rows)
        data = np.column_stack([
            rng.integers(0, 2, rows).astype(float),
            decimals * rng.choice([-1.0, 1.0], rows),
            rng.integers(-1000, 1000, rows).astype(float),
        ])
        data[: len(rare), 1] = rare
        return data

    calls = {"format": 0, "json_cell": 0}
    json_cell = cli._json_cell

    def counting_format(value, spec):
        calls["format"] += 1
        return format(value, spec)

    def counting_json_cell(text):
        calls["json_cell"] += 1
        return json_cell(text)

    monkeypatch.setattr(cli, "format", counting_format, raising=False)
    monkeypatch.setattr(cli, "_json_cell", counting_json_cell)
    sizes = [math.ceil(cli.DIGIT_PASS_MIN_CELLS / 3), 1000, (cli.DIGIT_PASS_MIN_CELLS - 1) // 3]
    for as_json, rows in itertools.product([True, False], sizes):
        data = table(rows)
        formatted = len(rare) if data.size >= cli.DIGIT_PASS_MIN_CELLS else data.size
        calls.update(format=0, json_cell=0)
        text = cli._table_text(data, as_json)
        assert calls == {"format": formatted, "json_cell": formatted if as_json else 0}, (as_json, rows)
        if not as_json:
            assert [line.split(",")[0] for line in text.splitlines()] == ["1" if x else "0" for x in data[:, 0]]


def test_quiet_without_out_builds_nothing(capsys, monkeypatch):
    def no_cells(data, as_json):
        raise AssertionError("cells formatted for an artifact --quiet discards")

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    monkeypatch.setattr(cli, "_table_text", no_cells)
    for fmt in (["--json"], []):
        assert cli.main(["--quiet", *fmt, "spectrum", "--omega-points", "21"]) == 0
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ep"],
        ["eigs", "--g-points", "7", "--markovian-ref"],
        ["petermann", "--g-points", "7", "--delta-mode", "both"],
        ["spectrum", "--omega-points", "21"],
        ["spectrum", "--omega-points", "1", "--omega-min", "1000", "--omega-max", "1001"],
        ["embedcheck", "--t-final", "2e-6"],
    ],
    ids=["ep", "eigs", "petermann", "spectrum", "spectrum_one_point", "embedcheck"],
)
def test_cli_json_is_canonical_layout(capsys, monkeypatch, argv):
    """Every subcommand's JSON re-encodes to itself under indent=2, sort_keys."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    assert cli.main(["--json", *argv]) == 0
    text = capsys.readouterr().out
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("argv", [["eigs", "--g-points", "7"], ["petermann", "--g-points", "101"]],
                         ids=["small", "digit_pass"])
def test_json_artifact_with_placeholder_text_in_its_path_stays_canonical(tmp_path, capsys, monkeypatch, argv):
    """The table's text block replaces "rows": null in one json.dumps of the
    document.  An --out path that holds that very text, on a line of its own
    at indent 2, changes neither the layout nor the rows."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    assert cli.main(["--json", *argv]) == 0
    plain = json.loads(capsys.readouterr().out)
    out = tmp_path / 'a\n  "rows": null,\n  "rows": [].json'
    assert cli.main(["--json", "--out", str(out), *argv]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    doc = json.loads(text)
    assert doc["manifest"]["out"] == str(out)
    assert doc["rows"] == plain["rows"] and len(doc["rows"]) == int(argv[2])
    assert text.count('\n  "rows": ') == 1


EMBED_DT = 1.0 / (100.0 * 2.0 * math.pi * 1.0e6)
REUSE_SEQUENCE = [
    ["--json", "eigs", "--g-points", "6", "--markovian-ref"],
    ["eigs", "--g-points", "6"],
    ["petermann", "--g-points", "6", "--delta-mode", "both"],
    ["petermann", "--g-points", "6"],
    ["--json", "spectrum", "--omega-points", "11"],
    ["spectrum", "--omega-points", "11", "--markovian-only"],
    ["eigs", "--bogus-flag"],
    ["ep"],
    [],
    ["--json", "ep"],
    ["--quiet", "ep"],
    ["eigs", "--g-points", "1"],
    ["--json", "embedcheck", "--dt", repr(EMBED_DT), "--t-final", repr(1000 * EMBED_DT)],
    ["embedcheck", "--dt", repr(EMBED_DT), "--t-final", repr(1000 * EMBED_DT)],
]


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser_with_identical_bytes(capsys, monkeypatch):
    """A sequence of main() calls on the shared parser prints what fresh parsers print."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._shared_parser.cache_clear()
        fresh.append(_run(argv, capsys))

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._shared_parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    reused = [_run(argv, capsys) for argv in REUSE_SEQUENCE]
    cli._shared_parser.cache_clear()

    assert len(builds) == 1
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0]
    for argv, want, got in zip(REUSE_SEQUENCE, fresh, reused):
        assert got == want, argv


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def _argparse_reading(argv):
    """The shared parser's parse_args(argv), or None where it exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._shared_parser().parse_args(argv)
        except SystemExit:
            return None


def _items(args):
    """A Namespace's attributes with each value's type and repr: 401 and 401.0, or 0.0
    and -0.0, differ here, though == holds them equal."""
    return sorted((key, type(value).__name__, repr(value)) for key, value in vars(args).items())


_GRAMMAR = cli.build_parser()
_SUBPARSERS = next(action for action in _GRAMMAR._actions if isinstance(action, argparse._SubParsersAction))
# Each parser's option strings other than help, each with whether it takes a value.
_OPTIONS_OF = {name: [(string, action.nargs != 0) for action in parser._actions for string in action.option_strings
                      if not isinstance(action, argparse._HelpAction)]
               for name, parser in [(None, _GRAMMAR), *_SUBPARSERS.choices.items()]}
# Tokens beside the exact option strings and commands: abbreviations (--omega-m and --g-m are
# ambiguous), --flag=value, the end of options, a lone dash and strings that read as no option.
_ODD = ["--g-mi", "--g-m", "--con", "--js", "--omega-m", "--delta", "--mark", "--g-min=45", "--json=1",
        "--config=a.ini", "--", "-", "-x", ""]
_VALUES = ["45", "5", "0", "-1e3", "-.5", "-5", "-1e", "-x", "", "inf", "nan", "-inf", "1e-9", "x",
           "value:-2e6", "both", "exact", "markovian", "ep", "-h", "--json", "a.ini"]
_TOKENS = sorted({"-h", "--help", *(string for options in _OPTIONS_OF.values() for string, _ in options),
                  *_SUBPARSERS.choices, *_ODD, *_VALUES})


# A value token: a number half the time.
_VALUE = st.one_of(st.sampled_from(["45", "5", "-1e3", "-.5", "-5", "1e-9"]), st.sampled_from(_VALUES))


def _tokens(draw, options):
    """Up to three of the (option string, takes a value) options, each followed by
    a value token where it takes one."""
    tokens = []
    for string, takes_value in draw(st.lists(st.sampled_from(options), max_size=3)) if options else ():
        tokens += [string, draw(_VALUE)] if takes_value else [string]
    return tokens


@st.composite
def _argv(draw):
    """[global option]* command [command option]*, then, each half the time, one
    token of any kind inserted and one token deleted anywhere."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS.choices)))
    argv = [*_tokens(draw, _OPTIONS_OF[None]), command, *_tokens(draw, _OPTIONS_OF[command])]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argv=_argv())
def test_plain_args_read_what_parse_args_reads(argv):
    """Over every option string, every command, abbreviations, --flag=value, -h,
    --, negative numbers and strings that look like options: wherever the table
    reading accepts argv, its Namespace is parse_args', each value of the same
    type, and the drawn list is left as it was."""
    drawn = list(argv)
    plain = cli._plain_args(argv)
    assert argv == drawn
    if plain is not None:
        want = _argparse_reading(argv)
        assert want is not None and _items(plain) == _items(want)


PLAIN_ARGV = [
    ["--config", "a.ini", "ep"],
    ["--config", "a.ini", "petermann", "--g-min", "49.0", "--g-max", "51.0", "--g-points", "5"],
    ["--config", "a.ini", "--json", "petermann", "--delta-mode", "both", "--g-min", "40", "--g-max", "60"],
    ["--config", "a.ini", "--json", "eigs", "--markovian-ref", "--g-min", "40", "--g-max", "60"],
    ["--config", "a.ini", "--json", "spectrum", "--omega-min", "900.5", "--omega-max", "1100"],
    ["--config", "a.ini", "--json", "embedcheck", "--dt", "1e-9", "--t-final", "1e-6"],
    ["--quiet", "--out", "-1", "--quiet", "eigs", "--g-min", "-1e3", "--g-points", "-5", "--delta-mode", ""],
    ["spectrum", "--markovian-only", "--omega-points", "11", "--omega-min", "-.5"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGV)
def test_plain_args_take_the_plain_forms(argv):
    """The forms the benchmark runs, and plain forms with repeated options and
    negative or empty values, are read off the tables, equal to parse_args."""
    plain = cli._plain_args(argv)
    assert plain is not None and _items(plain) == _items(_argparse_reading(argv))


@pytest.mark.parametrize("argv", [["--config", 1, "ep"], [1, "ep"], [["ep"]], ["eigs", "--g-min", None]])
def test_plain_args_leave_tokens_that_are_not_strings_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_build_parser_declares_only_what_plain_args_reads():
    """_plain_args reads store and store_true options off tables and stores each as
    parse_args would only where the grammar has no more than that: every action of
    the main parser and of each subparser is the help action, the one subparsers
    action (dest "command", which _plain_args and main read) or a store (one value, no choices, not required, no string default to
    convert) or store_true option, with no mutually exclusive group, set_defaults
    entry, other prefix character or argument file; no option string reads as a
    negative number, so a value such as -1 is never an option; and no command's
    option string abbreviates two global ones, which the main parser, reading every
    token, would stop at as ambiguous."""
    main = cli.build_parser()
    commands = [action for action in main._actions if isinstance(action, argparse._SubParsersAction)]
    assert len(commands) == 1 and commands[0].dest == "command"
    assert not any(name.startswith("-") for name in commands[0].choices)
    global_strings = [string for action in main._actions for string in action.option_strings]
    for parser in [main, *commands[0].choices.values()]:
        assert isinstance(parser, cli._Parser) and parser._defaults == {}
        assert not parser._mutually_exclusive_groups
        assert parser.prefix_chars == "-" and parser.fromfile_prefix_chars is None
        for action in parser._actions:
            assert not getattr(action, "deprecated", False)  # Python 3.13's option that warns when used
            if type(action) is argparse._StoreAction:
                assert action.option_strings and action.nargs is None and action.choices is None
                assert not action.required and not (isinstance(action.default, str) and action.type)
            else:
                assert (type(action) in (argparse._HelpAction, argparse._StoreTrueAction)
                        or (parser is main and action is commands[0]))
            for string in action.option_strings:
                # Nor begins like one: argparse reads a value -1 as an abbreviation of an option -1x.
                assert not cli._NEGATIVE_NUMBER.match(string) and not re.match(r"-[\d.]", string)
                assert parser is main or sum(other.startswith(string) for other in global_strings) < 2


def test_argv_forms_print_argparse_bytes(capsys, monkeypatch):
    """Each argv form of tools/parity.py, run in one process after calls read off
    the tables, prints what parse_args alone prints: the same exit code, stdout
    and stderr, byte for byte."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    plain = ["--json", "eigs", "--g-points", "6", "--delta-mode", "value:-1000"]
    assert cli._plain_args(plain) is not None
    forms = [*parity.ARGV_FORMS.values(), plain]
    read = []
    for argv in forms:
        _run(plain, capsys)
        read.append(_run(argv, capsys))
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert [_run(argv, capsys) for argv in forms] == read
    assert read[0][0] == 0 and read[0][1].startswith("usage: eprenorm ")


def test_main_reads_sys_argv_and_leaves_the_callers_list(capsys, monkeypatch):
    """main(None) reads sys.argv[1:], a tuple or an iterator reads as its list, and
    the caller's list is not changed."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    argv = ["--json", "eigs", "--g-points", "6"]
    listed = _run(argv, capsys)
    assert argv == ["--json", "eigs", "--g-points", "6"] and listed[0] == 0
    monkeypatch.setattr(sys, "argv", ["eprenorm", *argv])
    assert _run(None, capsys) == listed
    assert _run(tuple(argv), capsys) == listed
    assert _run(iter(argv), capsys) == listed
