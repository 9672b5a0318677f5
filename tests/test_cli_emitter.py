"""The CLI's one emitter against a plain json.dumps / format reference, and
reuse of the parser across main() calls in one process."""

import argparse
import json
import math

import numpy as np
import pytest

from eprenorm import cli

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
    cli._emit(args, manifest, columns, data, footer, summary)
    text = capsys.readouterr().out if out is None else (tmp_path / out_name).read_text()
    return text, _reference(manifest, columns, data, footer, summary, as_json)


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
    assert text == reference


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
def test_emitter_report_without_table(tmp_path, capsys, as_json):
    footer = ["residual_p = 1.0000000000000001e-30", "status = PASS"]
    summary = {"ep": {"residual_p": 1e-30, "exact_g_khz": 49.37501085439698, "status": "PASS"}}
    text, reference = _emitted(tmp_path, capsys, None, as_json, None, None, footer, summary)
    assert text == reference


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
    assert text == reference and text.endswith("max_rel_err = nan\norder_estimate = inf\n")


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


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
@pytest.mark.parametrize("width", [1, 3, 13])
def test_emitter_adversarial_cells_match_reference(tmp_path, capsys, width, as_json):
    """JSON cells laid out from their ".12g" texts equal json.dumps of float()
    of those texts, and CSV cells equal format(x, ".12g"), byte for byte."""
    data = _adversarial_cells().reshape(-1, width)
    columns = [f"col_{j}" for j in range(width)]
    text, reference = _emitted(tmp_path, capsys, None, as_json, columns, data, (), {})
    assert text == reference


def test_quiet_without_out_builds_nothing(capsys, monkeypatch):
    def no_rows(cells, width):
        raise AssertionError("rows built for an artifact --quiet discards")

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    monkeypatch.setattr(cli, "_json_rows", no_rows)
    assert cli.main(["--quiet", "--json", "spectrum"]) == 0
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
