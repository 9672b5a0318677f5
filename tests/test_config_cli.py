"""Config resolution and the command-line interface (in-process and one subprocess)."""

import configparser
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import draw_system
from eprenorm import cli, config, embedcheck, load_config, markovian_ep, perturbative_ep
from eprenorm.cli import MAX_GRID_POINTS, main
from eprenorm.config import DEFAULT_VALUES_HZ
from eprenorm.errors import ConfigError, OrderCheckFailed
from eprenorm.model import DriveParams, SystemParams, rad_to_hz


def _write(tmp_path, text, name="params.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _kv_lines(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def _csv_parts(text):
    """(comment lines, header columns, data rows) of a CSV artifact."""
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


def test_load_config_defaults():
    p, d = load_config(None)
    hz = {**p.as_hz_dict(), **d.as_hz_dict()}
    assert hz["mechanics.freq_hz"] == pytest.approx(1.0e6, rel=1e-12)
    assert hz["mechanics.gamma_hz"] == pytest.approx(5.0e3, rel=1e-12)
    assert hz["cavity.kappa_hz"] == pytest.approx(0.2e6, rel=1e-12)
    assert hz["bath.cutoff_hz"] == pytest.approx(1.0e6, rel=1e-12)
    assert hz["drive.detuning_hz"] == pytest.approx(-1.0e6, rel=1e-12)
    assert hz["drive.coupling_hz"] == pytest.approx(48.75e3, rel=1e-12)


def test_load_config_shipped_file_matches_defaults():
    p_def, d_def = load_config(None)
    p, d = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "default.ini"))
    assert p == p_def and d == d_def


def test_load_config_partial_override(tmp_path):
    path = _write(tmp_path, "[cavity]\nkappa_hz = 0.25e6\n")
    p, d = load_config(path)
    assert rad_to_hz(p.kappa) == pytest.approx(0.25e6, rel=1e-12)
    assert rad_to_hz(p.omega_m) == pytest.approx(
        DEFAULT_VALUES_HZ["mechanics"]["freq_hz"], rel=1e-12
    )
    assert rad_to_hz(d.g) == pytest.approx(
        DEFAULT_VALUES_HZ["drive"]["coupling_hz"], rel=1e-12
    )


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[lasers]\npower = 3\n", "a.ini"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[cavity]\nq_factor = 3\n", "b.ini"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[cavity]\nkappa_hz = broad\n", "c.ini"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[mechanics]\nfreq_hz = -1e6\n", "d.ini"))


def _reference_values(path):
    """The values configparser reads from path under the rules load_config
    once kept (no default section, no interpolation, unknown sections and
    keys refused, finite numbers only), or None where they refuse the file."""
    values = {section: dict(kv) for section, kv in DEFAULT_VALUES_HZ.items()}
    parser = configparser.ConfigParser(default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error:
        return None
    for section in parser.sections():
        if section not in values:
            return None
        for key, raw in parser.items(section, raw=True):
            if key not in values[section]:
                return None
            try:
                values[section][key] = float(raw)
            except ValueError:
                return None
            if not math.isfinite(values[section][key]):
                return None
    return values


def _hex_values(p, d):
    return [float(v).hex() for v in (p.omega_m, p.kappa, p.gamma, p.omega_c, d.delta, d.g)]


def _mixed_case(word):
    """word with the letters a bitmask picks in upper case."""
    return st.integers(0, 2 ** len(word) - 1).map(
        lambda bits: "".join(c.upper() if bits >> i & 1 else c for i, c in enumerate(word))
    )


_KEYS = [key for kv in DEFAULT_VALUES_HZ.values() for key in kv]
_FREE = st.text(alphabet="ab xK_=:#;[]%\t1e.-", max_size=10)
_NUMBER = st.one_of(
    st.floats(1e3, 1e7).map(repr),
    st.sampled_from(["1e6", "-1e6", "0", " 2.5E5 ", "1_000", "inf", "nan", "1e6%", "%(x)s", ""]),
)
_SEPARATOR = st.sampled_from(["=", ":", " = ", " : ", "\t=", "= ="])
_KEY_LINE = {key: st.tuples(_mixed_case(key), _SEPARATOR, _NUMBER).map("".join) for key in _KEYS}
_NOISE = st.one_of(
    st.sampled_from(["[DEFAULT]", "[Mechanics]", "[lasers]", "[cavity] trailing text", "[]", ""]),
    st.sampled_from([f"[{section}]" for section in DEFAULT_VALUES_HZ]),
    st.tuples(st.sampled_from(["#", ";", "  #", "\t;"]), _FREE).map("".join),
    st.one_of(*_KEY_LINE.values()),
    _FREE,
)


@st.composite
def _ini_texts(draw):
    """A well-formed file of the six keys, then up to three edits: a noise
    line inserted, a line indented, or a line repeated."""
    lines = []
    sections = draw(st.permutations(list(DEFAULT_VALUES_HZ)))
    for section in sections[: draw(st.integers(0, len(sections)))]:
        lines.append(f"[{section}]")
        for key in DEFAULT_VALUES_HZ[section]:
            if draw(st.booleans()):
                lines.append(draw(_KEY_LINE[key]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "indent", "repeat"]))
        if edit == "insert":
            lines.insert(at, draw(_NOISE))
        elif lines:
            at = min(at, len(lines) - 1)
            if edit == "indent":
                lines[at] = draw(st.sampled_from([" ", "\t", "    "])) + lines[at]
            else:
                lines.insert(at, lines[at])
    end = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.mark.filterwarnings("ignore::UserWarning")  # unresolved-sideband draws
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(text=_ini_texts())
def test_load_config_reads_what_configparser_read(tmp_path_factory, text):
    """load_config returns or raises ConfigError, and whatever it reads,
    configparser under the old rules reads to the same six values."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(text.encode())
    try:
        p, d = load_config(str(path))
    except ConfigError:
        return
    ref = _reference_values(path)
    assert ref is not None, text
    p_ref = SystemParams.from_hz(**ref["mechanics"], **ref["cavity"], **ref["bath"])
    d_ref = DriveParams.from_hz(**ref["drive"])
    assert _hex_values(p, d) == _hex_values(p_ref, d_ref), text


@pytest.mark.parametrize(
    "ini, line, message, read_before",
    [
        ("freq_hz = 2e6\n[mechanics]\n", 1, "key before any [section] header", False),
        ("# rates\n\nfreq_hz: 2e6\n", 3, "key before any [section] header", False),
        ("[cavity]\nkappa_hz = 1e5\n\n[cavity]\n", 4, "section [cavity] given twice", False),
        ("[cavity]\nkappa_hz = 1e5\nKAPPA_HZ: 2e5\n", 3, "key kappa_hz in [cavity] given twice",
         False),
        ("[mechanics]\nfreq_hz = 1e6\n  2e6\n", 3, "indented line '2e6'", False),
        ("[cavity]\n  kappa_hz = 1e5\n", 2, "indented line 'kappa_hz = 1e5'", True),
        ("[cavity]\r\n\r\n; note\r\n\tkappa_hz = 1e5\r\n", 4, "indented line", True),
        ("[cavity] trailing text\nkappa_hz = 1e5\n", 1, "not [section] or key = value", True),
        ("[cavity]\nkappa_hz\n", 2, "not [section] or key = value: 'kappa_hz'", False),
        ("[cavity]\n= 1e5\n", 2, "not [section] or key = value: '= 1e5'", False),
    ],
    ids=[
        "key_first",
        "key_after_comment",
        "section_twice",
        "key_twice_mixed_case",
        "continuation",
        "indented_first_key",
        "indented_key_crlf",
        "header_trailing_text",
        "key_without_value",
        "empty_key",
    ],
)
def test_cli_config_syntax_errors_name_the_line(tmp_path, capsys, ini, line, message, read_before):
    """Each form the line reader rejects exits 1 with one line naming the
    path and line number; read_before marks the forms configparser accepted."""
    path = tmp_path / "params.ini"
    path.write_bytes(ini.encode())
    assert (_reference_values(path) is not None) is read_before
    assert main(["--config", str(path), "ep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eprenorm: error: {path}: line {line}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("section, key", [(s, k) for s, kv in DEFAULT_VALUES_HZ.items() for k in kv])
@pytest.mark.parametrize("value", ["1e31", "-1e-31", "5e-324"])
def test_load_config_names_an_out_of_range_rate(tmp_path, section, key, value):
    """A nonzero rate outside [1e-30, 1e30] Hz is refused by its config key."""
    path = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} = \S+ Hz: a nonzero rate must lie"):
        load_config(path)


def test_load_config_accepts_the_range_ends(tmp_path):
    ini = "[mechanics]\ngamma_hz = 1e-30\n[drive]\ndetuning_hz = -1e30\ncoupling_hz = 0\n"
    p, d = load_config(_write(tmp_path, ini))
    ends = (rad_to_hz(p.gamma), rad_to_hz(d.delta), d.g)
    assert ends == pytest.approx((1e-30, -1e30, 0.0), rel=1e-15)


@pytest.mark.parametrize(
    "ini, argv, key",
    [
        ("[cavity]\nkappa_hz = 1e300\n", ["ep"], "cavity.kappa_hz = 1e+300"),
        ("[mechanics]\nfreq_hz = 1e300\n", ["eigs", "--delta-mode", "exact"], "mechanics.freq_hz = 1e+300"),
        (
            "[mechanics]\nfreq_hz = 1e-300\n[bath]\ncutoff_hz = 539.76\n"
            "[drive]\ndetuning_hz = 1015324\n",
            ["spectrum"],
            "mechanics.freq_hz = 1e-300",
        ),
        (None, ["eigs", "--delta-mode", "value:1e-40"], "bad --delta-mode value 'value:1e-40': "
         "drive.detuning_hz = 1e-37"),
    ],
    ids=["kappa_overflow-ep", "freq_overflow-eigs_exact", "freq_underflow-spectrum", "delta_flag"],
)
def test_cli_out_of_range_rate_exits_1(tmp_path, capsys, ini, argv, key):
    """Rates whose powers overflowed (or whose derived damping underflowed to
    zero) past the solvers exit 1 with one line naming the config key (or
    the flag that set the rate) and its value at six digits."""
    config = [] if ini is None else ["--config", _write(tmp_path, ini)]
    assert main([*config, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eprenorm: error: {key} Hz: a nonzero rate must lie")
    assert captured.err.count("\n") == 1


# The perturbative shift overshoots: gamma * Omega_c / (2 (Omega_c^2 + omega_m^2)) = 1.125.
_OVERSHOOT_INI = (
    "[mechanics]\nfreq_hz = 1e6\ngamma_hz = 4.5e6\n[cavity]\nkappa_hz = 5e6\n[bath]\ncutoff_hz = 1e6\n"
)
# The exact EP's detuning lands just short of 1e-30 Hz in magnitude, past the range's end.
_RANGE_END_INI = (
    "[mechanics]\nfreq_hz = 1e-30\ngamma_hz = 0\n[cavity]\nkappa_hz = 1e-29\n[bath]\ncutoff_hz = 1e-30\n"
)
_PAST_RANGE_END = (
    "exceptional point outside the rate range: "
    "drive.detuning_hz = -9.999999999999999e-31 Hz: a nonzero rate must lie"
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "ini, argv, message",
    [
        (_OVERSHOOT_INI, ["ep"], "exceptional point needs g > 0 and delta < 0: "
         "drive.detuning_hz = 125000 Hz"),
        (_RANGE_END_INI, ["ep"], _PAST_RANGE_END),
        (_RANGE_END_INI, ["eigs", "--delta-mode", "exact"], _PAST_RANGE_END),
    ],
    ids=["perturbative_overshoot-ep", "range_end-ep", "range_end-eigs_exact"],
)
def test_cli_non_physical_ep_exits_2(tmp_path, capsys, ini, argv, message):
    """An EP drive that is not red-detuned with positive coupling, or that lies
    just past the rate range, is one solver-failure line naming the drive key
    (in repr where six digits would read as the range's end)."""
    assert main(["--config", _write(tmp_path, ini), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eprenorm: solver failure: {message}")
    assert captured.err.count("\n") == 1


def _system_ini(p: SystemParams) -> str:
    """An INI text of p's four rates in Hz (repr), with the default drive."""
    sections = {}
    for key, hz in p.as_hz_dict().items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {hz!r}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


@pytest.mark.filterwarnings("ignore::UserWarning")  # the overshoot device is not sideband-resolved
def test_cli_ep_prints_perturbative_coordinates_without_an_eigen_solve(tmp_path, capsys, monkeypatch, params):
    """ep prints perturbative_ep's coordinates and never forms its lambda: with
    np.linalg.eigvals raising, ep exits 0, and its perturbative_* and shift_*
    values are, bit for bit, those formed from perturbative_ep and markovian_ep,
    on the defaults and 20 devices.  The overshoot device still exits 2 naming
    its detuning."""
    rng = np.random.default_rng(40)
    runs = []
    for k, device in enumerate([params, *(draw_system(rng) for _ in range(20))]):
        path = _write(tmp_path, _system_ini(device), name=f"device{k}.ini")
        p, _ = load_config(path)
        pert, mk = perturbative_ep(p), markovian_ep(p)
        expected = {
            "perturbative_delta_khz": cli._khz(pert.delta_ep),
            "perturbative_g_khz": cli._khz(pert.g_ep),
            "shift_delta_khz": cli._khz(pert.delta_ep - mk.delta_ep),
            "shift_g_khz": cli._khz(pert.g_ep - mk.g_ep),
        }
        runs.append((path, expected))

    def no_eigen_solve(*args, **kwargs):
        raise AssertionError("ep ran an eigen-solve")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigen_solve)
    for path, expected in runs:
        assert main(["--config", path, "ep"]) == 0
        printed = _kv_lines(capsys.readouterr().out)
        for key, value in expected.items():
            assert float(printed[key]).hex() == value.hex(), (path, key)
    assert main(["--config", _write(tmp_path, _OVERSHOOT_INI), "ep"]) == 2
    assert capsys.readouterr().err.startswith(
        "eprenorm: solver failure: exceptional point needs g > 0 and delta < 0: drive.detuning_hz = 125000 Hz"
    )


def test_cli_resolved_sideband_warning_is_one_line(tmp_path, capsys):
    """Outside the resolved-sideband regime the CLI still runs, and the
    UserWarning reaches stderr as one prefixed line, not Python's two-line text."""
    argv = ["--config", _write(tmp_path, _OVERSHOOT_INI), "--quiet", "eigs", "--delta-mode", "exact"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "eprenorm: warning: omega_m does not dominate kappa and gamma; "
        "outside the resolved-sideband regime\n"
    )


@pytest.mark.parametrize("argv", [["ep"], ["eigs", "--delta-mode", "exact"]], ids=["ep", "eigs_exact"])
def test_cli_warning_raised_as_error_exits_1(tmp_path, capsys, argv):
    """A warning the filters raise as an error is one "eprenorm: error:" line
    and exit 1, never a traceback: in process under an "error" filter, and
    in a fresh interpreter under -W error::UserWarning."""
    argv = ["--config", _write(tmp_path, _OVERSHOOT_INI), "--quiet", *argv]
    expected = (
        "eprenorm: error: omega_m does not dominate kappa and gamma; "
        "outside the resolved-sideband regime\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)
    proc = _checkout_python("-W", "error::UserWarning", "-m", "eprenorm", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_ANY_RATE = st.one_of(
    _log_uniform(1e3, 1e7),
    _log_uniform(1e-30, 1e30),
    _log_uniform(1e-40, 1e40),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-30, 1e30, 1e300, 1e308]),
)
_SMALL_COMMANDS = [
    ["ep"],
    ["eigs", "--g-points", "3", "--delta-mode", "exact"],
    ["petermann", "--g-points", "3", "--delta-mode", "both"],
    ["spectrum", "--omega-points", "5"],
    ["embedcheck"],
    ["embedcheck", "--t-final"],  # 50 periods of the fastest drawn rate
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    rates=st.tuples(*[_ANY_RATE] * 6),
    red=st.booleans(),
    command=st.sampled_from(_SMALL_COMMANDS),
)
@example(rates=(1e6, 4.5e6, 5e6, 1e6, 1e6, 5e4), red=True, command=["ep"])  # _OVERSHOOT_INI
@example(rates=(1e30, 1e28, 1e29, 1e30, 1e30, 1e29), red=True, command=["ep"])  # |memoryless seed| > range
def test_cli_any_rates_exit_cleanly(tmp_path_factory, rates, red, command):
    """Rates across and beyond the rate range, 0, 5e-324 and 1e308 included:
    every subcommand exits 0, 1, 2 or 3 with nothing escaping main, no
    RuntimeWarning and no nan in its report.  main would report a
    RuntimeWarning raised as an error as exit 1, so here each one is shown
    instead, as an "eprenorm: warning:" line, and none may appear.  ep,
    eigs and petermann exit 1 only for a file load_config refuses: an EP
    they cannot place is a solver failure, not bad input."""
    freq, gamma, kappa, cutoff, detuning, coupling = rates
    path = tmp_path_factory.getbasetemp() / "rates.ini"
    path.write_text(
        f"[mechanics]\nfreq_hz = {freq!r}\ngamma_hz = {gamma!r}\n[cavity]\nkappa_hz = {kappa!r}\n"
        f"[bath]\ncutoff_hz = {cutoff!r}\n"
        f"[drive]\ndetuning_hz = {-detuning if red else detuning!r}\ncoupling_hz = {coupling!r}\n"
    )
    if command[-1] == "--t-final":
        command = [*command, repr(50.0 / (2.0 * math.pi * max(rates)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        code = main(["--config", str(path), *command])
    assert code in (0, 1, 2, 3)
    assert "eprenorm: warning:" not in err.getvalue()
    assert "nan" not in out.getvalue()
    if code == 1 and command[0] in ("ep", "eigs", "petermann"):
        with pytest.raises(ConfigError):
            load_config(str(path))


def _checkout_python(*args, timeout=120, **environ):
    """A fresh interpreter run with this checkout's src/ first on its PYTHONPATH
    and the environment variables of environ set, killed after timeout seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **environ, "PYTHONPATH": pythonpath}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def test_cli_import_leaves_configparser_out():
    """Importing the CLI does not pay for configparser."""
    modules = "{'configparser', 'eprenorm.cli'} & set(sys.modules)"
    proc = _checkout_python("-c", f"import sys, eprenorm.cli; print(sorted({modules}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['eprenorm.cli']\n"


def test_cli_ep_reference_table(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    out = tmp_path / "ep.txt"
    assert main(["--out", str(out), "ep"]) == 0
    text = out.read_text()
    assert "49.375010854396" in text
    assert "-998.68503259472" in text
    kv = _kv_lines(text)
    assert float(kv["markovian_delta_khz"]) == pytest.approx(-1000.0, rel=1e-12)
    assert float(kv["markovian_g_khz"]) == pytest.approx(48.75, rel=1e-12)
    assert float(kv["shift_delta_khz"]) == pytest.approx(1.25, rel=1e-9)
    assert float(kv["shift_g_khz"]) == pytest.approx(0.625, rel=1e-9)
    assert float(kv["certificate_ddp_mag"]) > 0.0
    assert "# timestamp = 2025-08-25T00:00:00Z" in text


def test_cli_output_bytes_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["eigs", "--g-points", "25", "--markovian-ref"]
    assert main(["--out", str(a)] + args) == 0
    assert main(["--out", str(b)] + args) == 0

    def payload(path):
        # everything except the self-referential output-path manifest line
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("# out =")]

    assert payload(a) == payload(b)


def test_cli_eigs_csv_shape(tmp_path):
    out = tmp_path / "eigs.csv"
    assert main(["--out", str(out), "eigs", "--g-points", "5"]) == 0
    comments, header, rows = _csv_parts(out.read_text())
    assert header == [
        "g_khz",
        "re_l1_khz",
        "re_l2_khz",
        "re_l3_khz",
        "im_l1_khz",
        "im_l2_khz",
        "im_l3_khz",
    ]
    assert len(rows) == 5
    assert rows[0][0] == "40" and rows[-1][0] == "60"
    assert any("grid.delta_mode = markovian" in c for c in comments)
    # every cell is a parseable float at 12 significant digits or fewer
    for row in rows:
        for cell in row:
            assert format(float(cell), ".12g") == cell


def test_cli_eigs_markovian_ref_columns(tmp_path):
    out = tmp_path / "eigs_ref.csv"
    assert main(["--out", str(out), "eigs", "--g-points", "3", "--markovian-ref"]) == 0
    _, header, rows = _csv_parts(out.read_text())
    assert header[-4:] == ["mk_re_l1_khz", "mk_re_l2_khz", "mk_im_l1_khz", "mk_im_l2_khz"]
    assert len(rows[0]) == 11


def test_cli_eigs_custom_delta_value(tmp_path):
    out = tmp_path / "eigs_val.csv"
    assert (
        main(["--out", str(out), "eigs", "--g-points", "3", "--delta-mode", "value:-999.5"])
        == 0
    )
    comments, _, _ = _csv_parts(out.read_text())
    assert any("grid.delta_khz = -999.5" in c for c in comments)


def test_cli_petermann_single_and_both(tmp_path):
    out = tmp_path / "pet.csv"
    assert main(["--out", str(out), "petermann", "--g-points", "5"]) == 0
    _, header, rows = _csv_parts(out.read_text())
    assert header == ["g_khz", "k_plus", "k_minus", "k_3", "div_plus", "div_minus", "div_3"]
    assert len(rows) == 5
    assert all(float(row[1]) >= 1.0 for row in rows)

    both = tmp_path / "pet_both.csv"
    assert (
        main(["--out", str(both), "petermann", "--g-points", "3", "--delta-mode", "both"])
        == 0
    )
    _, header2, rows2 = _csv_parts(both.read_text())
    assert "k_plus_markovian" in header2 and "k_plus_exact" in header2
    assert "div_3_markovian" in header2 and "div_3_exact" in header2
    assert len(rows2[0]) == 13


def test_cli_spectrum_footer_and_markovian_only(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["--out", str(out), "spectrum", "--omega-points", "201"]) == 0
    comments, header, rows = _csv_parts(out.read_text())
    assert header == ["omega_khz", "r_sq_markovian", "r_sq_nonmarkovian"]
    assert len(rows) == 201
    footer = {
        line.split(" = ")[0]: float(line.split(" = ")[1])
        for line in comments
        if line.startswith("# dip.") or line.startswith("# cooperativity.")
    }
    assert abs(footer["# dip.markovian.r_sq_min"] - 0.6555) < 0.01
    assert abs(footer["# dip.nonmarkovian.r_sq_min"] - 0.8146) < 0.01
    assert footer["# cooperativity.c_eff"] == pytest.approx(
        2.0 * footer["# cooperativity.c"], rel=1e-9
    )

    only = tmp_path / "spec_mk.csv"
    assert (
        main(["--out", str(only), "spectrum", "--omega-points", "11", "--markovian-only"])
        == 0
    )
    comments2, header2, _ = _csv_parts(only.read_text())
    assert header2 == ["omega_khz", "r_sq_markovian"]
    assert not any("nonmarkovian" in c for c in comments2)


def test_cli_json_documents(tmp_path):
    out = tmp_path / "ep.json"
    assert main(["--out", str(out), "--json", "ep"]) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["command"] == "ep"
    assert doc["ep"]["exact_g_khz"] == pytest.approx(49.37501085439698, rel=1e-12)

    spec = tmp_path / "spec.json"
    assert (
        main(
            ["--out", str(spec), "--json", "spectrum", "--omega-points", "5", "--markovian-only"]
        )
        == 0
    )
    doc2 = json.loads(spec.read_text())
    assert doc2["columns"] == ["omega_khz", "r_sq_markovian"]
    assert len(doc2["rows"]) == 5
    assert "dip_markovian" in doc2["summary"]


def test_cli_embedcheck_report(tmp_path):
    out = tmp_path / "embed.txt"
    assert main(["--out", str(out), "embedcheck"]) == 0
    kv = _kv_lines(out.read_text())
    assert kv["status"] == "PASS"
    assert float(kv["max_rel_err"]) < 1e-5
    assert float(kv["order_estimate"]) >= 3.6
    assert float(kv["kernel_fourier_err"]) < 1e-4


def test_cli_embedcheck_default_step_follows_fastest_rate(tmp_path):
    """With a bath cutoff above twice the mechanical frequency the default
    step still meets the resolution limit, and the order check still reads
    fourth order."""
    path = _write(tmp_path, "[bath]\ncutoff_hz = 3e6\n")
    out = tmp_path / "embed.txt"
    assert main(["--config", path, "--out", str(out), "embedcheck"]) == 0
    kv = _kv_lines(out.read_text())
    assert kv["status"] == "PASS"
    assert abs(float(kv["order_estimate"]) - 4.0) <= 0.05


@pytest.mark.parametrize("kappa_hz", ["0.15e6", "0.3e6"])
def test_cli_embedcheck_order_is_fourth(tmp_path, kappa_hz):
    """RK4 reads fourth order where t_final = 20/kappa is not a whole number
    of default steps (the cutoff_hz = 3e6 case is checked above)."""
    out = tmp_path / "embed.txt"
    path = _write(tmp_path, f"[cavity]\nkappa_hz = {kappa_hz}\n")
    assert main(["--config", path, "--out", str(out), "embedcheck"]) == 0
    assert abs(float(_kv_lines(out.read_text())["order_estimate"]) - 4.0) <= 0.05


def test_cli_memoryless_config_collapses_exact_onto_markovian(tmp_path):
    path = _write(tmp_path, "[mechanics]\ngamma_hz = 0\n")
    out = tmp_path / "ep0.txt"
    assert main(["--config", path, "--out", str(out), "ep"]) == 0
    kv = _kv_lines(out.read_text())
    assert kv["exact_delta_khz"] == kv["markovian_delta_khz"]
    assert kv["exact_g_khz"] == kv["markovian_g_khz"]
    assert float(kv["shift_delta_khz"]) == 0.0


def test_cli_spectrum_at_zero_gamma_names_the_input(tmp_path, capsys):
    """Plain spectrum at gamma = 0 exits 1 naming the config key; --markovian-only runs."""
    path = _write(tmp_path, "[mechanics]\ngamma_hz = 0\n")
    argv = ["--config", path, "--quiet", "spectrum", "--omega-points", "5"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "mechanics.gamma_hz must be > 0" in err[0]
    assert "--markovian-only" in err[0]
    assert main([*argv, "--markovian-only"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega_max", ["1e160", "1e300"])
def test_cli_spectrum_far_probe_runs_clean(tmp_path, omega_max):
    """Probes far enough out to overflow the denominator's product still
    reflect fully (|r|^2 = 1), without numpy overflow warnings."""
    out = tmp_path / "far.json"
    argv = ["--out", str(out), "--json", "spectrum", "--omega-max", omega_max]
    assert main([*argv, "--omega-points", "3"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row[1:] for row in rows[1:]] == [[1.0, 1.0], [1.0, 1.0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [["petermann", "--delta-mode", "markovian"], ["eigs"]])
def test_cli_far_coupling_runs_clean(tmp_path, command):
    """Couplings up to 1e300 kHz dwarf every other rate: both commands exit 0
    without numpy overflow warnings, and the modes are normal (K = 1, no flag)."""
    out = tmp_path / "far.json"
    argv = ["--out", str(out), "--json", *command, "--g-min", "1e70", "--g-max", "1e300", "--g-points", "3"]
    assert main(argv) == 0
    table = json.loads(out.read_text())
    if command[0] == "petermann":
        for name, *column in zip(table["columns"], *table["rows"]):
            if name.startswith("k_"):
                assert column == pytest.approx([1.0] * 3, rel=1e-12)
            elif name.startswith("div_"):
                assert column == [0.0] * 3


@pytest.mark.parametrize(
    "command",
    [["eigs"], ["eigs", "--markovian-ref"], ["petermann", "--delta-mode", "markovian"]],
    ids=["eigs", "eigs_markovian_ref", "petermann_markovian"],
)
def test_cli_top_of_range_coupling_prints_no_warning(capsys, command):
    """A coupling grid up to 2.7e304 kHz (about 1.7e308 rad/s, near the top of
    the double range) is accepted, and branch ordering and tracking take it
    without an overflow: exit 0 and no warning line under the filters of a
    plain CLI process."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["--quiet", *command, "--g-min", "0", "--g-max", "2.7e304", "--g-points", "3"]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["ep", "--bogus-flag"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    assert main(["--config", str(tmp_path / "nope.ini"), "--quiet", "ep"]) == 1
    assert main(["--quiet", "eigs", "--g-points", "1"]) == 1
    assert main(["--quiet", "eigs", "--g-points", "3", "--delta-mode", "bogus"]) == 1
    overdamped = _write(tmp_path, "[cavity]\nkappa_hz = 1e3\n")
    assert main(["--config", overdamped, "--quiet", "ep"]) == 2


def test_cli_grid_size_bound(capsys):
    """Oversized grids are rejected at the boundary, before any allocation."""
    huge = str(10**9)
    t0 = time.perf_counter()
    assert main(["--quiet", "eigs", "--g-points", huge]) == 1
    assert main(["--quiet", "petermann", "--g-points", huge]) == 1
    assert main(["--quiet", "spectrum", "--omega-points", huge]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert f"--g-points must be between 2 and {MAX_GRID_POINTS}" in err
    assert f"--omega-points must be between 1 and {MAX_GRID_POINTS}" in err


def test_cli_grid_size_bound_is_the_documented_one(capsys):
    """README caps the point counts at 100000: that many probe points run, one
    more exits 1 naming the bound."""
    assert main(["--quiet", "spectrum", "--omega-points", "100000"]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["--quiet", "spectrum", "--omega-points", "100001"]) == 1
    assert capsys.readouterr().err == "eprenorm: error: --omega-points must be between 1 and 100000\n"


@pytest.mark.parametrize("above", [False, True], ids=["at_limit", "above_limit"])
def test_cli_embedcheck_status_turns_at_the_documented_limit(capsys, monkeypatch, above):
    """README's status rule: PASS while max_rel_err is at most 1e-5, FAIL with
    exit code 3 beyond it, here with compare_embeddings returning the limit
    itself and the next float above it."""
    err = np.nextafter(1e-5, math.inf) if above else 1e-5
    monkeypatch.setattr(cli, "compare_embeddings", lambda *args: err)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    assert main(["--json", "embedcheck", "--t-final", "2e-6"]) == (3 if above else 0)
    report = json.loads(capsys.readouterr().out)["embedcheck"]
    assert report["max_rel_err"] == err
    assert report["status"] == ("FAIL" if above else "PASS")


def _exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "ini, argv",
    [
        ("[bath]\ncutoff_hz = inf\n", ["spectrum"]),
        ("[mechanics]\ngamma_hz = inf\n", ["ep"]),
        ("[drive]\ncoupling_hz = inf\n", ["ep"]),
        ("[drive]\ncoupling_hz = inf\n", ["spectrum"]),
        ("[drive]\ncoupling_hz = inf\n", ["embedcheck"]),
        ("[cavity]\nkappa_hz = nan\n", ["ep"]),
        ("[drive]\ndetuning_hz = -inf\n", ["petermann", "--g-points", "3"]),
        (None, ["spectrum", "--omega-max", "inf"]),
        (None, ["spectrum", "--omega-min", "nan"]),
        (None, ["embedcheck", "--t-final", "inf"]),
        (None, ["embedcheck", "--dt", "nan"]),
        (None, ["eigs", "--g-max", "inf"]),
        (None, ["eigs", "--g-points", "3", "--delta-mode", "value:-inf"]),
        (None, ["spectrum", "--omega-max", "1e306"]),
        (None, ["eigs", "--g-max", "1e306"]),
        (None, ["spectrum", "--omega-min=-2e304", "--omega-max", "2e304"]),
    ],
    ids=[
        "cutoff_inf-spectrum",
        "gamma_inf-ep",
        "coupling_inf-ep",
        "coupling_inf-spectrum",
        "coupling_inf-embedcheck",
        "kappa_nan-ep",
        "detuning_neginf-petermann",
        "omega_max_inf",
        "omega_min_nan",
        "t_final_inf",
        "dt_nan",
        "g_max_inf",
        "delta_mode_value_neginf",
        "omega_max_overflows_rad",
        "g_max_overflows_rad",
        "omega_span_overflows_rad",
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, ini, argv):
    """Non-finite config values and float flags exit 1 with a clear message."""
    config = [] if ini is None else ["--config", _write(tmp_path, ini)]
    assert _exit_code([*config, "--quiet", *argv]) == 1
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eigs", "--g-min", "50", "--g-max", "40"], "--g-max must exceed --g-min"),
        (["eigs", "--g-min", "50", "--g-max", "50"], "--g-max must exceed --g-min"),
        (["petermann", "--g-min", "-1"], "--g-min must be non-negative"),
        (["eigs", "--g-min", "-1e3"], "--g-min must be non-negative"),
        (["eigs", "--g-min", "abc"], "expected a finite number, got 'abc'"),
        (["embedcheck", "--t-final", "-1"], "t_final must be positive"),
        (["embedcheck", "--t-final", "0"], "t_final must be positive"),
    ],
    ids=["g_max_below_min", "g_max_at_min", "g_min_negative", "g_min_negative_e_notation", "g_min_not_a_number",
         "t_final_negative", "t_final_zero"],
)
def test_cli_rejects_bad_grids_and_horizons(capsys, monkeypatch, argv, message):
    """An empty or negative coupling grid, a float flag that is not a number and
    a horizon that is not positive exit 1 naming the check, before anything
    is propagated (the order check's own t_final test fires first)."""

    def no_propagation(*args):
        raise AssertionError("propagation started despite a bad input")

    monkeypatch.setattr(embedcheck, "_order_endpoints", no_propagation)
    monkeypatch.setattr(embedcheck, "_rk4_propagate", no_propagation)
    assert _exit_code(["--quiet", *argv]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-1e3", "-1.5E+3", "-.5e1", "-1000"])
def test_cli_negative_values_in_e_notation_parse(capsys, monkeypatch, value):
    """A negative flag value in e-notation is a number, not an option: it prints
    the bytes of the same value joined to its flag by "=", which argparse
    never takes for an option."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1756080000")
    outs = []
    for pair in (["--omega-min", value], [f"--omega-min={value}"]):
        assert _exit_code(["spectrum", *pair, "--omega-max", "1e3", "--omega-points", "5"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].err == ""


def test_cli_failed_order_check_exits_3(capsys, monkeypatch):
    """A double root that fails its certificate exits 3 with one check-failure line."""

    def failing(p, sol):
        raise OrderCheckFailed(1.0, 2.0, 3.0)

    monkeypatch.setattr(cli, "certify_order_two", failing)
    assert main(["ep"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("eprenorm: check failure: ") and err.count("\n") == 1


def test_cli_embedcheck_step_bound(capsys, monkeypatch):
    """A tiny --dt exits 1 at once, before anything is integrated."""

    def no_integration(*args):
        raise AssertionError("integration started despite the step bound")

    monkeypatch.setattr(embedcheck, "_rk4_propagate", no_integration)
    t0 = time.perf_counter()
    assert main(["--quiet", "embedcheck", "--dt", "1e-15"]) == 1
    assert time.perf_counter() - t0 < 5.0
    assert "steps" in capsys.readouterr().err


def test_cli_embedcheck_order_step_bound(capsys, monkeypatch):
    """A horizon whose order check would need 4n = 240000 steps exits 1 with
    a message naming that check, before the comparison integrates."""

    def no_integration(*args):
        raise AssertionError("integration started despite the step bound")

    monkeypatch.setattr(embedcheck, "_rk4_propagate", no_integration)
    assert main(["--quiet", "embedcheck", "--t-final", "0.00019098593171027443"]) == 1
    err = capsys.readouterr().err
    assert "order check: 4n = 240000 steps exceed the bound of 200000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "ini",
    ["[drive]\ncoupling_hz = 13092743155\n", "[drive]\ndetuning_hz = 3572245906\n"],
    ids=["coupling", "detuning"],
)
def test_cli_embedcheck_fast_drive_rate_sets_the_step(tmp_path, capsys, ini):
    """A coupling or detuning faster than omega_m and Omega_c sets the
    resolution limit: at the default horizon the order check's step bound
    exits 1 naming that check, and at 1e-9 s the run passes reading fourth
    order, with no nan either way."""
    config = _write(tmp_path, ini)
    assert main(["--config", config, "embedcheck"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("eprenorm: error: order check: 4n = ") and err.count("\n") == 1

    assert main(["--config", config, "embedcheck", "--t-final", "1e-9"]) == 0
    out, err = capsys.readouterr()
    report = _kv_lines(out)
    assert err == "" and "nan" not in out
    assert report["status"] == "PASS"
    assert abs(float(report["order_estimate"]) - 4.0) <= 1e-3


@pytest.mark.parametrize(
    "out, epoch, error, stamp",
    [
        ("missing_dir/x.csv", "1756080000", "[Errno 2] No such file or directory", None),
        (".", "1756080000", "[Errno 21] Is a directory", None),
        (None, "100000000000000000000", "SOURCE_DATE_EPOCH=100000000000000000000 is out of range", None),
        (None, "300000000000", "SOURCE_DATE_EPOCH=300000000000 is out of range", None),
        (None, "9" * 5000, f"SOURCE_DATE_EPOCH={'9' * 5000} is out of range", None),
        (None, "0" * 5000 + "1", None, "1970-01-01T00:00:01Z"),
        (None, "0" * 5000, None, "1970-01-01T00:00:00Z"),
        (None, "253402300799", None, "9999-12-31T23:59:59Z"),
        (None, "\u00b2", "SOURCE_DATE_EPOCH='\u00b2' is not a whole number of seconds", None),
        (None, "abc", "SOURCE_DATE_EPOCH='abc' is not a whole number of seconds", None),
        (None, "-5", "SOURCE_DATE_EPOCH='-5' is not a whole number of seconds", None),
        (None, "1e9", "SOURCE_DATE_EPOCH='1e9' is not a whole number of seconds", None),
        (None, " 12 ", None, "1970-01-01T00:00:12Z"),
        (None, "", None, "1970-01-01T00:00:00Z"),
        (None, " \t", None, "1970-01-01T00:00:00Z"),
    ],
    ids=[
        "out_missing_dir",
        "out_is_directory",
        "epoch_overflow",
        "epoch_past_9999",
        "epoch_5000_digits",
        "epoch_5000_leading_zeros",
        "epoch_5000_zeros",
        "epoch_last",
        "epoch_superscript_two",
        "epoch_letters",
        "epoch_negative",
        "epoch_exponent",
        "epoch_padded",
        "epoch_empty",
        "epoch_blank",
    ],
)
def test_cli_boundary_failures_exit_1(tmp_path, capsys, monkeypatch, out, epoch, error, stamp):
    """An unwritable --out path, a SOURCE_DATE_EPOCH past 9999-12-31T23:59:59Z
    or one that is not ASCII digits after stripping exits 1 with a one-line
    message instead of a traceback, so an artifact asked to be pinned is never
    stamped with the clock; leading zeros, however many, pad the value they
    precede; an unset or blank value stamps the current time (pinned to 0 here)."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr(time, "time", lambda: 0.0)
    argv = ["ep"] if out is None else ["--out", str(tmp_path / out), "ep"]
    code = main(argv)
    captured = capsys.readouterr()
    if error is None:
        assert code == 0 and f"# timestamp = {stamp}\n" in captured.out
    else:
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"eprenorm: error: {error}")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("epoch", [0, 951782400, 1756080000, cli.MAX_EPOCH])
def test_manifest_timestamp_is_the_datetime_utc_form(monkeypatch, epoch):
    """The manifest's time.strftime stamp equals datetime's UTC form at the epoch,
    on a leap day (2000-02-29) and at the last accepted second."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(epoch))
    p, d = load_config(None)
    args = cli.build_parser().parse_args(["ep"])
    stamp = cli._manifest(args, p, d, {})["timestamp"]
    assert stamp == datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@pytest.mark.parametrize(
    "ini, message",
    [
        ("[mechanics]\nfreq_hz = %(x)s\n", "key freq_hz in [mechanics] is not a number: '%(x)s'"),
        ("[mechanics]\nfreq_hz = 1e6%\n", "key freq_hz in [mechanics] is not a number: '1e6%'"),
        ("[DEFAULT]\nfreq_hz = 2e6\n", "unknown section [DEFAULT]"),
        ("[DEFAULT]\n[cavity]\nkappa_hz = 0.25e6\n", "unknown section [DEFAULT]"),
        ("[DEFAULT]\nfreq_hz = 2e6\n[cavity]\nkappa_hz = 0.25e6\n", "unknown section [DEFAULT]"),
        (b"[mechanics]\nfreq_hz = 2e6\xff\n", "cannot read config file"),
    ],
    ids=[
        "interpolation",
        "trailing_percent",
        "default_only",
        "default_empty",
        "default_with_section",
        "not_utf8",
    ],
)
def test_cli_config_text_errors_name_the_path(tmp_path, capsys, ini, message):
    """A % is literal text, [DEFAULT] is an unknown section and undecodable
    bytes are a read error: each exits 1 with one line naming the file."""
    path = tmp_path / "params.ini"
    path.write_bytes(ini if isinstance(ini, bytes) else ini.encode())
    assert main(["--config", str(path), "ep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eprenorm: error: {path}: ")
    assert message in captured.err and captured.err.count("\n") == 1


def test_cli_unreadable_config_exits_1(tmp_path, capsys, monkeypatch):
    """A config file that exists but cannot be opened is an error, not the defaults."""
    path = _write(tmp_path, "[mechanics]\nfreq_hz = 2e6\n")
    os_open = os.open

    def denied(file, *args, **kwargs):
        if file == path:
            raise PermissionError(13, "Permission denied", file)
        return os_open(file, *args, **kwargs)

    monkeypatch.setattr(config.os, "open", denied)
    assert main(["--config", path, "ep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eprenorm: error: {path}: cannot read config file: ")
    assert "Permission denied" in captured.err


@pytest.mark.parametrize("kind", ["directory", "dangling_symlink", "path_through_a_file", "character_device"])
def test_cli_config_path_to_no_regular_file_is_not_found(tmp_path, capsys, monkeypatch, kind):
    """A directory, a dangling symlink, a path through a regular file (a.ini/x)
    and a character device each exit 1 with the one "config file not found"
    line, and none of them is opened."""
    regular = Path(_write(tmp_path, "[mechanics]\nfreq_hz = 2e6\n", "a.ini"))
    path = {"directory": tmp_path / "configs", "dangling_symlink": tmp_path / "link.ini",
            "path_through_a_file": regular / "x", "character_device": Path(os.devnull)}[kind]
    if kind == "directory":
        path.mkdir()
    elif kind == "dangling_symlink":
        path.symlink_to(tmp_path / "nowhere.ini")

    def refused(file, *args, **kwargs):
        raise AssertionError(f"opened {file}")

    monkeypatch.setattr(config.os, "open", refused)
    assert main(["--config", str(path), "ep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eprenorm: error: config file not found: {path}\n"


def test_cli_config_fifo_is_not_found_and_does_not_block(tmp_path):
    """A FIFO with no writer is not a regular file: exit 1, "config file not
    found", without waiting for a writer.  It runs in a fresh interpreter with
    a timeout, so a read that blocks fails the test rather than hanging it."""
    fifo = tmp_path / "params.ini"
    os.mkfifo(fifo)
    proc = _checkout_python("-m", "eprenorm", "--config", str(fifo), "ep", timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"eprenorm: error: config file not found: {fifo}\n"


@pytest.mark.parametrize("kind", ["empty", "crlf"])
def test_cli_config_empty_and_crlf_files(tmp_path, capsys, monkeypatch, kind):
    """An empty file is the built-in defaults and a file with \\r\\n line endings
    reads as its \\n twin: exit 0, no stderr and the same bytes as the reference."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    text = "" if kind == "empty" else "[mechanics]\nfreq_hz = 2e6\n\n[cavity]\nkappa_hz = 0.25e6\n"
    path = tmp_path / "params.ini"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    reference = [] if kind == "empty" else ["--config", _write(tmp_path, text, "lf.ini")]
    outputs = []
    for argv in (["--config", str(path), "ep"], [*reference, "ep"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == "" and outputs[0] == outputs[1]
    if kind == "crlf":
        assert "# mechanics.freq_hz = 2000000\n" in outputs[0].out


def test_out_artifact_is_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, a non-ASCII --out path is
    written, in its manifest line, as UTF-8: the encoding config files are read in."""
    out = tmp_path / "r\u00e9sum\u00e9.csv"
    proc = _checkout_python("-m", "eprenorm", "--out", str(out), "ep",
                            LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert proc.returncode == 0, proc.stderr
    assert f"# out = {out}\n".encode("utf-8") in out.read_bytes()


def test_cli_subprocess_entry():
    """`python -m eprenorm` runs from a checkout: src/ goes first on the child's PYTHONPATH."""
    proc = _checkout_python("-m", "eprenorm", "--quiet", "ep")
    assert proc.returncode == 0
    assert proc.stdout == ""
