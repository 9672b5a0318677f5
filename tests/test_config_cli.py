"""Config resolution and the command-line interface (in-process and one subprocess)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eprenorm import ConfigError, DEFAULT_VALUES_HZ, load_config, rad_to_hz
from eprenorm.cli import MAX_GRID_POINTS, main


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
    p, d = load_config("configs/default.ini")
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
    step still meets the resolution limit; at this resolution the order
    estimate is rounding-limited, so only the status is checked."""
    path = _write(tmp_path, "[bath]\ncutoff_hz = 3e6\n")
    out = tmp_path / "embed.txt"
    assert main(["--config", path, "--out", str(out), "embedcheck"]) == 0
    kv = _kv_lines(out.read_text())
    assert kv["status"] == "PASS"


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


def test_cli_embedcheck_step_bound(capsys):
    """A tiny --dt exits 1 at once, before anything is integrated."""
    t0 = time.perf_counter()
    assert main(["--quiet", "embedcheck", "--dt", "1e-15"]) == 1
    assert time.perf_counter() - t0 < 5.0
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "out, epoch, error, stamp",
    [
        ("missing_dir/x.csv", "1756080000", "[Errno 2] No such file or directory", None),
        (".", "1756080000", "[Errno 21] Is a directory", None),
        (None, "100000000000000000000", "SOURCE_DATE_EPOCH=100000000000000000000 is out of range", None),
        (None, "300000000000", "SOURCE_DATE_EPOCH=300000000000 is out of range", None),
        (None, "9" * 5000, f"SOURCE_DATE_EPOCH={'9' * 5000} is out of range", None),
        (None, "253402300799", None, "9999-12-31T23:59:59Z"),
        (None, "\u00b2", None, "1970-01-01T00:00:00Z"),
    ],
    ids=[
        "out_missing_dir",
        "out_is_directory",
        "epoch_overflow",
        "epoch_past_9999",
        "epoch_5000_digits",
        "epoch_last",
        "epoch_superscript_two",
    ],
)
def test_cli_boundary_failures_exit_1(tmp_path, capsys, monkeypatch, out, epoch, error, stamp):
    """An unwritable --out path or a SOURCE_DATE_EPOCH past 9999-12-31T23:59:59Z
    exits 1 with a one-line message instead of a traceback; a value that is
    not ASCII digits is ignored like any other non-number, so the stamp falls
    back to the current time (pinned to 0 here)."""
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


def test_cli_subprocess_entry():
    """`python -m eprenorm` runs from a checkout: src/ goes first on the child's PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "eprenorm", "--quiet", "ep"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
