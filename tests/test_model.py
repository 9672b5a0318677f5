"""Parameter containers, bath functions and drift-matrix assembly."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import eprenorm
from draws import draw_drive, draw_system
from eprenorm import DriveParams, SystemParams, drift_markovian, drift_nonmarkovian, load_config
from eprenorm.model import (
    RATE_RANGE_HZ,
    hz_to_rad,
    memory_kernel_smooth,
    rad_to_hz,
    spectral_density,
)

TWO_PI = 2.0 * math.pi


def test_unit_conversion_roundtrip():
    assert hz_to_rad(1.0) == TWO_PI
    assert rad_to_hz(TWO_PI) == 1.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = 10.0 ** rng.uniform(-3, 9)
        assert abs(rad_to_hz(hz_to_rad(x)) - x) <= 1e-15 * x



_CONVERTERS = {"hz_to_rad", "rad_to_hz"}


def _converter_uses(source):
    """(top-level scope, name) of every unit converter a module imports or names;
    the scope is the enclosing top-level function or class, None at module level."""
    uses = set()
    for top in ast.parse(source).body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
            if name in _CONVERTERS:
                uses.add((scope, name))
    return uses


def test_library_layers_leave_unit_conversion_to_the_cli():
    """Units are converted once, at the CLI boundary: model defines rad_to_hz and
    hz_to_rad and cli calls them, and no other module imports or names either,
    so every library result (sweeps included) is in rad/s.  One use is allowed:
    epsolver._ep_drive's NonPhysicalEp message names the offending drive
    coordinate in Hz, as the config key it reports; epsolver imports rad_to_hz
    for that message alone."""
    allowed = {"epsolver": {(None, "rad_to_hz"), ("_ep_drive", "rad_to_hz")}}
    package = Path(eprenorm.__file__).parent
    checked = set()
    for path in sorted(package.glob("*.py")):
        if path.stem not in ("cli", "model"):
            assert _converter_uses(path.read_text()) == allowed.get(path.stem, set()), path.stem
            checked.add(path.stem)
    assert {"charpoly", "embedcheck", "epsolver", "response", "spectral"} <= checked
    assert _converter_uses((package / "cli.py").read_text())  # the check sees real uses

def test_system_params_validation():
    good = dict(omega_m=1.0, kappa=0.1, gamma=0.01, omega_c=1.0)
    for key in ("omega_m", "kappa", "omega_c"):
        with pytest.raises(ValueError):
            SystemParams(**{**good, key: 0.0})
        with pytest.raises(ValueError):
            SystemParams(**{**good, key: -1.0})
    with pytest.raises(ValueError):
        SystemParams(**{**good, "gamma": -1.0})
    # lossless mechanics is a legitimate limit
    p = SystemParams(**{**good, "gamma": 0.0})
    assert p.g_c == 0.0


def test_pseudomode_coupling_value(params):
    assert params.g_c == pytest.approx(
        math.sqrt(params.gamma * params.omega_c / 2.0), rel=1e-15
    )


def test_unresolved_sideband_warns(tmp_path):
    with pytest.warns(UserWarning) as record:
        SystemParams(omega_m=1.0, kappa=2.0, gamma=0.1, omega_c=1.0)
    # The warning points at the constructing line, not into the dataclass __init__.
    assert record[0].filename == __file__
    with pytest.warns(UserWarning) as record:
        SystemParams.from_hz(freq_hz=1.0, kappa_hz=2.0, gamma_hz=0.1, cutoff_hz=1.0)
    assert record[0].filename == __file__
    # Through load_config too, it names the caller's line, not one in config.py.
    path = tmp_path / "unresolved.ini"
    path.write_text("[mechanics]\nfreq_hz = 1e6\ngamma_hz = 4.5e6\n[cavity]\nkappa_hz = 5e6\n")
    with pytest.warns(UserWarning) as record:
        load_config(str(path))
    assert record[0].filename == __file__


def test_from_hz_dict_roundtrip(params):
    d = params.as_hz_dict()
    assert d["mechanics.freq_hz"] == pytest.approx(1e6, rel=1e-12)
    assert d["cavity.kappa_hz"] == pytest.approx(0.2e6, rel=1e-12)
    assert d["mechanics.gamma_hz"] == pytest.approx(5e3, rel=1e-12)
    assert d["bath.cutoff_hz"] == pytest.approx(1e6, rel=1e-12)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveParams(delta=-1.0, g=-0.1)
    DriveParams(delta=1.0, g=0.0)  # blue detuning and zero drive are allowed
    DriveParams(delta=0.0, g=0.0)  # zero, below the rate range, is allowed


@pytest.mark.parametrize(
    "cls, field, key",
    [
        (SystemParams, "omega_m", "mechanics.freq_hz"),
        (SystemParams, "kappa", "cavity.kappa_hz"),
        (SystemParams, "gamma", "mechanics.gamma_hz"),
        (SystemParams, "omega_c", "bath.cutoff_hz"),
        (DriveParams, "delta", "drive.detuning_hz"),
        (DriveParams, "g", "drive.coupling_hz"),
    ],
)
def test_rate_range_names_the_config_key(cls, field, key):
    """Every nonzero rate lies within RATE_RANGE_HZ in magnitude, ends
    included; one float past either end is refused by its config key, with
    a value that, read back, lies past the end too (not the end itself)."""
    low, high = (hz_to_rad(x) for x in RATE_RANGE_HZ)
    ends = {
        SystemParams: dict(omega_m=high, kappa=low, gamma=low, omega_c=high),
        DriveParams: dict(delta=-high, g=low),
    }[cls]
    cls(**ends)
    for bad in (math.nextafter(high, math.inf), math.nextafter(low, 0.0)):
        with pytest.raises(ValueError, match=rf"^{key} = \S+ Hz: a nonzero rate must lie within") as info:
            cls(**{**ends, field: bad})
        shown = float(str(info.value).split(" = ")[1].split(" Hz")[0])
        assert shown == rad_to_hz(bad) or not RATE_RANGE_HZ[0] <= abs(shown) <= RATE_RANGE_HZ[1]


_GOOD_SYSTEM = dict(omega_m=6.28e6, kappa=1.26e6, gamma=3.1e4, omega_c=6.28e6)
_GOOD_DRIVE = dict(delta=-6.28e6, g=3.0e5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "cls, field",
    [(SystemParams, key) for key in _GOOD_SYSTEM] + [(DriveParams, key) for key in _GOOD_DRIVE],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_params_reject_non_finite(cls, field, value):
    """Library callers get a ValueError naming the field, not a later solver failure."""
    good = _GOOD_SYSTEM if cls is SystemParams else _GOOD_DRIVE
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**{**good, field: value})


def test_drive_hz_roundtrip(drive):
    d = drive.as_hz_dict()
    assert d["drive.detuning_hz"] == pytest.approx(-1e6, rel=1e-12)
    assert d["drive.coupling_hz"] == pytest.approx(48.75e3, rel=1e-12)


def test_spectral_density_shape(params):
    p = params
    assert spectral_density(p, 0.0) == 0.0
    assert spectral_density(p, p.omega_c) == pytest.approx(p.gamma / 2.0, rel=1e-14)
    assert spectral_density(p, -p.omega_c) == pytest.approx(p.gamma / 2.0, rel=1e-14)
    # flat (white) limit far above the cutoff
    far = spectral_density(p, 1e7 * p.omega_c)
    assert abs(far - p.gamma) <= 1e-12 * p.gamma
    grid = np.linspace(0.0, 5.0 * p.omega_c, 200)
    vals = spectral_density(p, grid)
    assert np.all(np.diff(vals) > 0.0)


def test_memory_kernel_shape(params):
    p = params
    amp = p.gamma * p.omega_c / 2.0
    assert memory_kernel_smooth(p, 0.0) == -amp
    t = 0.37 / p.omega_c
    assert memory_kernel_smooth(p, t) == memory_kernel_smooth(p, -t)
    ratio = memory_kernel_smooth(p, 2.0 * t) / memory_kernel_smooth(p, t)
    assert ratio == pytest.approx(math.exp(-p.omega_c * t), rel=1e-12)


def test_drift_markovian_entries(params, drive):
    m = drift_markovian(params, drive)
    assert m.shape == (2, 2)
    assert m[0, 0] == 1j * drive.delta - params.kappa / 2.0
    assert m[0, 1] == -1j * drive.g
    assert m[1, 0] == -1j * drive.g
    assert m[1, 1] == -(1j * params.omega_m + params.gamma / 2.0)


def test_drift_nonmarkovian_entries(params, drive):
    m = drift_nonmarkovian(params, drive)
    assert m.shape == (3, 3)
    m2 = drift_markovian(params, drive)
    assert np.array_equal(m[:2, :2], m2)
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0
    assert m[1, 2] == -params.g_c
    assert m[2, 1] == -params.g_c
    assert m[2, 2] == -params.omega_c


def test_drift_trace(params, drive):
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        tr = np.trace(drift_nonmarkovian(p, d))
        expect = (
            1j * d.delta - p.kappa / 2.0 - 1j * p.omega_m - p.gamma / 2.0 - p.omega_c
        )
        assert abs(tr - expect) <= 1e-12 * abs(expect)

