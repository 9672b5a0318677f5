"""Input-output reflection response, dip metrics, cooperativities."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    SystemParams,
    cooperativity,
    dip_metrics,
    markovian_ep,
    mech_renorm,
    reflection,
    solve_exact_ep,
    spectrum,
)
from eprenorm.charpoly import char_cubic, cubic_roots
from eprenorm.errors import SingularDenominator
from eprenorm import cli, response
from eprenorm.config import load_config
from eprenorm.model import hz_to_rad, rad_to_hz
from eprenorm.response import susceptibilities


def test_susceptibilities_closed_forms(params, drive):
    w = 1.03 * params.omega_m
    s = susceptibilities(params, drive, w)
    assert s.chi_a_inv == params.kappa / 2.0 - 1j * (w + drive.delta)
    assert s.chi_b_inv == params.gamma / 2.0 - 1j * (w - params.omega_m)
    assert s.chi_c_inv == params.omega_c - 1j * w
    assert s.chi_b_eff_inv == s.chi_b_inv - params.g_c**2 / s.chi_c_inv
    assert s.d_denom == s.chi_a_inv * s.chi_b_eff_inv + drive.g**2


def test_eta_vanishes_at_zero_frequency(params, drive):
    assert susceptibilities(params, drive, 0.0).eta == 0.0


def test_dressed_mechanics_at_matched_cutoff(params, drive):
    """With Omega_c = omega_m the dressed inverse susceptibility at the
    mechanical line is gamma/4 - i*gamma/4."""
    assert params.omega_c == params.omega_m
    s = susceptibilities(params, drive, params.omega_m)
    ref = params.gamma / 4.0 - 1j * params.gamma / 4.0
    assert abs(s.chi_b_eff_inv - ref) < 1e-12 * abs(ref)


def test_dressing_disappears_without_memory(params, drive):
    p0 = dataclasses.replace(params, gamma=0.0)
    s = susceptibilities(p0, drive, 0.7 * params.omega_m)
    assert s.chi_b_eff_inv == s.chi_b_inv


def test_eta_magnitude_and_two_path_form(params, drive):
    """|eta|^2 equals the bath spectral weight gamma*w^2/(w^2+Omega_c^2) and
    eta matches the direct-plus-scattered decomposition."""
    for w in np.logspace(2, 8, 25):
        s = susceptibilities(params, drive, float(w))
        ref = params.gamma * w**2 / (w**2 + params.omega_c**2)
        assert abs(abs(s.eta) ** 2 - ref) < 1e-12 * ref
        two_path = (
            math.sqrt(params.gamma)
            - params.g_c * math.sqrt(2.0 * params.omega_c) / s.chi_c_inv
        )
        assert abs(s.eta - two_path) < 1e-12 * math.sqrt(params.gamma)


def test_reflection_bare_cavity_on_resonance(params):
    d = DriveParams(delta=-params.omega_m, g=0.0)
    pt = reflection(params, d, params.omega_m)
    assert abs(pt.r - (-1.0)) < 1e-12


def test_reflection_off_resonant_limit(params, drive):
    pt = reflection(params, drive, -drive.delta + 50.0 * params.kappa)
    assert abs(pt.r_sq - 1.0) < 1e-3


def test_reflection_memoryless_on_resonance_value(params):
    mk = markovian_ep(params)
    pt = reflection(params, mk.drive, params.omega_m, markovian=True)
    ref = (1.0 - params.kappa / (params.kappa / 2.0 + 2.0 * mk.g_ep**2 / params.gamma)) ** 2
    assert abs(pt.r_sq - ref) < 1e-12


def test_reflection_dual_forms_agree():
    rng = np.random.default_rng(307)
    for _ in range(15):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        for w in np.linspace(0.5 * p.omega_m, 1.5 * p.omega_m, 21):
            for markov in (False, True):
                try:
                    pt = reflection(p, d, float(w), markovian=markov)
                except SingularDenominator:
                    continue
                assert abs(pt.r - pt.s_aa) < 1e-12 * max(1.0, abs(pt.r))


def test_reflection_singular_denominator(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    d0 = DriveParams(delta=-params.omega_m, g=0.0)
    with pytest.raises(SingularDenominator):
        reflection(p0, d0, params.omega_m, markovian=True)


def test_spectrum_flags_singular_rows(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    d0 = DriveParams(delta=-params.omega_m, g=0.0)
    grid = [params.omega_m - params.kappa, params.omega_m, params.omega_m + params.kappa]
    spec = spectrum(p0, d0, grid, markovian=True)
    assert spec.singular.tolist() == [False, True, False]
    assert math.isnan(spec.r_sq[1])
    assert not math.isnan(spec.r_sq[0]) and not math.isnan(spec.r_sq[2])


def test_spectrum_arrays_match_pointwise_reflection():
    """Each Spectrum entry equals the one-point evaluation, and the singular
    mask is exactly the set where one-point reflection raises."""
    rng = np.random.default_rng(4011)
    cases = []
    for _ in range(6):
        p = draw_system(rng)
        cases += [
            (p, draw_drive(rng, p), False),
            (p, solve_exact_ep(p).drive, False),
            (p, markovian_ep(p).drive, True),
        ]
        # memoryless and uncoupled: D = 0 at omega_m, and one ulp above it
        # |D| is below the singular threshold without being zero
        p0 = dataclasses.replace(p, gamma=0.0)
        cases.append((p0, DriveParams(delta=-p.omega_m, g=0.0), True))
    n_singular = 0
    for p, d, markov in cases:
        grid = np.linspace(0.5 * p.omega_m, 1.5 * p.omega_m, 40)
        grid = np.append(grid, [p.omega_m, np.nextafter(p.omega_m, np.inf)])
        spec = spectrum(p, d, grid, markovian=markov)
        for k, w in enumerate(grid):
            try:
                pt = reflection(p, d, float(w), markovian=markov)
            except SingularDenominator:
                assert spec.singular[k]
                assert np.isnan(spec.r[k]) and np.isnan(spec.r_sq[k])
                n_singular += 1
                continue
            assert not spec.singular[k]
            for name in ("r", "s_aa", "s_axi"):
                [want] = getattr(pt, name)
                got = getattr(spec, name)[k]
                assert abs(got - want) <= 4e-16 * max(1.0, abs(want))
            assert spec.r_sq[k] == pytest.approx(pt.r_sq[0], rel=1e-15, abs=1e-15)
    assert n_singular == 12


def test_reflection_is_a_one_row_spectrum(params, drive):
    """reflection at one probe frequency is spectrum on the grid [omega]: the
    same Spectrum of length-1 arrays, which iterates as one row."""
    pt = reflection(params, drive, params.omega_m)
    spec = spectrum(params, drive, [params.omega_m])
    for field in dataclasses.fields(spec):
        assert getattr(pt, field.name).shape == (1,)
        np.testing.assert_array_equal(getattr(pt, field.name), getattr(spec, field.name))
    [row] = list(pt)
    assert row.r == pt.r[0] and row.singular is False


def test_reflection_raises_at_the_first_singular_probe_frequency(params):
    """Over a grid, reflection names the first point that spectrum flags singular."""
    p0 = dataclasses.replace(params, gamma=0.0)
    d0 = DriveParams(delta=-params.omega_m, g=0.0)
    grid = [params.omega_m - params.kappa, params.omega_m, params.omega_m + params.kappa]
    with pytest.raises(SingularDenominator, match=f"vanishes at omega = {params.omega_m!r}$"):
        reflection(p0, d0, grid, markovian=True)


@pytest.mark.parametrize("grid", [np.zeros((2, 2)), np.float64(1e6)], ids=["2x2", "0-d"])
def test_spectrum_rejects_a_grid_that_is_not_1d(params, drive, grid):
    """A probe grid is one axis of frequencies; it is not flattened, and a bare
    frequency is reflection's to take."""
    with pytest.raises(ValueError, match=re.escape(f"spectrum grid must be 1-D, got shape {grid.shape}")):
        spectrum(params, drive, grid)


def test_dip_search_r_sq_is_the_spectrum_r_sq(params, drive):
    """The dip search's |r|^2 on its coarse grid is spectrum's r_sq, bit for bit,
    with inf where spectrum flags a singular point: one formula for r."""
    rng = np.random.default_rng(16)
    cases = [(params, drive), (params, solve_exact_ep(params).drive)]
    for _ in range(4):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    # a line so narrow and uncoupled that |D| falls below the threshold mid-grid
    cases.append((dataclasses.replace(params, gamma=1e-13 * params.omega_m),
                  DriveParams(delta=-params.omega_m, g=0.0)))
    n_singular = 0
    for p, d in cases:
        grid = response._dip_grid(p)
        for markovian in (False, True):
            spec = spectrum(p, d, grid, markovian=markovian)
            want = np.where(spec.singular, math.inf, spec.r_sq)
            assert np.array_equal(response._r_sq(p, d, grid, markovian), want)
            n_singular += int(spec.singular.sum())
    assert 0 < n_singular < 2 * len(grid)


def test_reflection_unit_magnitude_without_coupling(params):
    d = DriveParams(delta=-params.omega_m, g=0.0)
    for w in np.linspace(0.2 * params.omega_m, 2.0 * params.omega_m, 31):
        pt = reflection(params, d, float(w))
        assert abs(pt.r_sq - 1.0) < 1e-12


def test_spectrum_single_dip_and_depths(params):
    """Across the probe window the dressed spectrum has exactly one interior
    minimum, and it is shallower than the memoryless one."""
    sol = solve_exact_ep(params)
    mk = markovian_ep(params)
    grid = hz_to_rad(np.linspace(900e3, 1100e3, 2001))
    spec = spectrum(params, sol.drive, grid)
    vals = spec.r_sq
    minima = [
        i
        for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]
    ]
    assert len(minima) == 1
    assert abs(rad_to_hz(grid[minima[0]]) - 999.4e3) < 200.0

    dip_nm = dip_metrics(params, sol.drive)
    dip_mk = dip_metrics(params, mk.drive, markovian=True)
    assert dip_mk.r_sq_min < dip_nm.r_sq_min
    assert np.max(np.abs(spec.r - spec.s_aa)) < 1e-12


def test_dip_metrics_values(params):
    sol = solve_exact_ep(params)
    mk = markovian_ep(params)
    dip_mk = dip_metrics(params, mk.drive, markovian=True)
    dip_nm = dip_metrics(params, sol.drive)
    assert abs(dip_mk.r_sq_min - 0.6555) < 0.01
    assert abs(dip_nm.r_sq_min - 0.8146) < 0.01
    assert abs(dip_mk.omega_min - params.omega_m) < hz_to_rad(20.0)
    assert abs(rad_to_hz(dip_nm.omega_min) - 999.360e3) < 50.0
    window = 25.0 * params.gamma
    assert abs(dip_mk.omega_min - params.omega_m) <= window
    assert abs(dip_nm.omega_min - params.omega_m) <= window


def test_dip_metrics_narrow_line(params):
    p_tiny = dataclasses.replace(params, gamma=hz_to_rad(1e-3))
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    dip = dip_metrics(p_tiny, d)
    assert math.isfinite(dip.r_sq_min)
    assert abs(dip.omega_min - params.omega_m) <= 25.0 * p_tiny.gamma


def _one_point_golden_min(f, a, b, xtol):
    """The golden-section loop with one scalar evaluation per point, as dip_metrics ran it before batching."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    while (b - a) > xtol:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    x = (a + b) / 2.0
    return x, f(x)


def _one_point_dip_metrics(p, d, markovian):
    """dip_metrics refined by _one_point_golden_min, one _r_sq call per point."""

    def r_sq_at(omega):
        return response._r_sq(p, d, np.array([omega], dtype=float), markovian).item()

    grid = response._dip_grid(p)
    values = response._r_sq(p, d, grid, markovian)
    k = int(np.argmin(values))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    omega_min, r_min = _one_point_golden_min(r_sq_at, lo, hi, response.DIP_XTOL_GAMMAS * p.gamma)
    if values[k] < r_min:
        omega_min, r_min = float(grid[k]), float(values[k])
    return omega_min, r_min


def _dip_cases(params, drive, n_devices, seed):
    """(p, d) on the defaults at the fixture and exact-EP drives, then n_devices random devices."""
    rng = np.random.default_rng(seed)
    cases = [(params, drive), (params, solve_exact_ep(params).drive)]
    for _ in range(n_devices):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    return cases


def test_dip_metrics_is_the_one_point_golden_section(params, drive):
    """The batched refinement returns the one-point loop's (omega_min, r_sq_min),
    bit for bit and as Python floats, on the defaults, 50 devices and narrow lines
    (gamma = 3e-9 to 1e-7 Hz) where float granularity, not xtol, ends the search."""
    cases = _dip_cases(params, drive, 50, 35)
    for p, d in cases[:12]:
        cases += [(dataclasses.replace(p, gamma=hz_to_rad(g)), d) for g in (0.0, 3e-9, 1e-8, 3e-8, 1e-7)]
    for p, d in cases:
        for markovian in (False, True):
            dip = dip_metrics(p, d, markovian=markovian)
            assert (dip.omega_min, dip.r_sq_min) == _one_point_dip_metrics(p, d, markovian)
            assert type(dip.omega_min) is float and type(dip.r_sq_min) is float


def test_dip_search_is_three_r_sq_calls(params, drive, monkeypatch):
    """A dip search calls _r_sq exactly 3 times at lookaheads L = 3, 4 and 5: the
    coarse scan, then 2 batches for the golden-section refinement.

    The refinement's bracket is the two coarse steps around the scan's minimum,
    2 * (50 gamma / 4000) = 0.025 gamma, and xtol is 1e-3 gamma: a ratio of 25.
    A step shrinks the bracket by 1/phi, and 25 / phi**6 = 1.39 > 1 >= 25 / phi**7
    = 0.86, so the loop takes s = 7 steps (s = 6 from an end of the grid, whose
    bracket is one coarse step).  The first batch holds the two starting points
    and every point of steps 1..L; each later one holds the point the loop lacks,
    every point of the L steps after it and the midpoints where the bracket is
    within xtol.  So s steps take at most ceil((s + 1) / (L + 1)) batches (a point
    the loop finds already held only delays the next one), and at least 2 once
    s > L, as the first batch then lacks the final midpoint: exactly 2 for s = 6
    or 7 and L = 3 to 5.  On the defaults the batches hold 32 and 11 points at L = 4.
    """
    sizes = []
    r_sq = response._r_sq

    def counted(p, d, omega, markovian):
        sizes.append(len(omega))
        return r_sq(p, d, omega, markovian)

    monkeypatch.setattr(response, "_r_sq", counted)
    cases = _dip_cases(params, drive, 200, 36)
    for lookahead in (3, 4, 5):
        monkeypatch.setattr(response, "GOLDEN_LOOKAHEAD", lookahead)
        for p, d in cases:
            for markovian in (False, True):
                sizes.clear()
                dip_metrics(p, d, markovian=markovian)
                assert len(sizes) == 3 and sizes[0] == response.DIP_COARSE_POINTS
                assert max(sizes[1:]) <= 3 * 2**lookahead
    monkeypatch.setattr(response, "GOLDEN_LOOKAHEAD", 4)
    sizes.clear()
    dip_metrics(params, drive)
    assert sizes == [response.DIP_COARSE_POINTS, 32, 11]


def test_golden_min_batches_are_bounded_and_exact():
    """On searches of up to about 50 steps, each f call receives a 1-D array of
    at most 3 * 2**GOLDEN_LOOKAHEAD points, and the result is the one-point
    loop's, bit for bit.  xtol stays far above the float spacing of [a, b],
    where a one-ulp bracket could cycle."""
    bound = 3 * 2**response.GOLDEN_LOOKAHEAD
    rng = np.random.default_rng(37)
    for _ in range(60):
        a = rng.uniform(-10.0, 10.0)
        b = a + 10.0 ** rng.uniform(-3.0, 2.0)
        xtol = (b - a) * 10.0 ** rng.uniform(-10.0, 0.5)
        freq, phase = rng.uniform(0.5, 40.0), rng.uniform(0.0, 2.0 * math.pi)
        sizes = []

        def f(x):
            sizes.append(x.shape)
            return np.cos(freq * x + phase) + 0.01 * x

        got = response._golden_min(f, a, b, xtol)
        want = _one_point_golden_min(lambda x: float(np.cos(freq * x + phase) + 0.01 * x), a, b, xtol)
        assert got == want and type(got[1]) is float
        assert all(len(shape) == 1 and 1 <= shape[0] <= bound for shape in sizes)


# ROADMAP item 16's device: omega_m / 2 pi = 147 kHz with a 2.4e-9 Hz mechanical
# line, so the coarse step is 1.6 ulps of omega_m and xtol 0.13 ulp.  The classic
# loop cycles forever on its dressed dip, between two states of a bracket one ulp
# wide, on values it already holds; its memoryless dip ends after 4,233 points.
ULP_DEVICE_INI = """\
[mechanics]
freq_hz = 147090.40849771973
gamma_hz = 2.4476039329315046e-09
[cavity]
kappa_hz = 206.87759555117393
[bath]
cutoff_hz = 52253.039571337664
[drive]
detuning_hz = -147090.40849771973
coupling_hz = 9.157694522415852
"""

# The child's script: dip_metrics on each (SystemParams fields, DriveParams
# fields, markovian) case of the JSON list on stdin, then _golden_min on the
# identity over [1, 1 + 2**-50] at xtol 0, printed as JSON.
_CHILD_DIPS = """\
import json, sys
import numpy as np
from eprenorm import DriveParams, SystemParams, dip_metrics
from eprenorm.response import _golden_min
dips = [dip_metrics(SystemParams(*p), DriveParams(*d), markovian=m) for p, d, m in json.load(sys.stdin)]
identity = _golden_min(lambda x: x, 1.0, 1.0 + 2.0**-50, 0.0)
print(json.dumps({"dips": [(dip.omega_min, dip.r_sq_min) for dip in dips], "identity": identity}))
"""


def _dips_in_child(cases, timeout=30.0):
    """The child's {"dips": [(omega_min, r_sq_min) per case], "identity": (x, f(x))}.

    Each search runs in a fresh interpreter, so one that never ends fails the
    test at the timeout instead of hanging the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    payload = [(dataclasses.astuple(p), dataclasses.astuple(d), m) for p, d, m in cases]
    try:
        proc = subprocess.run([sys.executable, "-c", _CHILD_DIPS], input=json.dumps(payload),
                              capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"a dip search did not end within {timeout} s")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return [tuple(dip) for dip in out["dips"]], tuple(out["identity"])


def test_dip_search_ends_where_the_classic_loop_cycles(tmp_path):
    """ROADMAP item 16: on its device both dip searches return, the dressed one
    from a cycle of the classic loop, at the bracket's midpoint; the memoryless
    one, which the classic loop ends, with the classic loop's bits.  The
    identity on a one-ulp bracket at xtol 0, the other cycle _golden_min's
    docstring names, stops at its midpoint too."""
    path = tmp_path / "ulp_device.ini"
    path.write_text(ULP_DEVICE_INI)
    p, d = load_config(str(path))
    (dressed, memoryless), identity = _dips_in_child([(p, d, False), (p, d, True)])
    assert memoryless == _one_point_dip_metrics(p, d, True)
    grid = response._dip_grid(p)
    assert grid[0] <= dressed[0] <= grid[-1] and 0.0 <= dressed[1] <= 1.0
    assert identity == (1.0 + 2.0**-51, 1.0 + 2.0**-51)


def _classic_dip_or_none(p, d, markovian, max_steps=20_000):
    """_one_point_dip_metrics with its loop capped at max_steps (None past them)
    and each point's value held, so a cycle costs no _r_sq calls."""
    held = {}

    def r_sq_at(omega):
        if omega not in held:
            held[omega] = response._r_sq(p, d, np.array([omega]), markovian).item()
        return held[omega]

    def capped(f, a, b, xtol):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - invphi * (b - a)
        e = a + invphi * (b - a)
        fc, fe = f(c), f(e)
        for _ in range(max_steps):
            if not (b - a) > xtol:
                x = (a + b) / 2.0
                return x, f(x)
            if fc < fe:
                b, e, fe = e, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, e, fe
                e = a + invphi * (b - a)
                fe = f(e)
        return None

    grid = response._dip_grid(p)
    values = response._r_sq(p, d, grid, markovian)
    k = int(np.argmin(values))
    found = capped(r_sq_at, float(grid[max(k - 1, 0)]), float(grid[min(k + 1, len(grid) - 1)]),
                   response.DIP_XTOL_GAMMAS * p.gamma)
    if found is not None and values[k] < found[1]:
        found = float(grid[k]), float(values[k])
    return found


def test_ulp_regime_dips_end_and_keep_the_classic_bits():
    """On 2,000 dips whose coarse step is 0.3 to 5 ulps of omega_m (xtol below
    the float spacing), with kappa / omega_m = 1e-4 to 1e-2 as on item 16's
    device, every search the capped classic loop ends returns its bits, and the
    searches it does not end (a cycle, some 4 % of them) return as well."""
    rng = np.random.default_rng(1600)
    cycling = []
    for _ in range(1000):
        p = draw_system(rng)
        step_ulps = 10.0 ** rng.uniform(math.log10(0.3), math.log10(5.0))
        p = dataclasses.replace(p, kappa=p.omega_m * 10.0 ** rng.uniform(-4.0, -2.0),
                                gamma=80.0 * step_ulps * float(np.spacing(p.omega_m)))
        d = DriveParams(delta=-p.omega_m, g=p.kappa * rng.uniform(0.0, 1.0))
        for markovian in (False, True):
            want = _classic_dip_or_none(p, d, markovian)
            if want is None:
                cycling.append((p, d, markovian))
            else:
                dip = dip_metrics(p, d, markovian=markovian)
                assert (dip.omega_min, dip.r_sq_min) == want
    assert len(cycling) >= 20
    dips, _ = _dips_in_child(cycling)
    for (p, d, markovian), (omega_min, r_sq_min) in zip(cycling, dips):
        grid = response._dip_grid(p)
        assert grid[0] <= omega_min <= grid[-1] and 0.0 <= r_sq_min <= 1.0


def _bare_response(p, d, omega):
    """The memoryless reflection core written out, as the package formed it while
    it still built chi_c^-1 and the dressed chi_b,eff^-1 on this path too:
    (D, singular mask, r)."""
    chi_a_inv = p.kappa / 2.0 - 1j * (omega + d.delta)
    chi_b_inv = p.gamma / 2.0 - 1j * (omega - p.omega_m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_denom = chi_a_inv * chi_b_inv + d.g**2
        singular = np.abs(d_denom) < 1e-12 * p.kappa * p.omega_m
        r = 1.0 - p.kappa / (chi_a_inv + d.g**2 / chi_b_inv)
        at_zero = chi_b_inv == 0
        r[at_zero] = 1.0 - p.kappa * chi_b_inv[at_zero] / d_denom[at_zero]
    return d_denom, singular, r


def _response_cases(params, drive, n_devices, seed):
    """(p, d, grid): the defaults and n_devices random devices at a random and at
    each EP drive over the dip and spectrum grids, then an uncoupled line of zero
    width whose grid holds omega_m, where D = 0 (a singular point)."""
    cases = []
    for p, d in _dip_cases(params, drive, n_devices, seed):
        grids = (response._dip_grid(p), np.linspace(0.9 * p.omega_m, 1.1 * p.omega_m, 2001))
        for d_case in (d, markovian_ep(p).drive):
            cases += [(p, d_case, grid) for grid in grids]
    p0 = dataclasses.replace(params, gamma=0.0)
    grid = np.array([params.omega_m - params.kappa, params.omega_m, params.omega_m + params.kappa])
    cases.append((p0, DriveParams(delta=-params.omega_m, g=0.0), grid))
    return cases


def test_memoryless_response_is_the_bare_formula(params, drive):
    """_response for the memoryless model forms no bath term, and its D, singular
    mask and r are the bare formulas' bit for bit, singular points included."""
    n_singular = 0
    for p, d, grid in _response_cases(params, drive, 20, 38):
        chi_c_inv, chi_m_inv, d_denom, singular, r = response._response(p, d, grid, True)
        want_d, want_singular, want_r = _bare_response(p, d, grid)
        assert chi_c_inv is None
        assert np.array_equal(chi_m_inv, p.gamma / 2.0 - 1j * (grid - p.omega_m))
        assert np.array_equal(d_denom, want_d) and np.array_equal(singular, want_singular)
        assert np.array_equal(r, want_r, equal_nan=True)
        n_singular += int(singular.sum())
    assert n_singular == 1


def test_printed_r_sq_columns_are_spectrum_r_sq(params, drive):
    """cmd_spectrum's r_sq_markovian and r_sq_nonmarkovian columns are spectrum's
    r_sq at each curve's EP drive, bit for bit, on the defaults and 20 devices,
    and on a grid that holds a singular point (NaN in both); the dip search's
    inf-filled |r|^2 is the same expression."""
    args = cli.build_parser().parse_args(["spectrum"])
    rng = np.random.default_rng(39)
    omegas = hz_to_rad(1e3 * np.linspace(args.omega_min, args.omega_max, args.omega_points))
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        table = cli.cmd_spectrum(args, p, drive)
        assert table.columns == ["omega_khz", "r_sq_markovian", "r_sq_nonmarkovian"]
        for column, ep, markovian in ((1, markovian_ep, True), (2, solve_exact_ep, False)):
            want = spectrum(p, ep(p).drive, omegas, markovian=markovian).r_sq
            assert np.array_equal(table.data[:, column], want)
    # kappa / omega_m = 1e-12 at gamma = 0: at the memoryless EP, |D| = kappa^2 / 16
    # at omega_m is below 1e-12 kappa omega_m.
    p0 = SystemParams.from_hz(freq_hz=1e6, kappa_hz=1e-6, gamma_hz=0.0, cutoff_hz=1e6)
    table = cli.cmd_spectrum(cli.build_parser().parse_args(["spectrum", "--markovian-only"]), p0, drive)
    spec = spectrum(p0, markovian_ep(p0).drive, omegas, markovian=True)
    assert spec.singular.sum() == 1
    assert np.array_equal(table.data[:, 1], spec.r_sq, equal_nan=True)
    for p, d, grid in _response_cases(params, drive, 4, 40):
        for markovian in (False, True):
            spec = spectrum(p, d, grid, markovian=markovian)
            assert np.array_equal(response._r_sq(p, d, grid, markovian, math.nan), spec.r_sq, equal_nan=True)
            assert np.array_equal(response._r_sq(p, d, grid, markovian), np.where(spec.singular, math.inf, spec.r_sq))


def test_dip_metrics_memoryless_limit_degenerates(params):
    """At gamma = 0 the dip window has zero width: in both models the search
    returns omega_m and the spectrum's own |r|^2 there."""
    p0 = dataclasses.replace(params, gamma=0.0)
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    for markovian in (True, False):
        dip = dip_metrics(p0, d, markovian=markovian)
        assert dip.omega_min == p0.omega_m
        assert dip.r_sq_min == spectrum(p0, d, [p0.omega_m], markovian=markovian).r_sq[0]


def test_cooperativity_formulas(params):
    sol = solve_exact_ep(params)
    coop = cooperativity(params, sol.drive)
    assert abs(coop.c - 4.0 * sol.g_ep**2 / (params.kappa * params.gamma)) < 1e-12 * coop.c
    # ratio is the damping renormalization factor, exactly 2 at Omega_c==omega_m
    ratio = coop.c_eff / coop.c
    assert abs(ratio - 2.0) < 1e-12
    assert abs(ratio - params.gamma / mech_renorm(params).gamma_eff) < 1e-12


def test_cooperativity_slow_bath_limit(params):
    p_slow = dataclasses.replace(params, omega_c=1e-3 * params.omega_m)
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    coop = cooperativity(p_slow, d)
    assert abs(coop.c_eff / coop.c - 1.0) < 2e-6


def test_cooperativity_requires_damping(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    with pytest.raises(ValueError):
        cooperativity(p0, DriveParams(delta=-params.omega_m, g=0.1 * params.kappa))


def test_response_poles_match_drift_eigenvalues(params):
    """The response denominator vanishes at probe frequencies i*lambda for
    every eigenvalue lambda of the three-mode drift."""
    sol = solve_exact_ep(params)
    roots = cubic_roots(char_cubic(params, sol.drive))
    for lam in roots:
        s = susceptibilities(params, sol.drive, 1j * lam)
        scale = abs(s.chi_a_inv * s.chi_b_eff_inv) + sol.g_ep**2
        assert abs(s.d_denom) < 1e-9 * scale
