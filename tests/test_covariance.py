"""Dimensional covariance as an exact law of the five subcommands.

Every rate enters the package homogeneously, and every rule that compares
two quantities is relative to a rate scale.  So scaling each rate of a
device, and each rate-valued flag (--g-min/max, --omega-min/max, in kHz), by
2^k scales each value a subcommand computes by 2^k to its dimension, bit for
bit: power-of-two scaling is exact in binary floating point, away from
overflow and the subnormals.  The law is checked on each Table's data and
summary, not on printed bytes, because decimal printing does not commute
with 2^k.  embedcheck's default horizon and step (20/kappa and half the
resolution limit) scale by 2^-k by themselves.
"""

import dataclasses
import functools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import draw_drive, draw_system
from eprenorm import cli, load_config, markovian_ep

# Powers of the rate scale of the summary values that are neither in kHz (power 1)
# nor dimensionless (power 0): the full cubic's |p|, |p'| and |p''| at the EP.
_RATE_POWERS = {
    "residual_p": 3,
    "certificate_p_mag": 3,
    "residual_dp": 2,
    "certificate_dp_mag": 2,
    "second_deriv_mag": 1,
    "certificate_ddp_mag": 1,
}
GRID_POINTS = "21"


def _power(name):
    """Power of the rate scale in a column or summary value named name."""
    return 1 if name.endswith("_khz") else _RATE_POWERS.get(name, 0)


@functools.cache
def _devices():
    """The built-in defaults and 20 draw_system devices, each with a drive."""
    rng = np.random.default_rng(15)
    devices = [load_config(None)]
    for _ in range(20):
        p = draw_system(rng)
        devices.append((p, draw_drive(rng, p)))
    return devices


def _scaled(obj, k):
    """A SystemParams or DriveParams with every rate times 2^k."""
    return dataclasses.replace(obj, **{f.name: math.ldexp(getattr(obj, f.name), k) for f in dataclasses.fields(obj)})


def _argvs(p):
    """(command, argv, rate-valued flags in kHz) of the five subcommands, with the
    coupling grid around the device's memoryless g_ep and the probe grid around omega_m."""
    g_khz = cli._khz(markovian_ep(p).g_ep)
    w_khz = cli._khz(p.omega_m)
    g_flags = {"--g-min": 0.8 * g_khz, "--g-max": 1.2 * g_khz}
    return [
        ("ep", ["ep"], {}),
        ("eigs", ["eigs", "--markovian-ref", "--g-points", GRID_POINTS], g_flags),
        ("petermann", ["petermann", "--delta-mode", "both", "--g-points", GRID_POINTS], g_flags),
        ("spectrum", ["spectrum", "--omega-points", GRID_POINTS], {"--omega-min": 0.9 * w_khz, "--omega-max": 1.1 * w_khz}),
        ("embedcheck", ["embedcheck"], {}),
    ]


def _tables(index, k):
    """command -> Table of device index with every rate and rate-valued flag times 2^k."""
    p, d = _devices()[index]
    parser = cli._shared_parser()
    tables = {}
    for command, argv, flags in _argvs(p):
        rate_flags = [text for flag, value in flags.items() for text in (flag, repr(math.ldexp(value, k)))]
        args = parser.parse_args([*argv, *rate_flags])
        tables[command] = getattr(cli, f"cmd_{command}")(args, _scaled(p, k), _scaled(d, k))
    return tables


_unscaled = functools.cache(lambda index: _tables(index, 0))


def _assert_summary_scales(base, scaled, k, where):
    assert base.keys() == scaled.keys(), where
    for key, value in base.items():
        if isinstance(value, dict):
            _assert_summary_scales(value, scaled[key], k, f"{where}.{key}")
        elif isinstance(value, str):
            assert scaled[key] == value, f"{where}.{key}"
        else:
            assert scaled[key] == math.ldexp(value, _power(key) * k), f"{where}.{key} at k = {k}"


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(k=st.integers(-100, 75))
@example(k=-100)
@example(k=75)
@example(k=-1)
def test_every_subcommand_is_covariant_under_power_of_two_rate_scaling(k):
    """On the defaults and 20 devices, each Table column and summary value of
    ep, eigs, petermann, spectrum and embedcheck equals its unscaled value
    times 2^(k * power), bit for bit (nan to nan, inf to inf), where power is
    1 for kHz, 3, 2 and 1 for |p|, |p'| and |p''|, and 0 for K, the divergent
    flags, |r|^2, the cooperativities and the embedcheck report."""
    for index in range(len(_devices())):
        base, scaled = _unscaled(index), _tables(index, k)
        for command, table in base.items():
            where = f"device {index}, {command}"
            other = scaled[command]
            assert other.code == table.code, where
            if table.summary is not None:
                _assert_summary_scales(table.summary, other.summary, k, where)
            if table.data is None:
                continue
            assert other.columns == table.columns, where
            for name, column, got in zip(table.columns, table.data.T, other.data.T):
                want = np.ldexp(column, _power(name) * k)
                np.testing.assert_array_equal(got, want, err_msg=f"{where}, column {name} at k = {k}")
