"""Acceptance suite: ten end-to-end criteria at the representative parameter
set, one per test, each printing a single pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the lines print regardless of
capture settings)."""

import dataclasses
import json
import math
import time

import numpy as np

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    cooperativity,
    dip_metrics,
    drift_markovian,
    drift_nonmarkovian,
    eigensystem,
    markovian_ep,
    mech_renorm,
    perturbative_ep,
    reflection,
    schur_effective_block,
    solve_exact_ep,
    sweep_eigs,
    sweep_petermann,
)
from eprenorm.charpoly import char_cubic, cubic_roots
from eprenorm.cli import main
from eprenorm.model import hz_to_rad, rad_to_hz
from eprenorm.response import susceptibilities
from eprenorm.spectral import petermann

# Coordinates of the exact exceptional point at the default parameter set,
# pinned to full double precision (same values as in test_epsolver).
REF_DELTA_KHZ = -998.6850325947265
REF_G_KHZ = 49.37501085439698
REF_LAMBDA_KHZ = complex(-50.62337558715875, -998.7174990285765)
REF_LAMBDA3_KHZ = complex(-1001.2532488256825, -1.2500345375734)


def _run(capsys, num, desc, fn):
    try:
        detail = fn()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL {desc}")
        raise
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[criterion {num:02d}] PASS {desc}{suffix}")


def _khz(value_rad):
    return rad_to_hz(value_rad) / 1e3


def _pseudo_index(es, omega_c):
    return int(np.argmin(np.abs(es.lambdas + omega_c)))


def test_criterion_01_markovian_coordinates_via_cli(capsys, tmp_path):
    def body():
        out = tmp_path / "ep.json"
        t0 = time.perf_counter()
        code = main(["--out", str(out), "--json", "ep"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        table = json.loads(out.read_text())["ep"]
        assert abs(table["markovian_delta_khz"] - (-1000.0)) <= 1e-9 * 1000.0
        assert abs(table["markovian_g_khz"] - 48.75) <= 1e-9 * 48.75
        assert elapsed < 1.0
        return f"delta = -1000 kHz, g = 48.75 kHz in {elapsed:.2f} s"

    _run(capsys, 1, "closed-form coalescence coordinates from the ep command", body)


def test_criterion_02_perturbative_shifts(capsys, params):
    def body():
        mk = markovian_ep(params)
        pert = perturbative_ep(params)
        shift_d = _khz(pert.delta_ep - mk.delta_ep)
        shift_g = _khz(pert.g_ep - mk.g_ep)
        assert abs(shift_d - 1.25) <= 1e-9 * 1.25
        assert abs(shift_g - 0.625) <= 1e-9 * 0.625
        return f"detuning +{shift_d:.6g} kHz, coupling +{shift_g:.6g} kHz"

    _run(capsys, 2, "first-order memory shifts of the coalescence point", body)


def test_criterion_03_exact_coordinates(capsys, params):
    def body():
        t0 = time.perf_counter()
        sol = solve_exact_ep(params)
        elapsed = time.perf_counter() - t0
        assert abs(_khz(sol.delta_ep) - REF_DELTA_KHZ) <= 1e-6 * abs(REF_DELTA_KHZ)
        assert abs(_khz(sol.g_ep) - REF_G_KHZ) <= 1e-6 * REF_G_KHZ
        lam_khz = complex(_khz(sol.lambda_ep.real), _khz(sol.lambda_ep.imag))
        l3_khz = complex(_khz(sol.lambda_3.real), _khz(sol.lambda_3.imag))
        assert abs(lam_khz - REF_LAMBDA_KHZ) <= 0.01
        assert abs(l3_khz - REF_LAMBDA3_KHZ) <= 0.01
        assert elapsed < 1.0
        return f"(delta, g) = ({_khz(sol.delta_ep):.10g}, {_khz(sol.g_ep):.10g}) kHz"

    _run(capsys, 3, "numerically exact coalescence coordinates", body)


def test_criterion_04_third_root_identity(capsys, params):
    def body():
        sol = solve_exact_ep(params)
        q = char_cubic(params, sol.drive)
        lhs = 2.0 * sol.lambda_ep + sol.lambda_3
        assert abs(lhs + q.c2) <= 1e-9 * abs(q.c2)
        return f"lambda_3 = {_khz(sol.lambda_3.real):.6g} + {_khz(sol.lambda_3.imag):.6g}i kHz"

    _run(capsys, 4, "root-sum identity fixes the spectator root", body)


def test_criterion_05_petermann_factors(capsys, params):
    def body():
        sol = solve_exact_ep(params)
        mk = markovian_ep(params)

        es = eigensystem(drift_nonmarkovian(params, sol.drive))
        pseudo = _pseudo_index(es, params.omega_c)
        hybrids = [i for i in range(3) if i != pseudo]
        assert all(es.divergent[i] for i in hybrids)
        assert min(es.petermann[i] for i in hybrids) >= 1e10
        k3 = es.petermann[pseudo]
        assert abs(k3 - 1.0025) <= 5e-4
        assert not es.divergent[pseudo]

        calib = eigensystem(drift_nonmarkovian(params, mk.drive))
        pseudo_c = _pseudo_index(calib, params.omega_c)
        ks = [calib.petermann[i] for i in range(3) if i != pseudo_c]
        assert all(abs(k - 27.6) <= 0.5 for k in ks)
        assert abs(calib.petermann[pseudo_c] - 1.0025) <= 5e-4
        assert not calib.divergent.any()
        return f"hybrid pair K >= 1e10 at the exact point; K = {ks[0]:.4g} at the closed-form point"

    _run(capsys, 5, "mode nonorthogonality at and near the coalescence", body)


def test_criterion_06_sweep_structure(capsys, params):
    def body():
        mk = markovian_ep(params)
        sol = solve_exact_ep(params)
        grid = [hz_to_rad(k * 1e3) for k in np.linspace(40.0, 60.0, 401)]

        sweep = sweep_eigs(params, mk.delta_ep, grid)
        min_gap = math.inf
        for lambdas in sweep.lambdas:
            pseudo = min(range(3), key=lambda i: abs(lambdas[i] + params.omega_c))
            hyb = [lambdas[i] for i in range(3) if i != pseudo]
            min_gap = min(min_gap, abs(hyb[0] - hyb[1]))
        assert min_gap > 0.0

        pet = sweep_petermann(params, sol.delta_ep, grid)
        best = max(
            range(len(grid)),
            key=lambda row: max(
                pet.petermann[row, i]
                for i in range(3)
                if i != min(range(3), key=lambda k: abs(pet.lambdas[row, k] + params.omega_c))
            ),
        )
        best_khz = _khz(grid[best])
        step_khz = 20.0 / 400.0
        assert abs(best_khz - _khz(sol.g_ep)) <= step_khz + 1e-12
        return f"min branch gap {_khz(min_gap):.3f} kHz; peak at {best_khz:.4g} kHz"

    _run(capsys, 6, "avoided crossing and nonorthogonality peak across the sweep", body)


def test_criterion_07_reflection_dips(capsys, params):
    def body():
        t0 = time.perf_counter()
        mk = markovian_ep(params)
        sol = solve_exact_ep(params)
        dip_mk = dip_metrics(params, mk.drive, markovian=True)
        dip_nm = dip_metrics(params, sol.drive)
        elapsed = time.perf_counter() - t0
        assert abs(dip_mk.r_sq_min - 0.65) <= 0.01
        assert abs(dip_nm.r_sq_min - 0.81) <= 0.01
        window = 25.0 * params.gamma
        assert abs(dip_mk.omega_min - params.omega_m) <= window
        assert abs(dip_nm.omega_min - params.omega_m) <= window
        assert elapsed < 5.0
        return (
            f"|r|^2 minima {dip_mk.r_sq_min:.4f} (memoryless) and "
            f"{dip_nm.r_sq_min:.4f} (dressed)"
        )

    _run(capsys, 7, "reflection dip depth and location for both models", body)


def test_criterion_08_cooperativity_ratio(capsys, params):
    def body():
        sol = solve_exact_ep(params)
        coop = cooperativity(params, sol.drive)
        ratio = coop.c_eff / coop.c
        assert abs(ratio - 2.0) <= 1e-6
        assert abs(ratio - params.gamma / mech_renorm(params).gamma_eff) <= 1e-9
        return f"C_eff / C = {ratio:.9f}"

    _run(capsys, 8, "bath renormalization doubles the cooperativity", body)


def test_criterion_09_embedding_cross_check(capsys, params, drive):
    def body():
        from eprenorm import compare_embeddings, convergence_order

        t_final = 20.0 / params.kappa
        dt = 1.0 / (100.0 * params.omega_m)
        err = compare_embeddings(params, drive, (1.0, 1.0), t_final, dt)
        order, ratio = convergence_order(params, drive, (1.0, 1.0, 0.0), t_final)
        assert err < 1e-6
        assert ratio >= 12.0
        assert order >= 3.6
        return f"max relative deviation {err:.2e}, observed order {order:.3f}"

    _run(capsys, 9, "auxiliary-mode embedding agrees with direct convolution", body)


def test_criterion_10_randomized_invariants(capsys):
    def body():
        n = 100

        # (a) factorization of the determinant through the reduced block
        rng = np.random.default_rng(1001)
        for _ in range(n):
            p = draw_system(rng)
            d = draw_drive(rng, p)
            m = drift_nonmarkovian(p, d)
            scale = max(p.omega_m, p.kappa, p.omega_c, abs(d.delta))
            for _ in range(50):
                lam = complex(rng.normal(scale=scale), rng.normal(scale=scale))
                det = complex(np.linalg.det(lam * np.eye(3) - m))
                if abs(det) >= 1e-6 * scale**3 and abs(lam + p.omega_c) >= 1e-3 * p.omega_c:
                    break
            block = schur_effective_block(p, d, lam)
            reduced = (lam + p.omega_c) * complex(np.linalg.det(lam * np.eye(2) - block))
            assert abs(det - reduced) <= 1e-8 * abs(det)

        # (b) Petermann factors are normalization-independent
        rng = np.random.default_rng(1002)
        for _ in range(n):
            p = draw_system(rng)
            d = draw_drive(rng, p)
            es = eigensystem(drift_nonmarkovian(p, d))
            alpha = complex(rng.normal(), rng.normal())
            assert abs(petermann(alpha * es.rights[0]) - es.petermann[0]) <= 1e-12 * es.petermann[0]

        # (c) root sums and products against matrix trace and determinant
        rng = np.random.default_rng(1003)
        for _ in range(n):
            p = draw_system(rng)
            d = draw_drive(rng, p)
            q = char_cubic(p, d)
            roots = cubic_roots(q)
            m = drift_nonmarkovian(p, d)
            scale = max(abs(r) for r in roots)
            assert abs(sum(roots) - np.trace(m)) <= 1e-9 * scale
            pair = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            assert abs(pair - q.c1) <= 1e-9 * max(scale**2, abs(q.c1))
            prod = roots[0] * roots[1] * roots[2]
            assert abs(prod - complex(np.linalg.det(m))) <= 1e-9 * max(
                scale**3, abs(q.c0)
            )

        # (d) noise-transfer magnitude equals the bath spectral weight
        rng = np.random.default_rng(1004)
        for _ in range(n):
            p = draw_system(rng)
            d = draw_drive(rng, p)
            for w in np.logspace(2, 8, 5):
                s = susceptibilities(p, d, float(w))
                ref = p.gamma * w**2 / (w**2 + p.omega_c**2)
                assert abs(abs(s.eta) ** 2 - ref) <= 1e-12 * ref

        # (e) removing the memory collapses every quantity onto the
        # two-mode model
        rng = np.random.default_rng(1005)
        for _ in range(n):
            p = dataclasses.replace(draw_system(rng), gamma=0.0)
            d = draw_drive(rng, p)
            lams3 = sorted(
                eigensystem(drift_nonmarkovian(p, d)).lambdas,
                key=lambda z: (z.imag, z.real),
            )
            lams2 = sorted(
                (complex(z) for z in np.linalg.eigvals(drift_markovian(p, d))),
                key=lambda z: (z.imag, z.real),
            )
            expected = sorted(lams2 + [complex(-p.omega_c)], key=lambda z: (z.imag, z.real))
            scale = max(abs(z) for z in expected)
            assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(lams3, expected))

            w = p.omega_m * (0.5 + rng.random())
            with_mem = reflection(p, d, w, markovian=False)
            without = reflection(p, d, w, markovian=True)
            assert abs(with_mem.r - without.r) <= 1e-12 * max(1.0, abs(without.r))

            exact = solve_exact_ep(p)
            mk = markovian_ep(p)
            assert abs(exact.delta_ep - mk.delta_ep) <= 1e-10 * abs(mk.delta_ep)
            assert abs(exact.g_ep - mk.g_ep) <= 1e-10 * mk.g_ep

        return "5 invariant families x 100 seeded draws"

    _run(capsys, 10, "randomized structural invariants", body)
