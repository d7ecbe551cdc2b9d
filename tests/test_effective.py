"""Effective potential reduction, evaluation, characteristic function."""

import numpy as np
import pytest

from epbeat import (ConfigError, CouplingSpec, Grid, PoleProximityError,
                    ProblemSpec, block_operator, characteristic,
                    eval_ep, find_roots, ep_from_poles,
                    gaussian_bump_basis, hamiltonian_g, project_coupling,
                    recurse_ep, reduce_block)
from epbeat.verification import random_instance, two_well_instance
from instances import ep_well_alignment, zero_coupling_instance
from epbeat import effective
from epbeat.effective import POLE_GUARD_FACTOR


def single_well_instance():
    """Attractive instance with one dominant interaction well."""
    xi_grid = Grid.uniform(9, (0.0, 1.0))
    q_grid = Grid.uniform(32, (0.0, 1.0))
    basis = gaussian_bump_basis(2, q_grid, delta_eps=0.6)
    xi = xi_grid.points
    q = q_grid.points
    envelope = np.exp(-((xi - 0.5) ** 2) / (2 * 0.08 ** 2))
    radial = np.exp(-((q[:, None] - xi[None, :]) ** 2) / (2 * 0.35 ** 2))
    samples = -5.0 * radial * envelope[None, :]
    coupling = CouplingSpec(kind="custom_sampled", samples=samples)
    return ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=0.02, g_potential=np.zeros(9))


def pipeline_upto_ep(spec):
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    q, ep = reduce_block(block_operator(spec, v), spec.n_g, spec.modes.eps[0])
    return v, q, ep


def scalar_ep(a=0.0, poles=(2.0,), weights=(1.0,)):
    return ep_from_poles(np.array([[a]]), list(poles),
                      np.array([list(weights)]), n_channels=1)


class TestAssemble:
    def test_zero_coupling_residues_vanish(self):
        spec = zero_coupling_instance()
        v, q, ep = pipeline_upto_ep(spec)
        for w_k in ep.to_dict()["residue_factors"]:
            assert np.all(w_k == 0.0)
        eta = float(ep.poles.max() + 10.0)
        assert np.allclose(eval_ep(ep, eta), ep.h0)

    def test_scalar_schur_reduction(self):
        # one grid cell, one extra mode: pole = hg + V_11 + eps_10,
        # residue weight = V_01^2
        hg, v00, v01, v11, eps10 = 0.7, -0.2, 0.4, -0.5, 1.3
        op = np.array([[hg + v00, v01], [v01, hg + v11 + eps10]])
        _, ep = reduce_block(op, 1, eps0=0.0)
        assert ep.poles[0] == pytest.approx(hg + v11 + eps10)
        assert float(ep.w[0, 0] ** 2) == pytest.approx(v01 ** 2)

    def test_generic_instance_rank_one_residues(self):
        spec = random_instance(12)
        v, q, ep = pipeline_upto_ep(spec)
        assert ep.poles.size == (spec.n_tot - 1) * spec.n_g
        for w_k in ep.to_dict()["residue_factors"]:
            r = w_k @ w_k.T
            s = np.linalg.svd(r, compute_uv=False)
            assert s[1:].max() <= 1e-10 * s[0]  # rank 1
            # PSD with a single positive eigenvalue
            vals = np.linalg.eigvalsh(r)
            assert vals.min() >= -1e-12 * max(s[0], 1.0)

    def test_pole_merging_sums_rank(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        ep = ep_from_poles(np.zeros((2, 2)), [3.0, 3.0], vecs, n_channels=1)
        assert ep.poles.size == 1
        assert ep.ranks.tolist() == [2] and ep.w.shape == (2, 2)
        assert np.allclose(ep.w @ ep.w.T, np.eye(2))


class TestEvalEP:
    def test_large_eta_asymptotics(self):
        spec = random_instance(4)
        _, _, ep = pipeline_upto_ep(spec)
        eta = 1e6 * ep.span
        dev = np.abs(eval_ep(ep, eta) - ep.h0).max()
        total_residue = float(np.sum(ep.w * ep.w))
        assert dev <= 2.0 * total_residue / (eta - ep.poles.max())

    def test_pole_guard(self):
        # the guard is at rounding level: a billionth off the pole, V_eff
        # is well defined
        ep = scalar_ep()
        with pytest.raises(PoleProximityError, match="resonance"):
            eval_ep(ep, 2.0)
        with pytest.raises(PoleProximityError):
            eval_ep(ep, 2.0 + 0.1 * POLE_GUARD_FACTOR * ep.span)
        assert eval_ep(ep, 2.0 + 1e-9)[0, 0] == pytest.approx(1e9)

    def test_scalar_value(self):
        ep = scalar_ep(a=0.5, poles=(2.0,), weights=(1.5,))
        assert eval_ep(ep, 3.0)[0, 0] == pytest.approx(0.5 + 1.5 ** 2)

    def test_exactly_symmetric_output(self):
        spec = random_instance(9)
        _, _, ep = pipeline_upto_ep(spec)
        for eta in (ep.poles.min() - 1.3, ep.poles.max() + 0.7):
            m = eval_ep(ep, eta)
            assert np.array_equal(m, m.T)

    def test_batch_matches_the_per_pole_sum(self, monkeypatch):
        # the reference: h0 + sum_k W_k W_k^T / (eta - p_k), pole by pole
        _, _, ep = pipeline_upto_ep(random_instance(9))
        etas = np.concatenate([ep.poles[:-1] + 0.5 * np.diff(ep.poles),
                               [ep.poles.min() - 1.3, ep.poles.max() + 0.7]])
        factors = ep.to_dict()["residue_factors"]
        want = np.array([ep.h0 + sum(f @ f.T / (eta - p)
                                     for f, p in zip(factors, ep.poles))
                         for eta in etas])
        got = eval_ep(ep, etas)
        assert got.shape == (etas.size, ep.n_g, ep.n_g)
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-12 * np.abs(want).max())
        assert np.array_equal(got[3], eval_ep(ep, etas[3]))
        # one eta per pass through the batch loop: the same matrices
        monkeypatch.setattr(effective, "EP_BATCH_BYTES", 1)
        assert np.array_equal(eval_ep(ep, etas), got)


class TestCharacteristic:
    def test_diagonal_zero_coupling(self):
        ep = ep_from_poles(np.diag([1.0, 3.0]), [], np.zeros((2, 0)),
                        n_channels=0)
        for eta in (0.0, 2.0, 5.0):
            assert characteristic(ep, eta) == pytest.approx(
                (1.0 - eta) * (3.0 - eta))
        assert abs(characteristic(ep, 1.0)) < 1e-12

    def test_scalar_quadratic_roots(self):
        # F(eta) = -eta + 1/(eta-2): roots 1 +- sqrt(2)
        ep = scalar_ep(a=0.0, poles=(2.0,), weights=(1.0,))
        for root in (1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)):
            assert abs(characteristic(ep, root)) < 1e-12

    def test_sign_flips_across_simple_poles(self):
        ep = scalar_ep(a=0.0, poles=(1.0, 2.0, 4.0), weights=(0.5, 0.7, 0.3))
        for p in ep.poles:
            below = characteristic(ep, p - 1e-5)
            above = characteristic(ep, p + 1e-5)
            assert np.sign(below) != np.sign(above)

    def test_interlacing_one_root_per_gap(self):
        ep = scalar_ep(a=0.3, poles=(0.0, 1.5, 2.5, 5.0),
                       weights=(0.6, 0.8, 0.4, 0.9))
        for lo, hi in zip(ep.poles[:-1], ep.poles[1:]):
            xs = np.linspace(lo + 1e-6, hi - 1e-6, 2000)
            fs = characteristic(ep, xs)
            flips = np.sum(np.sign(fs[:-1]) != np.sign(fs[1:]))
            assert flips == 1

    def test_leading_behavior_at_infinity(self):
        spec = random_instance(15)
        _, _, ep = pipeline_upto_ep(spec)
        n_g = ep.n_g
        for sign in (+1.0, -1.0):
            eta = sign * 1e6 * ep.span
            ratio = characteristic(ep, eta) / ((-eta) ** n_g)
            assert ratio == pytest.approx(1.0, rel=1e-4)


class TestWellAlignment:
    def test_zero_coupling_reports_v00_minimum(self):
        spec = zero_coupling_instance()
        v, q, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        hg_diag = hamiltonian_g(spec).diagonal()
        report = ep_well_alignment(ep, float(sr.roots[0]), sr.vectors[0],
                                   hg_diag)
        v00 = ep.h0.diagonal() - hg_diag
        assert report.well_index == int(np.argmin(v00))
        assert np.allclose(report.profile, v00, atol=1e-12)

    def test_single_well_coincidence(self):
        spec = single_well_instance()
        v, q, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        report = ep_well_alignment(ep, float(sr.roots[0]), sr.vectors[0],
                                   hamiltonian_g(spec).diagonal())
        assert report.aligned
        assert report.well_index == report.density_index

    def test_two_well_each_root_own_well(self):
        spec = two_well_instance()
        v, q, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        # two lowest roots live in separate wells and each drags the
        # effective well onto itself
        seen_wells = set()
        for i in (0, 1):
            report = ep_well_alignment(ep, float(sr.roots[i]), sr.vectors[i],
                                       hamiltonian_g(spec).diagonal())
            assert report.aligned
            seen_wells.add(report.well_index)
        assert len(seen_wells) == 2

    def test_bad_root_rejected(self):
        spec = single_well_instance()
        v, q, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        from epbeat import NumericalError
        with pytest.raises(NumericalError, match="residual"):
            ep_well_alignment(ep, float(sr.roots[0]) + 0.05, sr.vectors[0],
                              hamiltonian_g(spec).diagonal())


def trailing_spectrum(op, n_g, level):
    """Independent oracle: eigvalsh of the operator level `level` reduces."""
    return np.linalg.eigvalsh(op[(level - 1) * n_g:, (level - 1) * n_g:])


class TestRecurse:
    def test_depth_one_matches_assemble(self):
        spec = random_instance(21)
        v, q, ep = pipeline_upto_ep(spec)
        levels = recurse_ep(spec, block_operator(spec, v), 1)
        assert len(levels) == 1
        assert np.array_equal(levels[0].poles, ep.poles)
        assert np.array_equal(levels[0].h0, ep.h0)
        assert np.array_equal(levels[0].raw_poles, ep.raw_poles)

    def test_depth_two_reproduces_truncated_spectrum(self):
        spec = random_instance(33)
        while spec.n_tot < 3:
            spec = random_instance(spec.n_g + 100)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        op = block_operator(spec, v)
        levels = recurse_ep(spec, op, 2)
        assert len(levels) == 2
        sr2 = find_roots(levels[1])
        direct = trailing_spectrum(op, spec.n_g, 2)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(np.sort(sr2.roots) - direct).max() <= 1e-7 * scale

    def test_raw_poles_are_the_next_levels_spectrum(self):
        # level k's raw poles are the eigenvalues of level k + 1's operator
        spec = random_instance(0)
        while spec.n_tot < 4:
            spec = random_instance(spec.n_g + 200)
        op = block_operator(spec, project_coupling(spec.modes, spec.coupling,
                                                   spec.xi_grid))
        levels = recurse_ep(spec, op, spec.n_tot - 1)
        assert len(levels) == spec.n_tot - 1
        for k, ep in enumerate(levels, start=1):
            direct = trailing_spectrum(op, spec.n_g, k + 1)
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(ep.raw_poles - direct).max() <= 1e-12 * scale
            assert ep.n_channels == spec.n_tot - k

    def test_depth_outside_one_to_n_tot_minus_one(self):
        spec = random_instance(2)
        op = block_operator(spec, project_coupling(spec.modes, spec.coupling,
                                                   spec.xi_grid))
        assert len(recurse_ep(spec, op, spec.n_tot - 1)) == spec.n_tot - 1
        for depth in (0, spec.n_tot):
            with pytest.raises(ConfigError, match="depth"):
                recurse_ep(spec, op, depth)

    def test_depth_two_needs_three_modes(self):
        gen = np.random.default_rng(0)
        spec = ProblemSpec(
            xi_grid=Grid.uniform(4, (0.0, 1.0)),
            modes=gaussian_bump_basis(2, Grid.uniform(24, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="gaussian_attractive", strength=0.5,
                                  width=0.3),
            g_stiffness=0.2, g_potential=gen.uniform(-1, 1, 4))
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        with pytest.raises(ConfigError, match="N_tot"):
            recurse_ep(spec, block_operator(spec, v), 2)
