"""Root enumeration, certification, and count accounting."""

import numpy as np
import pytest

from epbeat import (block_operator, characteristic, count_accounting,
                    direct_spectrum, ep_from_poles, find_roots, hamiltonian_g,
                    linearize_ep, project_coupling, reduce_block,
                    root_count_below)
from epbeat.verification import (random_instance, two_well_instance,
                                 zero_coupling_instance)


def pipeline_upto_ep(spec):
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    trunc, ep = reduce_block(block_operator(spec, v), spec.n_g,
                             hamiltonian_g(spec).diagonal(), spec.modes.eps[0])
    return v, trunc, ep


def synthetic_full_rank_ep(n_e=2, n_g=3, seed=42):
    """Every pole value replicated N_g times with spanning residues.

    Merging yields N_e*N_g distinct poles of full rank N_g, the
    configuration that attains the full-degree root count.
    """
    gen = np.random.default_rng(seed)
    h0 = np.diag(gen.uniform(-1.0, 1.0, n_g))
    pole_values = np.linspace(2.0, 12.0, n_e * n_g)
    poles, vecs = [], []
    for p in pole_values:
        for i in range(n_g):
            poles.append(p)
            e = np.zeros(n_g)
            e[i] = 0.7 + 0.1 * i
            vecs.append(e)
    return ep_from_poles(h0, poles, np.array(vecs).T, n_channels=n_e)


def count_mismatches(ep, roots, poles=()):
    """(probe, count, roots below) wherever the inertia count disagrees
    with the number of roots below a probe. The probes lie between
    consecutive distinct roots (and poles, if given) and beyond each end."""
    marks = np.unique(np.concatenate([roots, poles]))
    probes = np.concatenate([[marks[0] - 1.0], 0.5 * (marks[:-1] + marks[1:]),
                             [marks[-1] + 1.0]])
    mismatches = []
    for eta in probes:
        got, want = root_count_below(ep, eta), int(np.sum(roots < eta))
        if got != want:
            mismatches.append((float(eta), got, want))
    return mismatches


class TestLinearize:
    def test_zero_coupling_reduces_to_h0(self):
        spec = zero_coupling_instance()
        _, _, ep = pipeline_upto_ep(spec)
        lin = linearize_ep(ep)
        assert lin.shape == (spec.n_g, spec.n_g)  # all residues decoupled
        assert np.allclose(lin, ep.h0)

    def test_scalar_two_by_two(self):
        ep = ep_from_poles(np.array([[0.0]]), [2.0], np.array([[1.0]]),
                        n_channels=1)
        lin = linearize_ep(ep)
        assert np.allclose(lin, [[0.0, 1.0], [1.0, 2.0]])
        vals = np.linalg.eigvalsh(lin)
        assert np.allclose(vals, [1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)])

    def test_eigenvalues_equal_inertia_counts(self):
        spec = random_instance(301)
        _, _, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        assert sr.roots.size == spec.n_tot * spec.n_g
        assert count_mismatches(ep, sr.roots) == []


class TestFindRoots:
    def test_zero_coupling_roots_are_h0_spectrum(self):
        spec = zero_coupling_instance()
        _, _, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        assert np.allclose(np.sort(sr.roots), np.linalg.eigvalsh(ep.h0),
                           atol=1e-9)
        assert len(sr.decoupled_poles) == ep.poles.size

    def test_scalar_quadratic_case(self):
        ep = ep_from_poles(np.array([[0.0]]), [2.0], np.array([[1.0]]),
                        n_channels=1)
        sr = find_roots(ep)
        assert np.allclose(sr.roots, [1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)])
        assert np.allclose(np.abs(sr.vectors), 1.0)

    def test_matches_direct_full_spectrum(self):
        spec = random_instance(101)
        v, trunc, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        energies, _ = direct_spectrum(spec, v)
        scale = max(np.abs(energies).max(), 1.0)
        assert sr.energies.size == energies.size
        assert np.abs(np.sort(sr.energies) - energies).max() <= 1e-7 * scale

    def test_vectors_satisfy_effective_equation(self):
        spec = random_instance(8)
        _, _, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        from epbeat import eval_ep
        for i in range(sr.roots.size):
            eta = float(sr.roots[i])
            psi = sr.vectors[i]
            resid = np.linalg.norm(eval_ep(ep, eta) @ psi - eta * psi)
            assert resid <= 1e-7 * ep.span


    def test_certification_failure_raises(self, monkeypatch):
        from epbeat import NumericalError, spectrum
        _, _, ep = pipeline_upto_ep(random_instance(8))
        monkeypatch.setattr(spectrum, "ROOT_RESIDUAL_FACTOR", 1e-30)
        with pytest.raises(NumericalError, match="failed certification"):
            find_roots(ep)

    def test_residual_max_matches_per_root_oracle(self):
        # one root at a time, over the linearization's eigenpairs:
        # R_j = ||h0 x_j + W y_j - eta_j x_j|| / ||x_j||
        for spec in (random_instance(8), random_instance(843),
                     two_well_instance()):
            _, _, ep = pipeline_upto_ep(spec)
            sr = find_roots(ep)
            vals, vecs = np.linalg.eigh(linearize_ep(ep))
            w_all = np.hstack(ep.residue_factors)
            oracle = 0.0
            for eta, v in zip(vals, vecs.T):
                x, y = v[:ep.n_g], v[ep.n_g:]
                r = np.linalg.norm(ep.h0 @ x + w_all @ y - eta * x)
                oracle = max(oracle, r / np.linalg.norm(x))
            assert abs(sr.residual_max - oracle) <= 1e-12 * ep.span

    def test_weakly_coupled_poles_certified_in_order(self):
        # residues of 1e-12 leave roots 2e-13 above poles 5 and 8, far
        # inside the former guard of 1e-9 x span; they are certified,
        # not excluded
        ep = ep_from_poles(np.array([[0.0]]), [2.0, 5.0, 8.0],
                           np.array([[1.0, 1e-6, 1e-6]]), n_channels=1)
        sr = find_roots(ep)
        acc = count_accounting(sr)
        assert acc["measured_roots"] == acc["rank_accounting"] == 4
        assert sr.excluded == ()
        assert np.all(np.diff(sr.roots) > 0.0)
        assert np.allclose(sr.roots[[0, 1]],
                           [1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)])
        gaps = sr.roots[[2, 3]] - np.array([5.0, 8.0])
        assert np.all((gaps > 0.0) & (gaps < 1e-12))
        assert count_mismatches(ep, sr.roots, ep.poles) == []


class TestAccounting:
    def test_full_degree_count_formula(self):
        # N_e=2 (N_tot=3), N_g=3: N_g (N_e N_g + 1) = 3 * 7 = 21
        spec = random_instance(241)
        assert (spec.n_tot, spec.n_g) == (3, 3)
        _, _, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        acc = count_accounting(sr)
        assert acc["full_degree_count"] == 21

    def test_simple_poles_measured_equals_linear_dimension(self):
        spec = random_instance(241)
        v, trunc, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        acc = count_accounting(sr)
        assert acc["measured_roots"] == 9 == spec.n_tot * spec.n_g
        assert acc["measured_equals_rank_accounting"]
        assert not acc["degree_bound_attained"]  # rank-1 gap flagged
        assert not acc["all_residues_full_rank"]

    def test_synthetic_degenerate_attains_degree_bound(self):
        ep = synthetic_full_rank_ep(n_e=2, n_g=3)
        sr = find_roots(ep)
        acc = count_accounting(sr)
        assert acc["full_degree_count"] == 21
        assert acc["measured_roots"] == 21
        assert acc["degree_bound"] == 21
        assert acc["degree_bound_attained"]
        assert acc["all_residues_full_rank"]
        # the independent inertia count sees the same 21 roots
        assert count_mismatches(ep, sr.roots) == []
        assert root_count_below(ep, sr.roots.max() + 1.0) == 21

    def test_rank_accounting_on_random_batch(self):
        for seed in range(40, 60):
            spec = random_instance(seed)
            _, _, ep = pipeline_upto_ep(spec)
            sr = find_roots(ep)
            acc = count_accounting(sr)
            assert acc["measured_roots"] == acc["rank_accounting"]
            assert acc["measured_roots"] <= acc["degree_bound"]

    def test_verdict_strings(self):
        spec = random_instance(1)
        _, _, ep = pipeline_upto_ep(spec)
        acc = count_accounting(find_roots(ep))
        assert acc["verdicts"][0].startswith("measured = rank accounting: yes")
        assert "consistent" in acc["verdicts"][1]


class TestInertiaCount:
    def test_each_interpole_interval_accounts_for_its_roots(self):
        spec = random_instance(348)
        _, _, ep = pipeline_upto_ep(spec)
        sr = find_roots(ep)
        assert count_mismatches(ep, sr.roots, ep.poles) == []

    def test_even_multiplicity_root(self):
        # F = (a - eta)^2: no sign change for a scan to see, yet a double
        # root that the count reports as 2
        a = 0.75
        ep = ep_from_poles(a * np.eye(2), [], np.zeros((2, 0)), n_channels=0)
        assert characteristic(ep, a - 0.5) > 0.0
        assert characteristic(ep, a + 0.5) > 0.0
        assert root_count_below(ep, a - 0.5) == 0
        assert root_count_below(ep, a + 0.5) == 2
        assert np.allclose(find_roots(ep).roots, [a, a])

    def test_counts_every_random_instance(self):
        for seed in range(100):
            _, _, ep = pipeline_upto_ep(random_instance(seed))
            assert count_mismatches(ep, find_roots(ep).roots) == [], seed
