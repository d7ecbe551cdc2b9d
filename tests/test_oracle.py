"""Direct dense treatment of the full coupled problem."""

import numpy as np
import pytest

from epbeat import (CouplingSpec, Grid, NumericalError, ProblemSpec,
                    block_operator, compare_spectra, direct_spectrum,
                    gaussian_bump_basis, hamiltonian_g, project_coupling)
from epbeat import oracle
from epbeat.verification import random_instance


class TestDirectSpectrum:
    def test_zero_coupling_cartesian_sums(self):
        gen = np.random.default_rng(4)
        spec = ProblemSpec(
            xi_grid=Grid.uniform(4, (0.0, 1.0)),
            modes=gaussian_bump_basis(3, Grid.uniform(24, (0, 1)), 0.9),
            coupling=CouplingSpec(kind="gaussian_attractive", strength=0.0,
                                  width=0.3),
            g_stiffness=0.25, g_potential=gen.uniform(-1, 1, 4))
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        energies, _ = direct_spectrum(spec, v)
        lam = np.linalg.eigvalsh(hamiltonian_g(spec))
        expected = np.sort([e + l for e in spec.modes.eps for l in lam])
        assert np.allclose(energies, expected, atol=1e-10)

    def test_self_consistent_residuals(self):
        spec = random_instance(31)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        h = block_operator(spec, v)
        energies, vectors = direct_spectrum(spec, v)
        etas = energies - spec.modes.eps[0]
        resid = np.linalg.norm(h @ vectors - vectors * etas, axis=0)
        assert resid.max() <= 1e-9 * np.linalg.norm(h)

    def test_reconstruction(self):
        spec = random_instance(2)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        h = block_operator(spec, v)
        energies, vectors = direct_spectrum(spec, v)
        recon = (vectors * (energies - spec.modes.eps[0])) @ vectors.T
        assert np.linalg.norm(h - recon) <= 1e-9 * np.linalg.norm(h)

    def test_dimension_cap(self, monkeypatch):
        spec = random_instance(13)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        monkeypatch.setattr(oracle, "DIMENSION_CAP", 3)
        with pytest.raises(NumericalError, match="cap 3"):
            direct_spectrum(spec, v)


class TestCompareSpectra:
    def test_identical_lists(self):
        r = compare_spectra([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.passed
        assert r.max_abs_dev == 0.0
        assert r.matched_pairs == 3
        assert not r.unmatched_a and not r.unmatched_b

    def test_within_tolerance(self):
        r = compare_spectra([1.0, 2.0], [1.0 + 1e-9, 2.0])
        assert r.passed
        assert r.max_abs_dev == pytest.approx(1e-9)

    def test_different_lengths_fail(self):
        r = compare_spectra([1.0, 2.0, 3.0], [1.0, 3.0])
        assert not r.passed
        assert r.matched_pairs == 2
        assert list(r.unmatched_a) == [2.0]

    def test_exceeding_tolerance_fails(self):
        r = compare_spectra([1.0, 2.0], [1.0, 2.1])
        assert not r.passed

    def test_reads_its_tolerance_at_call_time(self, monkeypatch):
        # deviation 1e-9 over the scale 2: inside EP_EXACTNESS_TOL, and
        # outside a tolerance set on the module
        assert oracle.EP_EXACTNESS_TOL == 1e-7
        a, b = [1.0, 2.0], [1.0, 2.0 + 2e-9]
        assert compare_spectra(a, b).passed
        monkeypatch.setattr(oracle, "EP_EXACTNESS_TOL", 0.5e-9)
        r = compare_spectra(a, b)
        assert r.max_rel_dev == pytest.approx(1e-9) and not r.passed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fails_equal_length(self, bad):
        for a, b in [([1.0, 2.0], [1.0, bad]), ([1.0, bad], [1.0, 2.0]),
                     ([bad, 2.0], [bad, 2.0])]:
            r = compare_spectra(a, b)
            assert not r.passed
            assert r.max_abs_dev != 0.0  # a NaN deviation is not dropped

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fails_greedy(self, bad):
        for a, b in [([1.0, bad, 3.0], [1.0, 3.0]),
                     ([1.0, 3.0], [1.0, 2.0, bad])]:
            r = compare_spectra(a, b)
            assert not r.passed
