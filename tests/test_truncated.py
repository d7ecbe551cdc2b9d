"""The block operator, the LAPACK-backed eigensolver, and the reduction."""

import warnings

import numpy as np
import pytest

from epbeat import (ConfigError, CouplingSpec, Grid, ModeBasis,
                    NumericalError, ProblemSpec, block_operator,
                    diagonalize_sym, gaussian_bump_basis, hamiltonian_g,
                    project_coupling, reduce_block)


def make_spec(n_tot=3, n_g=5, strength=1.0, seed=1, kind="gaussian_attractive",
              boundary="dirichlet"):
    gen = np.random.default_rng(seed)
    return ProblemSpec(
        xi_grid=Grid.uniform(n_g, (0.0, 1.0), boundary),
        modes=gaussian_bump_basis(n_tot, Grid.uniform(24, (0, 1)), 0.8),
        coupling=CouplingSpec(kind=kind, strength=strength, width=0.25),
        g_stiffness=0.3, g_potential=gen.uniform(-1, 1, n_g))


def reduce_spec(spec, v):
    """The pipeline's reduction of the full operator onto mode 0."""
    return reduce_block(block_operator(spec, v), spec.n_g, spec.modes.eps[0])


def without_cross(v):
    """v' with V_nm = 0 for n != m >= 1: the per-block reading."""
    pb = v.copy()
    cross = ~np.eye(len(v), dtype=bool)
    cross[0, :] = cross[:, 0] = False
    pb[cross] = 0.0
    return pb


class TestBlockOperator:
    def test_matches_kronecker_formula(self):
        # kron(I, h_g) + kron(diag(eps - eps_0), I) + sum kron(E_nm, diag(V_nm))
        for boundary in ("dirichlet", "periodic"):
            spec = make_spec(n_tot=4, n_g=6, boundary=boundary)
            v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
            op = block_operator(spec, v)
            n_tot, n_g = spec.n_tot, spec.n_g
            eps = spec.modes.eps
            expected = (np.kron(np.eye(n_tot), hamiltonian_g(spec))
                        + np.kron(np.diag(eps - eps[0]), np.eye(n_g)))
            for n in range(n_tot):
                for m in range(n_tot):
                    e_nm = np.zeros((n_tot, n_tot))
                    e_nm[n, m] = 1.0
                    expected += np.kron(e_nm, np.diag(v[n, m]))
            assert np.abs(op - expected).max() \
                <= 1e-14 * np.abs(expected).max()
            assert np.array_equal(op, op.T)


class TestBuildTruncated:
    def test_single_block_reduction(self):
        spec = make_spec(n_tot=2, n_g=4)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        mat = block_operator(spec, v)[4:, 4:]
        expected = (hamiltonian_g(spec) + np.diag(v[1, 1])
                    + (spec.modes.eps[1] - spec.modes.eps[0]) * np.eye(4))
        assert np.allclose(mat, expected, atol=1e-14)

    def test_zero_cross_couplings_block_diagonal(self):
        q = Grid.uniform(201, (0.0, 1.0))
        phi = np.array([np.ones(201), np.cos(np.pi * q.points),
                        np.cos(2 * np.pi * q.points)])
        spec = ProblemSpec(
            xi_grid=Grid.uniform(4, (0.0, 1.0)),
            modes=ModeBasis([0.0, 1.0, 2.0], phi, q),
            coupling=CouplingSpec(kind="constant", strength=1.0),
            g_stiffness=0.3, g_potential=np.zeros(4))
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        trunc_op = block_operator(spec, v)[4:, 4:]
        off = trunc_op[:4, 4:]
        assert np.abs(off).max() < 1e-8

    def test_exact_transpose_symmetry(self):
        spec = make_spec(n_tot=4, n_g=6)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        mat = block_operator(spec, v)[6:, 6:]
        assert np.array_equal(mat, mat.T)

    def test_cross_coupling_switch(self):
        spec = make_spec(n_tot=3, n_g=4)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        full = block_operator(spec, v)
        bare = block_operator(spec, without_cross(v))
        assert np.abs(full[4:8, 8:]).max() > 1e-3
        assert np.all(bare[4:8, 8:] == 0.0)
        # mode-0 row and the diagonal blocks are untouched
        assert np.array_equal(full[:4], bare[:4])
        assert np.array_equal(full[4:8, 4:8], bare[4:8, 4:8])


class TestDiagonalizeSym:
    def test_identity(self):
        vals, vecs = diagonalize_sym(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(4), atol=1e-12)

    def test_diagonal_sorted(self):
        vals, vecs = diagonalize_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        for k, col in enumerate(vecs.T):
            assert abs(np.abs(col).max() - 1.0) < 1e-12

    def test_random_reconstruction(self):
        gen = np.random.default_rng(7)
        a = gen.normal(size=(12, 12))
        a = 0.5 * (a + a.T)
        vals, vecs = diagonalize_sym(a)
        recon = (vecs * vals) @ vecs.T
        assert np.linalg.norm(a - recon) <= 1e-9 * np.linalg.norm(a)
        assert np.allclose(vecs.T @ vecs, np.eye(12), atol=1e-9)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NumericalError, match="symmetric"):
            diagonalize_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # the x > tol comparisons were False for NaN: a NaN diagonal
        # came back as a NaN eigenvalue, an inf one as all-NaN values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                diagonalize_sym(np.diag([bad, 1.0, 1.0]))

    def test_accepts_finite_entries_past_the_norm_limit(self):
        # the norm overflows to inf, but every entry is finite
        with np.errstate(over="ignore"):
            vals, _ = diagonalize_sym(np.diag([1e200, 1.0, 1.0]))
        assert vals.tolist() == [1.0, 1.0, 1e200]

    def test_nan_reconstruction_fails(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_values(m):
            vals, vecs = eigh(m)
            return np.full_like(vals, np.nan), vecs

        monkeypatch.setattr(np.linalg, "eigh", nan_values)
        with pytest.raises(NumericalError, match="reconstruction error nan"):
            diagonalize_sym(np.eye(3))

    def test_agrees_with_lapack(self):
        gen = np.random.default_rng(11)
        a = gen.normal(size=(20, 20))
        a = 0.5 * (a + a.T)
        vals, _ = diagonalize_sym(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-10)

    def test_reconstruction_check_reads_the_error(self, monkeypatch):
        # an eigenvalue off by delta leaves ||A - V diag(vals) V^T||_F
        # = delta exactly
        gen = np.random.default_rng(5)
        a = gen.normal(size=(10, 10))
        a = 0.5 * (a + a.T)
        norm = np.linalg.norm(a)
        diagonalize_sym(a)
        eigh = np.linalg.eigh

        def off_by(delta):
            def wrong(m):
                vals, vecs = eigh(m)
                return vals + delta * (np.arange(vals.size) == 9), vecs
            return wrong

        monkeypatch.setattr(np.linalg, "eigh", off_by(3e-9 * norm))
        with pytest.raises(NumericalError, match="exceeds") as err:
            diagonalize_sym(a)
        recon = float(str(err.value).split("error ")[1].split()[0])
        assert recon == pytest.approx(3e-9 * norm, rel=1e-3)
        monkeypatch.setattr(np.linalg, "eigh", off_by(0.5e-9 * norm))
        diagonalize_sym(a)


class TestTruncatedSolution:
    def test_contract_fields(self):
        spec = make_spec(n_tot=3, n_g=5)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        q, ep = reduce_spec(spec, v)
        dim = q.shape[0]
        assert dim == 2 * 5 and ep.poles.size == dim
        assert np.all(np.diff(ep.poles) >= 0)
        gram = q.T @ q
        assert np.allclose(gram, np.eye(dim), atol=1e-9)
        mat = block_operator(spec, v)[5:, 5:]
        residual = np.max(np.linalg.norm(mat @ q - q * ep.poles, axis=0))
        assert residual <= 1e-9 * np.linalg.norm(mat)
        assert ep.raw_pole_count == dim
        assert ep.n_channels == spec.n_tot - 1

    def test_requires_two_modes(self):
        spec = make_spec(n_tot=2, n_g=3)
        n_tot, n_g = spec.n_tot, spec.n_g
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        with pytest.raises(ConfigError):
            block_operator(spec, v[:1, :1])
        # the coupling is one read-only (N_tot, N_tot, N_g) array, and
        # block_operator takes that shape only
        assert isinstance(v, np.ndarray)
        assert v.shape == (n_tot, n_tot, n_g)
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0, 0] = 1.0
        for bad_v in (v[:, :, 0],                          # 2-D
                      np.zeros((n_tot, n_tot, n_g + 1)),   # one xi too many
                      v[:-1, :-1],                         # one mode short
                      v[:, :-1]):                          # not square
            with pytest.raises(ConfigError, match="shape mismatch"):
                block_operator(spec, bad_v)

    def test_spectrum_invariant_under_mode_reordering(self):
        # degenerate pair n=1,2 swapped: same physics, same spectrum
        q = Grid.uniform(64, (0.0, 1.0))
        qq = q.points
        phi = np.array([np.exp(-((qq - 0.2) ** 2) / 0.02),
                        np.exp(-((qq - 0.5) ** 2) / 0.02),
                        np.exp(-((qq - 0.8) ** 2) / 0.02)])
        phi_swapped = phi[[0, 2, 1]]
        eps = [0.0, 1.0, 1.0]
        gen = np.random.default_rng(3)
        pot = gen.uniform(-1, 1, 5)
        specs = []
        for p in (phi, phi_swapped):
            specs.append(ProblemSpec(
                xi_grid=Grid.uniform(5, (0.0, 1.0)),
                modes=ModeBasis(eps, p, q),
                coupling=CouplingSpec(kind="gaussian_attractive",
                                      strength=1.0, width=0.2),
                g_stiffness=0.3, g_potential=pot))
        spectra = []
        for s in specs:
            v = project_coupling(s.modes, s.coupling, s.xi_grid)
            spectra.append(reduce_spec(s, v)[1].poles)
        assert np.allclose(spectra[0], spectra[1], atol=1e-9)

    def test_block_diagonal_union_of_blocks(self):
        spec = make_spec(n_tot=4, n_g=4)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        _, ep = reduce_spec(spec, without_cross(v))
        hg = hamiltonian_g(spec)
        expected = []
        for n in range(1, 4):
            block = hg + np.diag(v[n, n]) \
                + (spec.modes.eps[n] - spec.modes.eps[0]) * np.eye(4)
            expected.extend(np.linalg.eigvalsh(block))
        assert np.allclose(np.sort(expected), ep.poles, atol=1e-9)
