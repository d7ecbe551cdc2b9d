"""Grids, operators, mode bases, and coupling projection."""

import numpy as np
import pytest

from epbeat import (ConfigError, CouplingSpec, Grid, ModeBasis, ProblemSpec,
                    build_problem, gaussian_bump_basis, hamiltonian_g,
                    project_coupling)
from epbeat.model import gaussian
from epbeat.verification import random_instance, two_well_instance

# <phi_0, phi_1> for 3 bump modes on [0,1], frozen from a 16385-point
# quadrature (8193-point grid agrees to 3.3e-10)
BUMP_OVERLAP_FINE = 0.9481648660249766


def orthonormal_cosine_basis(n_modes, q_grid):
    q = q_grid.points
    phi = [np.ones_like(q)]
    for n in range(1, n_modes):
        phi.append(np.cos(n * np.pi * q))
    return ModeBasis(np.arange(n_modes, dtype=float), np.array(phi), q_grid)


class TestGrid:
    def test_uniform_dirichlet_trapezoid(self):
        g = Grid.uniform(8, (0.0, 1.0))
        assert g.n == 8
        assert np.allclose(np.diff(g.points), 1.0 / 7)
        h = 1.0 / 7
        assert g.weights[0] == pytest.approx(h / 2)
        assert g.weights[3] == pytest.approx(h)
        assert g.weights.sum() == pytest.approx(1.0)

    def test_periodic_uniform_weights(self):
        g = Grid.uniform(4, (0.0, 4.0), boundary="periodic")
        assert np.allclose(g.points, [0, 1, 2, 3])
        assert np.allclose(g.weights, 1.0)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError, match=r"^grid\.n: "):
            Grid.uniform(0, (0.0, 1.0))
        with pytest.raises(ConfigError, match=r"^grid\.n: "):
            Grid(1, (0.0, 1.0))
        with pytest.raises(ConfigError, match=r"^modes\.q_n: "):
            Grid(1, (0.0, 1.0), field="modes.q_")
        for span in ((1.0, 0.0), (0.5, 0.5)):
            with pytest.raises(ConfigError, match=r"^grid\.span: "):
                Grid(3, span)
            with pytest.raises(ConfigError, match=r"^modes\.q_span: "):
                Grid(3, span, field="modes.q_")
        with pytest.raises(ConfigError, match=r"^grid\.boundary: "):
            Grid(4, (0.0, 1.0), "absorbing")

    def test_uneven_points_rejected(self):
        # hamiltonian_g reads one spacing, points[1] - points[0]: a span
        # whose computed points are not finite and evenly spaced (far
        # from the origin for its width, overflowing, subnormal) is
        # refused, naming the span's field
        for span in ((1e6, 1e6 + 1e-6), (-1e308, 1e308), (0.0, 1e-320)):
            with pytest.raises(ConfigError, match=r"^grid\.span: "):
                Grid(8, span)
            with pytest.raises(ConfigError, match=r"^modes\.q_span: "):
                Grid.uniform(8, span, field="modes.q_")
        assert Grid(8, (1e6, 2e6)).spacing == pytest.approx(1e6 / 7)

    @pytest.mark.parametrize("boundary", ("dirichlet", "periodic"))
    @pytest.mark.parametrize("n", (2, 8, 1000))
    @pytest.mark.parametrize("span", ((-3.0, 11.0), (-1.0, -0.0),
                                      (-0.0, 1.0)))
    def test_arrays_are_the_trapezoid_formulas(self, n, span, boundary):
        # reference: the even trapezoid grid, written out
        a, b = span
        if boundary == "periodic":
            h = (b - a) / n
            points, weights = a + h * np.arange(n), np.full(n, h)
        else:
            points = np.linspace(a, b, n)
            h = points[1] - points[0]
            weights = np.full(n, h)
            weights[0] = weights[-1] = h / 2
        grid = Grid(n, span, boundary)
        assert grid.n == n and grid.span == span
        # bit for bit, the sign of a zero included
        assert grid.points.tobytes() == points.tobytes()
        assert grid.weights.tobytes() == weights.tobytes()

    def test_uniform_grids_are_shared_and_read_only(self):
        grid = Grid.uniform(8, (0.0, 1.0))
        assert Grid.uniform(8, [0, 1.0], "dirichlet") is grid
        assert Grid.uniform(8, (0.0, 1.0), "periodic") is not grid
        for a in (grid.points, grid.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5.0
        # 0.0 == -0.0, but a -0.0 end is a different last point
        minus = Grid.uniform(3, (-1.0, -0.0))
        assert np.signbit(minus.points[-1])
        assert not np.signbit(Grid.uniform(3, (-1.0, 0.0)).points[-1])
        # a cached success does not bypass the checks or their field names
        with pytest.raises(ConfigError, match=r"^modes\.q_n: "):
            Grid.uniform(1, (0.0, 1.0), field="modes.q_")
        with pytest.raises(ConfigError, match=r"^grid\.span: "):
            Grid.uniform(8, (1.0, 0.0))
        assert Grid.uniform(8, (0.0, 1.0)) is grid

    def test_unknown_boundary(self):
        with pytest.raises(ConfigError, match="boundary"):
            Grid.uniform(4, (0.0, 1.0), boundary="absorbing")


class TestHamiltonianG:
    def test_dirichlet_stencil(self):
        spec = ProblemSpec(
            xi_grid=Grid.uniform(3, (0.0, 2.0)),
            modes=gaussian_bump_basis(2, Grid.uniform(16, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="constant", strength=0.0),
            g_stiffness=1.0, g_potential=np.zeros(3))
        h = hamiltonian_g(spec)
        assert np.array_equal(h, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])

    def test_zero_stiffness_is_potential(self):
        pot = np.array([1.0, -2.0, 0.5, 3.0])
        spec = ProblemSpec(
            xi_grid=Grid.uniform(4, (0.0, 1.0)),
            modes=gaussian_bump_basis(2, Grid.uniform(16, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="constant", strength=0.0),
            g_stiffness=0.0, g_potential=pot)
        assert np.array_equal(hamiltonian_g(spec), np.diag(pot))

    def test_periodic_circulant(self):
        spec = ProblemSpec(
            xi_grid=Grid.uniform(4, (0.0, 4.0), boundary="periodic"),
            modes=gaussian_bump_basis(2, Grid.uniform(16, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="constant", strength=0.0),
            g_stiffness=1.0, g_potential=np.zeros(4))
        h = hamiltonian_g(spec)
        assert np.array_equal(h[0], [2, -1, 0, -1])
        for i in range(4):
            assert np.array_equal(h[i], np.roll(h[0], i))

    def test_exact_symmetry(self):
        gen = np.random.default_rng(5)
        spec = ProblemSpec(
            xi_grid=Grid.uniform(7, (0.0, 1.0)),
            modes=gaussian_bump_basis(2, Grid.uniform(16, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="constant", strength=0.0),
            g_stiffness=0.37, g_potential=gen.uniform(-1, 1, 7))
        h = hamiltonian_g(spec)
        assert np.array_equal(h, h.T)  # bit-identical


class TestModeBases:
    def test_given_spectrum_passthrough(self):
        q = Grid.uniform(32, (0.0, 1.0))
        basis = orthonormal_cosine_basis(3, q)
        assert np.array_equal(basis.eps, [0.0, 1.0, 2.0])
        norms = basis.phi ** 2 @ q.weights
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_rows_are_divided_by_their_quadrature_norm(self):
        q = Grid.uniform(24, (0.0, 1.0))
        phi = np.random.default_rng(2).uniform(-3.0, 3.0, (3, 24))
        given = phi.copy()
        basis = ModeBasis([0.0, 1.0, 1.0], given, q)
        want = phi / np.sqrt(phi ** 2 @ q.weights)[:, None]
        assert basis.phi.tobytes() == want.tobytes()
        assert np.array_equal(given, phi)  # the input is not rescaled
        assert not basis.phi.flags.writeable
        assert np.allclose(basis.phi ** 2 @ q.weights, 1.0, rtol=0,
                           atol=8 * np.finfo(float).eps)

    def test_all_zero_mode_rejected(self):
        # a row whose squared norm is zero, subnormal, overflows or is
        # NaN has no norm to divide out
        q = Grid.uniform(8, (0.0, 1.0))
        for scale in (0.0, 1e-170, 1e-160, 1e200, np.nan):
            phi = np.ones((2, 8))
            phi[1] *= scale
            with pytest.raises(ConfigError, match=r"^modes\.phi: .*zero"):
                ModeBasis([0.0, 1.0], phi, q)

    def test_bump_normalization_contract(self):
        for n_q in (17, 33, 65):
            q = Grid.uniform(n_q, (0.0, 1.0))
            basis = gaussian_bump_basis(4, q, delta_eps=0.5)
            norms = basis.phi ** 2 @ q.weights
            assert np.allclose(norms, 1.0, atol=1e-10)
            assert np.allclose(basis.eps, [0.0, 0.5, 1.0, 1.5])

    def test_bump_profiles_are_shared_and_read_only(self):
        q_grid = Grid.uniform(24, (0.0, 1.0))
        a = gaussian_bump_basis(4, q_grid, delta_eps=0.5)
        b = gaussian_bump_basis(4, q_grid, delta_eps=1.25)
        assert b.phi is a.phi and b.overlap_factor is a.overlap_factor
        assert np.array_equal(a.eps, 0.5 * np.arange(4))
        assert np.array_equal(b.eps, 1.25 * np.arange(4))
        for arr in (a.phi, a.overlap_factor, a.eps):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 5.0
        other_grid = Grid.uniform(24, (0.0, 2.0))
        assert gaussian_bump_basis(4, other_grid, 0.5).phi is not a.phi
        assert gaussian_bump_basis(4, q_grid, 0.5).eps is not a.eps

    def test_bump_overlap_converges_to_fine_quadrature(self):
        # refined-quadrature oracle: frozen fine-grid value above
        errs = []
        for n_q in (33, 65, 129, 257):
            q = Grid.uniform(n_q, (0.0, 1.0))
            basis = gaussian_bump_basis(3, q, delta_eps=1.0)
            overlap = float(np.sum(q.weights * basis.phi[0] * basis.phi[1]))
            errs.append(abs(overlap - BUMP_OVERLAP_FINE))
        assert errs == sorted(errs, reverse=True)  # monotone refinement
        assert errs[-1] < 5e-7


def test_gaussian_reads_zero_at_the_float_limit_without_a_warning():
    # the exponent overflows for a far x, or for any x off the center
    # once 2 w^2 is subnormal; exp(-inf) = 0
    x = np.array([0.0, 1e-150, 1e200])
    assert gaussian(x, 0.0, 1.0).tolist() == [1.0, 1.0, 0.0]
    assert gaussian(x, 0.0, 1e-160).tolist() == [1.0, 0.0, 0.0]
    assert gaussian(x[:, None], x[None, :], 1.0).diagonal().tolist() \
        == [1.0, 1.0, 1.0]


class TestProjectCoupling:
    def test_zero_kernel(self):
        xi = Grid.uniform(5, (0.0, 1.0))
        basis = gaussian_bump_basis(3, Grid.uniform(16, (0, 1)), 1.0)
        v = project_coupling(basis,
                             CouplingSpec(kind="gaussian_attractive",
                                          strength=0.0, width=0.3), xi)
        assert np.all(v == 0.0)

    def test_constant_kernel_orthonormal_modes(self):
        xi = Grid.uniform(5, (0.0, 1.0))
        basis = orthonormal_cosine_basis(3, Grid.uniform(201, (0.0, 1.0)))
        v = project_coupling(basis, CouplingSpec(kind="constant", strength=2.0),
                             xi)
        for n in range(3):
            for m in range(3):
                target = -2.0 if n == m else 0.0
                assert np.allclose(v[n, m], target, atol=1e-9)

    def test_symmetry_in_mode_indices(self):
        xi = Grid.uniform(6, (0.0, 1.0))
        basis = gaussian_bump_basis(4, Grid.uniform(24, (0, 1)), 0.7)
        v = project_coupling(basis,
                             CouplingSpec(kind="gaussian_attractive",
                                          strength=1.3, width=0.2), xi)
        assert np.abs(v - v.transpose(1, 0, 2)).max() < 1e-12

    def test_gaussian_diag_nonpositive(self):
        xi = Grid.uniform(6, (0.0, 1.0))
        basis = gaussian_bump_basis(3, Grid.uniform(24, (0, 1)), 1.0)
        v = project_coupling(basis,
                             CouplingSpec(kind="gaussian_attractive",
                                          strength=0.8, width=0.3), xi)
        for n in range(3):
            assert np.all(v[n, n] <= 1e-15)

    def test_matches_refined_quadrature(self):
        # 4x-refined oracle, gaussian kernel, N_tot=3, N_g=8
        xi = Grid.uniform(8, (0.0, 1.0))
        coup = CouplingSpec(kind="gaussian_attractive", strength=1.0,
                            width=0.25)
        n_base = 641
        base = Grid.uniform(n_base, (0.0, 1.0))
        fine = Grid.uniform(4 * (n_base - 1) + 1, (0.0, 1.0))
        vb = project_coupling(gaussian_bump_basis(3, base, 1.0), coup, xi)
        vf = project_coupling(gaussian_bump_basis(3, fine, 1.0), coup, xi)
        assert np.abs(vb - vf).max() < 1e-6

    def test_second_order_quadrature_convergence(self):
        xi = Grid.uniform(8, (0.0, 1.0))
        coup = CouplingSpec(kind="gaussian_attractive", strength=1.0,
                            width=0.25)
        ref = project_coupling(
            gaussian_bump_basis(3, Grid.uniform(3073, (0, 1)), 1.0), coup,
            xi)
        errs, hs = [], []
        for n_q in (13, 25, 49, 97):
            g = Grid.uniform(n_q, (0.0, 1.0))
            vv = project_coupling(gaussian_bump_basis(3, g, 1.0), coup, xi)
            errs.append(np.abs(vv - ref).max())
            hs.append(g.spacing)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.9

    @pytest.mark.parametrize("name", ["random_0_99", "two_well", "5x40"])
    def test_matches_per_q_accumulation(self, name):
        # sum_q w_q phi_n(q) V(q, xi) phi_m(q), accumulated one q at a time
        if name == "random_0_99":
            specs = [random_instance(seed) for seed in range(100)]
        elif name == "two_well":
            specs = [two_well_instance()]
        else:
            specs = [build_problem({
                "grid": {"n": 40},
                "modes": {"count": 5, "delta_eps": 0.7},
                "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                             "sigma": 0.2},
                "hg": {"stiffness": 0.1, "potential": {
                    "kind": "double_well", "depth": 1, "width": 0.08,
                    "centers": [0.3, 0.7]}}})]
        for spec in specs:
            phi, q_grid = spec.modes.phi, spec.modes.q_grid
            kern = spec.coupling.kernel(q_grid.points, spec.xi_grid.points)
            ref = np.zeros((spec.n_tot, spec.n_tot, spec.n_g))
            for k, w in enumerate(q_grid.weights):
                ref += w * np.multiply.outer(np.outer(phi[:, k], phi[:, k]),
                                             kern[k])
            v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
            assert v.shape == ref.shape
            assert np.abs(v - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(v, v.transpose(1, 0, 2))

    def test_sample_shape_mismatch(self):
        xi = Grid.uniform(5, (0.0, 1.0))
        basis = gaussian_bump_basis(3, Grid.uniform(16, (0, 1)), 1.0)
        bad = CouplingSpec(kind="custom_sampled",
                           samples=np.zeros((16, 4)))  # wrong xi size
        with pytest.raises(ConfigError, match="samples"):
            project_coupling(basis, bad, xi)


class TestBuildProblem:
    def test_basic_document(self):
        spec = build_problem({
            "grid": {"n": 8, "span": [0.0, 1.0]},
            "modes": {"count": 3, "q_n": 24},
            "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                         "sigma": 0.25},
            "hg": {"stiffness": 0.2, "potential": {"kind": "zero"}},
        })
        assert spec.n_g == 8
        assert spec.n_tot == 3
        assert np.allclose(np.diff(spec.xi_grid.points), 1.0 / 7)

    def test_numeric_arrays_build_like_lists(self):
        doc = {"grid": {"n": 4, "span": [0.0, 1.0]},
               "modes": {"count": 2, "kind": "given", "q_n": 2,
                         "eps": [0, 1], "phi": [[1, 1], [1, -1]]},
               "coupling": {"kind": "custom_sampled",
                            "samples": [[-1.0, -2, -1, 0.5]] * 2},
               "hg": {"potential": [0, 1, 0.5, 0]}}
        arrays = {"grid": {"n": 4, "span": np.array([0.0, 1.0])},
                  "modes": dict(doc["modes"], eps=np.arange(2),
                                phi=np.array([[1, 1], [1, -1]])),
                  "coupling": dict(doc["coupling"], samples=np.array(
                      doc["coupling"]["samples"])),
                  "hg": {"potential": np.array([0, 1, 0.5, 0])}}
        a, b = build_problem(doc), build_problem(arrays)
        assert np.array_equal(a.modes.phi, b.modes.phi)
        assert np.array_equal(a.coupling.samples, b.coupling.samples)
        assert np.array_equal(a.g_potential, b.g_potential)

    def test_zero_n_g_names_field(self):
        with pytest.raises(ConfigError, match="grid.n"):
            build_problem({"grid": {"n": 0}, "modes": {"count": 2}})

    def test_zero_coupling_strength_gives_zero_kernel(self):
        spec = build_problem({
            "grid": {"n": 4, "span": [0.0, 1.0]},
            "modes": {"count": 2, "q_n": 16},
            "coupling": {"kind": "gaussian_attractive", "g": 0.0,
                         "sigma": 0.3},
            "hg": {"stiffness": 1.0},
        })
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        assert np.all(v == 0.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="turbo"):
            build_problem({"grid": {"n": 4}, "modes": {"count": 2},
                           "turbo": True})
        with pytest.raises(ConfigError, match="coupling.flavor"):
            build_problem({"grid": {"n": 4}, "modes": {"count": 2},
                           "coupling": {"flavor": "mild"}})

    def test_unknown_kernel_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_problem({"grid": {"n": 4}, "modes": {"count": 2},
                           "coupling": {"kind": "tachyonic"}})

    def test_named_double_well_potential(self):
        spec = build_problem({
            "grid": {"n": 9, "span": [0.0, 1.0]},
            "modes": {"count": 2, "q_n": 16},
            "coupling": {"kind": "constant", "g": 0.5},
            "hg": {"stiffness": 0.1,
                   "potential": {"kind": "double_well", "depth": 3.0,
                                 "width": 0.08, "centers": [0.25, 0.75]}},
        })
        pot = spec.g_potential
        assert pot[2] < -2.5 and pot[6] < -2.5
        assert pot[4] > -0.5

    def test_double_well_detune_deepens_the_second_well(self):
        # the centers are grid points 2 and 6; detune adds to the depth
        # of the second well only: the asymmetric twin of the ladder
        def potential(**detune):
            return build_problem({
                "grid": {"n": 9, "span": [0.0, 1.0]},
                "modes": {"count": 2, "q_n": 16},
                "coupling": {"kind": "constant", "g": 0.5},
                "hg": {"stiffness": 0.1,
                       "potential": {"kind": "double_well", "depth": 3.0,
                                     "width": 0.08, "centers": [0.25, 0.75],
                                     **detune}},
            }).g_potential

        plain = potential()
        assert plain[2] == plain[6]
        for zero in (0, 0.0):
            assert np.array_equal(potential(detune=zero), plain)
        detuned = potential(detune=0.4)
        assert detuned[6] - plain[6] == pytest.approx(-0.4, rel=1e-12)
        assert detuned[6] - detuned[2] == pytest.approx(-0.4, rel=1e-6)
        # the second well's tail at the first center
        assert 0 < plain[2] - detuned[2] < 1e-8
