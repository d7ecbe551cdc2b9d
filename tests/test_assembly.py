"""State reconstruction, densities, and diagnostics."""

import numpy as np
import pytest

from epbeat import (AssembledState, CouplingSpec, Grid, ProblemSpec,
                    block_operator, complexity_measure, density,
                    gaussian_bump_basis, participation_ratio,
                    schmidt_rank, solve_problem)
from epbeat.verification import random_instance, zero_coupling_instance


def toy_state(full, q_grid, xi_grid):
    """Hand-built state with a given (q, xi) amplitude matrix."""
    full = np.asarray(full, dtype=float)
    norm = np.sqrt(np.einsum("qx,q,x->", full ** 2, q_grid.weights,
                             xi_grid.weights))
    return AssembledState(root_index=0, psi0=np.zeros(xi_grid.n),
                          tails=np.zeros((1, xi_grid.n)), full=full / norm,
                          energy=0.0, norm=1.0, q_grid=q_grid,
                          xi_grid=xi_grid)


class TestReconstruction:
    def test_zero_coupling_states_are_products(self):
        result = solve_problem(zero_coupling_instance())
        for state in result.states:
            assert np.all(state.tails == 0.0)
            assert schmidt_rank(state) == 1

    def test_full_operator_residual(self):
        # direct operator-application oracle
        # 843 is a regression case: certifying its roots needs the
        # eigensolver's full accuracy (a 1e-12-converged Jacobi missed
        # the root-residual bound there, 9.2e-6 > 8.2e-6)
        for seed in (3, 14, 27, 843):
            result = solve_problem(random_instance(seed))
            h = block_operator(result.spec, result.v)
            for state in result.states:
                c = state.channel_vector()
                c = c / np.linalg.norm(c)
                eta = state.energy - result.ep.eps0
                resid = np.linalg.norm(h @ c - eta * c)
                assert resid <= 1e-6

    def test_unit_weighted_norm(self):
        result = solve_problem(random_instance(6))
        for state in result.states:
            wq = state.q_grid.weights
            wx = state.xi_grid.weights
            mass = np.einsum("qx,q,x->", state.full ** 2, wq, wx)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_resonant_root_rejected(self):
        import dataclasses
        from epbeat import PoleProximityError, reconstruct_state
        from epbeat import hamiltonian_g, project_coupling, reduce_block
        from epbeat import find_roots
        spec = random_instance(3)
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        op = block_operator(spec, v)
        trunc, ep = reduce_block(op, spec.n_g, hamiltonian_g(spec).diagonal(),
                                 spec.modes.eps[0])
        sr = find_roots(ep)
        rigged = sr.roots.copy()
        rigged[0] = trunc.eigvals[0]  # park the root on a pole
        sr_bad = dataclasses.replace(sr, roots=rigged)
        with pytest.raises(PoleProximityError, match="resonance"):
            reconstruct_state(sr_bad, 0, trunc, op[:spec.n_g, spec.n_g:],
                              spec.modes, spec.xi_grid)

    def test_tail_weight_grows_with_coupling(self):
        gen = np.random.default_rng(2)
        pot = gen.uniform(-1, 1, 5)
        weights = []
        for g in (0.1, 0.5, 1.0):
            spec = ProblemSpec(
                xi_grid=Grid.uniform(5, (0.0, 1.0)),
                modes=gaussian_bump_basis(3, Grid.uniform(24, (0, 1)), 0.8),
                coupling=CouplingSpec(kind="gaussian_attractive", strength=g,
                                      width=0.25),
                g_stiffness=0.3, g_potential=pot)
            result = solve_problem(spec)
            ground = result.states[0]
            # psi0 is unit-normalized, so this is the recovered tail mass
            weights.append(float(np.sum(ground.tails ** 2)))
        assert weights[0] < weights[1] < weights[2]


class TestDensity:
    def test_marginals_are_probabilities(self):
        result = solve_problem(random_instance(10))
        for state in result.states:
            d = density(state)
            assert np.all(d.rho >= 0.0)
            assert d.marginal_xi.sum() == pytest.approx(1.0, abs=1e-9)
            assert d.marginal_q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_product_state_flat_marginal(self):
        q = Grid.uniform(6, (0.0, 5.0))
        xi = Grid.uniform(4, (0.0, 3.0))
        state = toy_state(np.ones((6, 4)), q, xi)
        d = density(state)
        # flat density: per-cell mass proportional to the cell weight
        expected = xi.weights / xi.weights.sum()
        assert np.allclose(d.marginal_xi, expected, atol=1e-12)


class TestParticipationRatio:
    def test_point_mass(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert participation_ratio(p) == pytest.approx(1.0)

    def test_uniform_over_cells(self):
        assert participation_ratio(np.full(8, 1 / 8)) == pytest.approx(8.0)

    def test_two_equal_cells(self):
        p = np.zeros(5)
        p[1] = p[4] = 0.5
        assert participation_ratio(p) == pytest.approx(2.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            participation_ratio(np.full(4, 0.5))


class TestSchmidtRank:
    def test_product_state(self):
        q = Grid.uniform(5, (0.0, 1.0))
        xi = Grid.uniform(7, (0.0, 1.0))
        gen = np.random.default_rng(1)
        state = toy_state(np.outer(gen.uniform(1, 2, 5),
                                   gen.uniform(1, 2, 7)), q, xi)
        assert schmidt_rank(state) == 1

    def test_bell_like_state(self):
        q = Grid.uniform(4, (0.0, 3.0))
        xi = Grid.uniform(4, (0.0, 3.0))
        full = np.zeros((4, 4))
        # two equal product terms on disjoint supports
        full[0, 1] = 1.0 / np.sqrt(q.weights[0] * xi.weights[1])
        full[2, 3] = 1.0 / np.sqrt(q.weights[2] * xi.weights[3])
        state = toy_state(full, q, xi)
        assert schmidt_rank(state) == 2

    def test_matches_gram_eigendecomposition_oracle(self):
        # independent oracle: rank from eigenvalues of M M^T; tol kept
        # above the Gram route's eps*sigma_max^2 resolution floor
        result = solve_problem(random_instance(17))
        tol = 1e-5
        for state in result.states:
            m = (np.sqrt(state.q_grid.weights)[:, None] * state.full
                 * np.sqrt(state.xi_grid.weights)[None, :])
            vals = np.linalg.eigvalsh(m @ m.T)
            vals = np.clip(vals, 0.0, None)
            oracle = int(np.sum(np.sqrt(vals) > tol * np.sqrt(vals.max())))
            assert schmidt_rank(state, tol) == oracle

    def test_coupled_states_entangled(self):
        result = solve_problem(random_instance(23))
        ranks = [schmidt_rank(s) for s in result.states]
        assert max(ranks) > 1


class TestComplexity:
    def test_single_realization_zero(self):
        assert complexity_measure(1) == 0.0

    def test_two_realizations(self):
        assert complexity_measure(2) == pytest.approx(np.log(2))

    def test_monotone(self):
        assert complexity_measure(5) > complexity_measure(4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            complexity_measure(0)
