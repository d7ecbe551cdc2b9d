"""Realization grouping, probability rules, and density mixing."""

import numpy as np
import pytest

from epbeat import (ConfigError, Grid, build_problem,
                    group_realizations, hamiltonian_g, mix_density,
                    probabilities,
                    realization_densities, simulate_beat, solve_problem)
from epbeat.realizations import RealizationGroup, RealizationSet
from epbeat.verification import random_instance, two_well_instance
from instances import zero_coupling_instance


def synthetic_set(n_g=8, centers=(2, 6), span=(0.0, 1.0), counts=(1, 1)):
    """RealizationSet with given centers, bypassing state grouping."""
    grid = Grid.uniform(n_g, span)
    groups = []
    idx = 0
    for c, k in zip(centers, counts):
        groups.append(RealizationGroup(center_index=c,
                                       center_coord=float(grid.points[c]),
                                       members=tuple(range(idx, idx + k))))
        idx += k
    rs = RealizationSet(groups=tuple(groups), intermediate=(), xi_grid=grid,
                        pr_threshold=2.0, alphas={})
    alphas = {"uniform": probabilities(rs, "uniform"),
              "grouped": probabilities(rs, "grouped")}
    return RealizationSet(groups=rs.groups, intermediate=rs.intermediate,
                          xi_grid=grid, pr_threshold=2.0, alphas=alphas)


class TestGrouping:
    def test_zero_coupling_all_intermediate(self):
        result = solve_problem(zero_coupling_instance())
        rs = result.rs
        assert not rs.groups
        assert rs.n_realizations == 1
        assert len(rs.intermediate) == len(result.states)
        assert rs.alphas["uniform"] == (1.0,)

    def test_two_well_two_groups_at_wells(self):
        result = solve_problem(two_well_instance(), pr_threshold=2.0)
        rs = result.rs
        # well positions read from the constructed interaction profile
        v00 = result.ep.h0.diagonal() - hamiltonian_g(result.spec).diagonal()
        well_cells = set(np.argsort(v00)[:2])
        assert len(rs.groups) == 2
        assert {g.center_index for g in rs.groups} == well_cells

    def test_partition_property(self):
        for seed in (0, 5, 9):
            result = solve_problem(random_instance(seed))
            rs = result.rs
            claimed = list(rs.intermediate)
            for g in rs.groups:
                claimed.extend(g.members)
            assert sorted(claimed) == list(range(len(result.states)))

    def test_realization_count_bounded_by_grid(self):
        for seed in range(30):
            result = solve_problem(random_instance(seed))
            assert result.rs.n_realizations <= result.spec.n_g

    def test_empty_state_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            group_realizations([])

    def test_threshold_out_of_range(self):
        result = solve_problem(random_instance(3))
        with pytest.raises(ConfigError, match="pr_threshold"):
            group_realizations(result.states, pr_threshold=0.5)

    def test_amplitude_scale_invariance(self):
        # multiplying every amplitude by a common positive constant
        # leaves grouping and probabilities unchanged
        import dataclasses
        result = solve_problem(random_instance(11))
        rs1 = result.rs
        scaled = dataclasses.replace(result.states,
                                     channels=3.7 * result.states.channels)
        rs2 = group_realizations(scaled, rs1.pr_threshold)
        assert [g.members for g in rs1.groups] \
            == [g.members for g in rs2.groups]
        assert rs1.intermediate == rs2.intermediate
        assert rs1.alphas == rs2.alphas


class TestProbabilities:
    def test_uniform_rule(self):
        rs = synthetic_set(centers=(1, 3, 5, 7), counts=(1, 1, 1, 1))
        assert rs.alphas["uniform"] == (0.25, 0.25, 0.25, 0.25)

    def test_grouped_rule(self):
        rs = synthetic_set(centers=(2, 6), counts=(1, 3))
        assert rs.alphas["grouped"] == (0.25, 0.75)

    def test_alphas_sum_to_one(self):
        for seed in (1, 4, 8):
            result = solve_problem(random_instance(seed))
            for mode, alpha in result.rs.alphas.items():
                assert abs(sum(alpha) - 1.0) <= 1e-12
                assert all(a > 0 for a in alpha)

    def test_born_homogeneous_symmetric_cells(self):
        rs = synthetic_set(n_g=8, centers=(1, 6), counts=(1, 1))
        rho = np.ones(8) / rs.xi_grid.weights.sum()
        alpha = probabilities(rs, "born", rho)
        assert alpha[0] == pytest.approx(alpha[1], abs=1e-12)

    def test_born_mass_split_two_to_one(self):
        grid = Grid.uniform(8, (0.0, 1.0))
        rs = synthetic_set(n_g=8, centers=(1, 6))
        cells = rs.cells()
        # density constant per cell, with total cell masses 2:1
        w = grid.weights
        mass0 = w[cells == 0].sum()
        mass1 = w[cells == 1].sum()
        rho = np.where(cells == 0, 2.0 / (3 * mass0), 1.0 / (3 * mass1))
        alpha = probabilities(rs, "born", rho)
        assert alpha[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert alpha[1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_born_requires_density(self):
        rs = synthetic_set()
        with pytest.raises(ConfigError, match="density"):
            probabilities(rs, "born")


class TestBornMatch:
    """Born weights of an intermediate amplitude psi: the cell masses
    |C_j|^2 of its intensity psi^2."""

    def test_homogeneous_amplitude_uniform_weights(self):
        rs = synthetic_set(n_g=8, centers=(1, 6))
        w = rs.xi_grid.weights
        psi = np.ones(8) / np.sqrt(w.sum())
        alpha = probabilities(rs, "born", psi ** 2)
        assert alpha[0] == pytest.approx(alpha[1], abs=1e-12)

    def test_exact_consistency_with_born_mode(self):
        # a unit-norm amplitude's cell masses sum to 1, so they are the
        # Born weights themselves
        rs = synthetic_set(n_g=9, centers=(2, 6))
        gen = np.random.default_rng(8)
        w = rs.xi_grid.weights
        psi = gen.uniform(0.2, 1.0, 9)
        psi /= np.sqrt(np.sum(w * psi ** 2))
        cells = rs.cells()
        masses = np.array([np.sum(w[cells == j] * psi[cells == j] ** 2)
                           for j in range(2)])
        alpha = probabilities(rs, "born", psi ** 2)
        assert np.abs(np.array(alpha) - masses).max() <= 1e-12

    def test_concentrated_state_dominates_own_cell(self):
        rs = synthetic_set(n_g=9, centers=(2, 6))
        w = rs.xi_grid.weights
        psi = np.full(9, 0.05)
        psi[6] = 3.0
        psi /= np.sqrt(np.sum(w * psi ** 2))
        alpha = probabilities(rs, "born", psi ** 2)
        assert alpha[1] > 0.9

    def test_cell_mass_reproduction(self):
        # born alphas proportional to the density's cell masses
        rs = synthetic_set(n_g=8, centers=(2, 5))
        gen = np.random.default_rng(15)
        rho = gen.uniform(0.1, 2.0, 8)
        alpha = probabilities(rs, "born", rho)
        cells = rs.cells()
        w = rs.xi_grid.weights
        masses = np.array([np.sum(w[cells == j] * rho[cells == j])
                           for j in range(2)])
        expected = masses / masses.sum()
        assert np.abs(np.array(alpha) - expected).max() <= 1e-12


class TestMixDensity:
    def test_single_realization_identity(self):
        result = solve_problem(zero_coupling_instance())
        rho_1 = realization_densities(result.rs, result.states)[0]
        mixed = mix_density(result.rs, (rho_1,), "uniform")
        assert np.array_equal(mixed, rho_1)

    def test_two_groups_pointwise_average(self):
        result = solve_problem(two_well_instance(), pr_threshold=2.0)
        rs = result.rs
        assert rs.alphas["uniform"] == (0.5, 0.5)
        rho = realization_densities(rs, result.states)
        mixed = mix_density(rs, rho, "uniform")
        assert np.allclose(mixed, 0.5 * rho[0] + 0.5 * rho[1],
                           atol=1e-14)

    def test_unit_total_mass(self):
        result = solve_problem(two_well_instance(), pr_threshold=2.0)
        mixed = mix_density(result.rs, realization_densities(
            result.rs, result.states), "grouped")
        spec = result.spec
        mass = np.einsum("qx,q,x->", mixed,
                         spec.modes.q_grid.weights, spec.xi_grid.weights)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mode_mismatch_rejected(self):
        result = solve_problem(two_well_instance(), pr_threshold=2.0)
        with pytest.raises(ConfigError, match="born"):
            mix_density(result.rs, realization_densities(
                result.rs, result.states), "born")

    def test_matches_monte_carlo_histogram(self):
        # Monte Carlo oracle at T = 1e5 within 3-sigma multinomial bounds
        result = solve_problem(two_well_instance(), pr_threshold=2.0)
        rs = result.rs
        t = 100_000
        traj = simulate_beat(rs, t, seed=99, mode="grouped")
        rho = realization_densities(rs, result.states)
        alpha = np.array(rs.alphas["grouped"])
        emp = np.array(traj.empirical)
        hist = sum(e * r for e, r in zip(emp, rho))
        expected = sum(a * r for a, r in zip(alpha, rho))
        mean_sq = sum(a * r ** 2 for a, r in zip(alpha, rho))
        var = np.maximum(mean_sq - expected ** 2, 0.0) / t
        bound = 3.0 * np.sqrt(var) + 1e-12
        assert np.all(np.abs(hist - expected) <= bound)


def painted_densities(rs, states):
    """Reference for realization_densities: every member's amplitude
    Psi_i(q, xi) painted onto the q grid, squared and averaged."""
    member_sets = [g.members for g in rs.groups] if rs.groups \
        else [rs.intermediate]
    phi_t = states.basis.phi.T
    out = []
    for members in member_sets:
        rho = phi_t @ states.channels[list(members)]
        rho *= rho
        out.append(rho.sum(axis=0) / len(members))
    return tuple(out)


def ladder_spec(n_tot, n_g, stiffness, g=1.0):
    return build_problem({
        "grid": {"n": n_g},
        "modes": {"count": n_tot, "delta_eps": 0.7},
        "coupling": {"kind": "gaussian_attractive", "g": g, "sigma": 0.2},
        "hg": {"stiffness": stiffness,
               "potential": {"kind": "double_well", "depth": 1,
                             "width": 0.08, "centers": [0.3, 0.7]}}})


class TestRealizationDensities:
    # (instance, number of regular groups; None: one delocalized realization)
    CASES = {
        "ladder 5x40": (lambda: ladder_spec(5, 40, 0.1), None),
        "two-well": (two_well_instance, 6),
        "localized 5x40": (lambda: ladder_spec(5, 40, 0.002), 19),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_gram_form_matches_painted_reference(self, case):
        make, n_groups = self.CASES[case]
        result = solve_problem(make())
        rs, states = result.rs, result.states
        if n_groups is None:  # one delocalized realization of every state
            assert not rs.groups and len(rs.intermediate) == 200
        else:
            assert len(rs.groups) == n_groups
        got = realization_densities(rs, states)
        want = painted_densities(rs, states)
        assert len(got) == len(want) == rs.n_realizations
        for rho, ref in zip(got, want):
            assert rho.shape == ref.shape
            assert np.abs(rho - ref).max() <= 1e-13 * np.abs(ref).max()
            assert rho.min() >= 0.0


@pytest.fixture(scope="module")
def localized_5x40():
    return solve_problem(ladder_spec(5, 40, 0.002))


@pytest.mark.parametrize("sign", [-1, 1])
def test_groups_unchanged_by_relative_change_of_g(localized_5x40, sign):
    # metamorphic: scaling the coupling by 1 +- 1e-13 moves the roots,
    # but no state across the localization threshold or to another center
    base = localized_5x40
    result = solve_problem(ladder_spec(5, 40, 0.002, 1.0 + sign * 1e-13))
    assert not np.array_equal(result.sr.roots, base.sr.roots)
    assert len(base.rs.groups) == 19
    assert len(base.rs.intermediate) == 166
    assert [(g.center_index, g.members) for g in result.rs.groups] == \
        [(g.center_index, g.members) for g in base.rs.groups]
    assert result.rs.intermediate == base.rs.intermediate
