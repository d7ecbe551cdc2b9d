"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; every tolerance is pinned here, nothing is calibrated at run
time.
"""

import json
import time

import numpy as np
import pytest

from epbeat import (CouplingSpec, Grid, ProblemSpec, block_operator,
                    complexity_measure, compare_spectra,
                    count_accounting, find_roots,
                    ep_from_poles,
                    gaussian_bump_basis, hamiltonian_g, mix_density,
                    probabilities,
                    project_coupling, realization_densities, recurse_ep,
                    schmidt_ranks, simulate_beat, solve_problem)
from epbeat.cli import main as cli_main
from epbeat.verification import check_instance, two_well_instance
from instances import ep_well_alignment, zero_coupling_instance

N_INSTANCES = 100
RESIDUAL_TOL = 1e-6


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    checks = [check_instance(seed) for seed in range(N_INSTANCES)]
    elapsed = time.perf_counter() - t0
    return checks, elapsed


@pytest.fixture(scope="module")
def two_well_result():
    return solve_problem(two_well_instance(), pr_threshold=2.0)


@pytest.fixture(scope="module")
def zero_coupling_result():
    return solve_problem(zero_coupling_instance())


def test_criterion_1_ep_exactness(battery):
    checks, elapsed = battery
    ok = all(c.exactness.passed for c in checks) and elapsed < 60.0
    worst = max(c.exactness.max_rel_dev for c in checks)
    verdict(1, ok, f"EP roots match direct spectra on {len(checks)} random "
                   f"instances (worst rel dev {worst:.2e}, "
                   f"{elapsed:.1f}s < 60s)")


def test_criterion_2_root_pole_rank_accounting(battery):
    checks, _ = battery
    rank_ok = all(c.accounting["measured_equals_rank_accounting"]
                  for c in checks)
    linear_ok = all(c.accounting["measured_roots"] == c.accounting["linear_count"]
                    for c in checks)
    verdict(2, rank_ok and linear_ok,
            "measured roots = N_g + sum of residue ranks on all instances; "
            "equal to N_tot*N_g with simple poles")


def test_criterion_3_degree_bound():
    # generic rank-1 instance: bound reported, gap flagged
    result = solve_problem(two_well_instance(), pr_threshold=2.0)
    acc = count_accounting(result.ep, result.sr)
    n_g, n_e = result.ep.n_g, result.ep.n_channels
    formula_ok = acc["full_degree_count"] == n_g * (n_e * n_g + 1)
    gap_flagged = (not acc["degree_bound_attained"]
                   and not acc["all_residues_full_rank"]
                   and acc["measured_roots"] < acc["full_degree_count"])

    # synthetic instance with N_g-fold degenerate poles and full-rank
    # merged residues attains the bound exactly
    gen = np.random.default_rng(42)
    n_g, n_e = 3, 2
    h0 = np.diag(gen.uniform(-1.0, 1.0, n_g))
    poles, vecs = [], []
    for p in np.linspace(2.0, 12.0, n_e * n_g):
        for i in range(n_g):
            poles.append(p)
            e = np.zeros(n_g)
            e[i] = 0.7 + 0.1 * i
            vecs.append(e)
    ep = ep_from_poles(h0, poles, np.array(vecs).T, n_channels=n_e)
    acc_syn = count_accounting(ep, find_roots(ep))
    attained = (acc_syn["full_degree_count"] == n_g * (n_e * n_g + 1) == 21
                and acc_syn["measured_roots"] == acc_syn["full_degree_count"]
                and acc_syn["degree_bound_attained"]
                and acc_syn["all_residues_full_rank"])
    verdict(3, formula_ok and gap_flagged and attained,
            f"full-degree count N_g(N_e N_g + 1) reported; synthetic full-rank "
            f"instance attains {acc_syn['measured_roots']} = bound; generic "
            f"rank-1 instance flags the gap")


def test_criterion_4_probability_rules(two_well_result):
    rs = two_well_result.rs
    n = len(rs.groups)
    uniform = rs.alphas["uniform"]
    uniform_ok = all(a == 1.0 / n for a in uniform)
    counts = rs.group_counts
    grouped = rs.alphas["grouped"]
    grouped_ok = all(a == c / sum(counts) for a, c in zip(grouped, counts))
    sums_ok = all(abs(sum(alpha) - 1.0) <= 1e-12
                  for alpha in rs.alphas.values())
    verdict(4, uniform_ok and grouped_ok and sums_ok,
            f"uniform alpha = 1/{n} exactly; grouped alpha = N_j/N exactly; "
            f"all modes sum to 1 within 1e-12")


def test_criterion_5_generalized_born_rule(two_well_result):
    rs = two_well_result.rs
    grid = rs.xi_grid
    w = grid.weights
    cells = rs.cells()

    gen = np.random.default_rng(5)
    rho = gen.uniform(0.1, 2.0, grid.n)
    alpha = np.array(probabilities(rs, "born", rho))
    masses = np.array([np.sum(w[cells == j] * rho[cells == j])
                       for j in range(len(rs.groups))])
    masses_ok = np.abs(alpha - masses / masses.sum()).max() <= 1e-12

    # homogeneous intermediate state over reflection-symmetric cells
    # reproduces uniform alpha
    from epbeat.realizations import RealizationGroup, RealizationSet
    sym_grid = Grid.uniform(8, (0.0, 1.0))
    groups = tuple(RealizationGroup(center_index=c,
                                    center_coord=float(sym_grid.points[c]),
                                    members=(j,))
                   for j, c in enumerate((1, 6)))
    sym_rs = RealizationSet(groups=groups, intermediate=(), xi_grid=sym_grid,
                            pr_threshold=2.0, alphas={})
    psi = np.ones(8) / np.sqrt(sym_grid.weights.sum())
    alpha_h = probabilities(sym_rs, "born", psi ** 2)
    uniform_ok = np.abs(np.array(alpha_h) - 0.5).max() <= 1e-12
    verdict(5, bool(masses_ok and uniform_ok),
            "born alpha = intermediate-density cell masses within 1e-12; "
            "homogeneous state reproduces uniform alpha")


def test_criterion_6_beat_convergence(two_well_result):
    rs = two_well_result.rs
    t = 100_000
    alpha = np.array(rs.alphas["uniform"])
    bounds = 3.0 * np.sqrt(alpha * (1.0 - alpha) / t)
    seed_failures = 0
    t0 = time.perf_counter()
    for seed in range(20):
        traj = simulate_beat(rs, t, seed=seed, mode="uniform")
        if np.any(np.abs(np.array(traj.empirical) - alpha) > bounds):
            seed_failures += 1
    per_traj = (time.perf_counter() - t0) / 20

    # event-weighted density histogram vs the mixed density
    traj = simulate_beat(rs, t, seed=123, mode="uniform")
    rho = realization_densities(rs, two_well_result.states)
    emp = np.array(traj.empirical)
    hist = sum(e * r for e, r in zip(emp, rho))
    expected = mix_density(rs, rho, "uniform")
    mean_sq = sum(a * r ** 2 for a, r in zip(alpha, rho))
    sigma = np.sqrt(np.maximum(mean_sq - expected ** 2, 0.0) / t)
    hist_ok = np.all(np.abs(hist - expected) <= 3.0 * sigma + 1e-12)

    ok = seed_failures <= 1 and hist_ok and per_traj < 5.0
    verdict(6, bool(ok),
            f"empirical freqs within 3-sigma on {20 - seed_failures}/20 "
            f"seeds at T=1e5; histogram matches mixed density; "
            f"{per_traj:.2f}s/trajectory < 5s")


def test_criterion_7_zero_coupling_limit(zero_coupling_result):
    result = zero_coupling_result
    rs = result.rs
    single = rs.n_realizations == 1 and not rs.groups
    complexity_ok = complexity_measure(rs.n_realizations) == 0.0
    ranks_ok = bool(np.all(schmidt_ranks(result.states) == 1))
    tails_ok = bool(np.all(result.states.channels[:, 1:] == 0.0))
    traj = simulate_beat(rs, 1000, seed=9, mode="uniform")
    constant_ok = len(set(traj.ids.tolist())) == 1
    verdict(7, single and complexity_ok and ranks_ok and tails_ok
            and constant_ok,
            "single intermediate realization, complexity 0, all Schmidt "
            "ranks 1, zero tails, constant trajectory")


def test_criterion_8_state_residuals(battery):
    checks, _ = battery
    worst = max(c.state_residual_max for c in checks)
    ok = all(c.residual_pass for c in checks)
    verdict(8, ok, f"||(H_full - E) Psi|| <= {RESIDUAL_TOL:.0e} for every "
                   f"reconstructed state (worst {worst:.2e})")


def test_criterion_9_well_alignment(two_well_result):
    result = two_well_result
    rs = result.rs
    two_groups = (len(rs.groups) == 2
                  and {g.center_index for g in rs.groups} == {2, 6})
    all_aligned = True
    hg_diag = hamiltonian_g(result.spec).diagonal()
    for g in rs.groups:
        for i in g.members:
            report = ep_well_alignment(result.ep, float(result.sr.roots[i]),
                                       result.sr.vectors[i], hg_diag)
            all_aligned &= report.aligned
    verdict(9, two_groups and all_aligned,
            "each localized root's dynamically produced well minimum sits "
            "within one cell of its density argmax")


def test_criterion_10_hierarchy_depth_2():
    worst = 0.0
    for n_g in range(2, 7):
        gen = np.random.default_rng(n_g)
        spec = ProblemSpec(
            xi_grid=Grid.uniform(n_g, (0.0, 1.0)),
            modes=gaussian_bump_basis(3, Grid.uniform(24, (0, 1)), 1.0),
            coupling=CouplingSpec(kind="gaussian_attractive", strength=1.0,
                                  width=0.25),
            g_stiffness=0.2, g_potential=gen.uniform(-1, 1, n_g))
        op = block_operator(spec, project_coupling(spec.modes, spec.coupling,
                                                   spec.xi_grid))
        levels = recurse_ep(spec, op, depth=2)
        sr2 = find_roots(levels[1])
        direct = np.linalg.eigvalsh(op[n_g:, n_g:])
        report = compare_spectra(np.sort(sr2.roots), direct)
        assert report.passed, f"hierarchy mismatch at N_g={n_g}"
        worst = max(worst, report.max_rel_dev)
    verdict(10, True, f"level-2 roots reproduce the truncated spectrum for "
                      f"N_g in 2..6 (worst rel dev {worst:.2e})")


def test_criterion_11_determinism(tmp_path):
    config = {
        "grid": {"n": 6, "span": [0.0, 1.0]},
        "modes": {"count": 3, "q_n": 24},
        "coupling": {"kind": "gaussian_attractive", "g": 1.0, "sigma": 0.25},
        "hg": {"stiffness": 0.2, "potential": {"kind": "zero"}},
        "run": {"cycles": 2000, "seed": 17, "prob_mode": "uniform"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["beat", "--config", str(path),
                         "--out-dir", str(out)]) == 0
        outputs.append(out)
    events_same = ((outputs[0] / "events.csv").read_bytes()
                   == (outputs[1] / "events.csv").read_bytes())
    spectrum_same = ((outputs[0] / "spectrum.json").read_bytes()
                     == (outputs[1] / "spectrum.json").read_bytes())
    verdict(11, events_same and spectrum_same,
            "identical config + seed give byte-identical events.csv and "
            "spectrum.json")
