"""The per-instance path of the verify battery against the code it
replaced.

ref_merge_poles and ref_leads are the per-pole originals, kept as the
oracle: the batched pole merge must give bitwise the same merged poles
and residue factors, the same ranks, and raw amplitudes equal to the
per-pole lift products. The battery's instances, which share grids and
bump profiles, must hash as they did when each built its own. The
state residual, which applies H from its factors, and the
eigenvalue-only oracle are checked against operators rebuilt from
scratch; a layout error shared by the reduction and the oracle must
fail the state residual; and the battery's worst deviation must keep
a NaN.
"""

import dataclasses
import hashlib
import json
import math
import sys
import weakref

import numpy as np
import pytest

import epbeat.model as model
import epbeat.oracle as oracle
import epbeat.pipeline as pipeline
import epbeat.verification as verification
from epbeat import (NumericalError, StateSet, block_operator,
                    build_problem, diagonalize_sym, direct_energies,
                    direct_spectrum, ep_from_poles, find_roots,
                    project_coupling, reduce_block, solve_problem)
from epbeat.cli import main
from epbeat.effective import (DECOUPLED_FACTOR, POLE_MERGE_FACTOR,
                              RESIDUE_RANK_TOL)
from epbeat.verification import (max_state_residual, random_instance,
                                 two_well_instance, zero_coupling_instance)
from test_assembly import merged_cluster_spec
from test_ladder import ladder_config


def ref_merge_poles(poles, vectors, tol):
    """Merged poles, per-pole residue factors and per-pole lifts (the
    lone pole's lift is [[1]])."""
    order = np.argsort(poles, kind="stable")
    poles = poles[order]
    vectors = vectors[:, order]
    merged_poles = []
    factors = []
    lifts = []
    start = 0
    while start < poles.size:
        stop = start + 1
        while stop < poles.size and poles[stop] - poles[stop - 1] <= tol:
            stop += 1
        cluster = vectors[:, start:stop]
        if stop - start == 1:
            factor, lift = cluster, np.ones((1, 1))
        else:
            vals, vecs = np.linalg.eigh(cluster @ cluster.T)
            keep = vals > RESIDUE_RANK_TOL * max(vals[-1], 0.0)
            factor = vecs[:, keep] * np.sqrt(vals[keep])
            lift = (factor.T @ cluster) / vals[keep, None]
        merged_poles.append(float(np.mean(poles[start:stop])))
        factors.append(factor)
        lifts.append(lift)
        start = stop
    return np.asarray(merged_poles), tuple(factors), tuple(lifts)


def ref_raw_amplitudes(factors, lifts, y):
    """Border amplitudes y on the raw poles, pole by pole: y_k M_k for
    a coupled pole k, zeros for the raw poles of a decoupled one."""
    out, col = [], 0
    for w, lift in zip(factors, lifts):
        if w.shape[1]:
            out.append(y[:, col:col + w.shape[1]] @ lift)
        else:
            out.append(np.zeros((y.shape[0], lift.shape[1])))
        col += w.shape[1]
    return np.hstack([np.zeros((y.shape[0], 0))] + out)


def ref_leads(factors):
    leads = [float(np.max(np.sum(w * w, axis=0), initial=0.0))
             for w in factors]
    floor = DECOUPLED_FACTOR * max(leads, default=0.0)
    return tuple(w if lead > floor else w[:, :0]
                 for w, lead in zip(factors, leads))


def assert_merge_matches_loop(h0, poles, vectors, n_channels=1):
    poles = np.asarray(poles, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    ep = ep_from_poles(h0, poles, vectors, n_channels=n_channels)
    merged, factors, lifts = ref_merge_poles(poles, vectors,
                                             POLE_MERGE_FACTOR * ep.span)
    factors = ref_leads(factors)
    assert ep.poles.dtype == merged.dtype and ep.poles.shape == merged.shape
    assert np.array_equal(ep.poles, merged)
    per_pole = ep.to_dict()["residue_factors"]
    assert len(per_pole) == len(factors)
    for got, want in zip(per_pole, factors):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(ep.ranks,
                          np.array([w.shape[1] for w in factors], dtype=int))
    # a lift is kept for each merged cluster only, and the raw
    # amplitudes are the per-pole lift products
    assert len(ep.lifts) == np.count_nonzero(ep.sizes > 1)
    y = np.random.default_rng(3).standard_normal((4, ep.w.shape[1]))
    got = ep.raw_amplitudes(y)
    assert got.shape == (4, poles.size)
    assert np.array_equal(got, ref_raw_amplitudes(factors, lifts, y))
    return ep


def reduction_inputs(spec):
    """h0, poles and residue vectors as reduce_block hands them to
    ep_from_poles."""
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    op = block_operator(spec, v)
    n_g = spec.n_g
    poles, q = diagonalize_sym(op[n_g:, n_g:])
    return op[:n_g, :n_g], poles, op[:n_g, n_g:] @ q


class TestBatchedMerge:
    def test_random_instances_0_to_999(self):
        for seed in range(1000):
            h0, poles, vectors = reduction_inputs(random_instance(seed))
            assert_merge_matches_loop(h0, poles, vectors)

    def test_synthetic_full_degree_potential(self):
        n_e, n_g = 2, 3
        gen = np.random.default_rng(42)
        h0 = np.diag(gen.uniform(-1.0, 1.0, n_g))
        poles = np.repeat(np.linspace(2.0, 12.0, n_e * n_g), n_g)
        vectors = np.tile(np.diag(0.7 + 0.1 * np.arange(n_g)), n_e * n_g)
        ep = assert_merge_matches_loop(h0, poles, vectors, n_channels=n_e)
        assert ep.ranks.tolist() == [n_g] * (n_e * n_g)

    def test_zero_coupling_every_rank_zero(self):
        h0, poles, vectors = reduction_inputs(zero_coupling_instance())
        ep = assert_merge_matches_loop(h0, poles, vectors, n_channels=2)
        assert ep.poles.size > 0 and not ep.ranks.any()

    def test_weakly_coupled_poles(self):
        ep = assert_merge_matches_loop(np.array([[0.0]]), [2.0, 5.0, 8.0],
                                       np.array([[1.0, 1e-6, 1e-6]]))
        assert ep.ranks.tolist() == [1, 1, 1]

    def test_rank_two_cluster_of_three(self):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        vectors = np.column_stack([e1, e2, e1 + e2, np.ones(3)])
        poles = [4.0, 4.0 + 1e-12, 4.0 + 2e-12, 6.0]
        ep = assert_merge_matches_loop(np.eye(3), poles, vectors)
        assert ep.poles.size == 2
        assert ep.ranks.tolist() == [2, 1]
        assert len(ep.lifts) == 1 and ep.lifts[0].shape == (2, 3)

    def test_decoupled_merged_cluster(self):
        # a merged cluster whose residue is below DECOUPLED_FACTOR keeps
        # its lift but no column, and its raw poles read zero amplitude
        vectors = np.array([[1e-9, 1e-9, 1.0], [0.0, 1e-9, 1.0]])
        ep = assert_merge_matches_loop(np.eye(2), [1.0, 1.0 + 1e-12, 3.0],
                                       vectors)
        assert ep.sizes.tolist() == [2, 1] and ep.ranks.tolist() == [0, 1]
        assert len(ep.lifts) == 1 and ep.lifts[0].shape == (2, 2)
        assert not ep.raw_amplitudes(np.ones((1, 1)))[:, :2].any()

    @pytest.mark.parametrize("c2", [0.0, 1e-6, 1e-5, 1.0])
    def test_merged_cluster_family(self, c2):
        # the battery's instances never merge or decouple a pole; this
        # family merges the two excited modes' poles pairwise
        spec = merged_cluster_spec(c2)
        h0, poles, vectors = reduction_inputs(spec)
        ep = assert_merge_matches_loop(h0, poles, vectors, n_channels=2)
        assert np.any(ep.sizes > 1)

    def test_empty_pole_list(self):
        ep = assert_merge_matches_loop(np.eye(2), [], np.zeros((2, 0)))
        assert ep.to_dict()["residue_factors"] == [] and ep.ranks.size == 0
        assert ep.w.shape == (2, 0)


# sha256 of random_instance(seed)'s arrays and scalars for seeds 0-99,
# recorded when every instance still built its own grids and bump basis
BATTERY_INPUTS_SHA256 = (
    "daa491fa352a70da40b06871dd1b1d1c43d7d50aaa7c76e64c332a667ec3e2b5")


def battery_inputs_digest(seeds) -> str:
    """sha256 over each instance's grids, boundary, coupling, stiffness,
    potential, mode energies, profiles and overlap factor, shapes
    included."""
    digest = hashlib.sha256()

    def put(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            digest.update(repr(a.shape).encode())
            digest.update(a.tobytes())

    for seed in seeds:
        spec = random_instance(seed)
        for grid in (spec.xi_grid, spec.modes.q_grid):
            digest.update(grid.boundary.encode())
            put(grid.points, grid.weights)
        coupling = spec.coupling
        digest.update(coupling.kind.encode())
        put([coupling.strength, coupling.width, spec.g_stiffness],
            spec.g_potential, spec.modes.eps, spec.modes.phi,
            spec.modes.overlap_factor)
    return digest.hexdigest()


class TestSharedInputs:
    """random_instance shares its grids and bump profiles across
    instances; the instances must be the ones each built alone."""

    def test_instances_match_the_recorded_digest(self):
        assert battery_inputs_digest(range(100)) == BATTERY_INPUTS_SHA256

    def test_battery_reruns_identically(self):
        first = verification.run_battery(100)
        assert verification.run_battery(100) == first
        # nothing the battery ran wrote into a shared grid or basis
        assert battery_inputs_digest(range(100)) == BATTERY_INPUTS_SHA256


def calls_of(func, run) -> int:
    """Calls of func while run() executes, counted by code object, so a
    caller holding its own reference to func is counted too."""
    code, calls = func.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return len(calls)


def dense_state_residual(result, h) -> float:
    """max_state_residual's quantity through the dense operator h:
    max_i ||(h - eta_i) c_i|| over unit channel vectors c_i."""
    states = result.states
    c = states.channels.reshape(len(states), -1).T
    c = c / np.linalg.norm(c, axis=0)
    eta = states.energies - result.spec.modes.eps[0]
    return float(np.linalg.norm(h @ c - c * eta, axis=0).max(initial=0.0))


class TestSharedOperator:
    """Each check builds what it reads: the reduction and the dense
    oracle one block operator each, the state residual none."""

    def test_operator_is_read_only_and_the_block_operator(self,
                                                           monkeypatch):
        """The operator the reduction read is block_operator of the
        result's read-only v, so the oracle rebuilds that same one."""
        seen = []

        def reduce(op, n_g, eps0):
            seen.append(op.copy())
            return reduce_block(op, n_g, eps0)

        monkeypatch.setattr(pipeline, "reduce_block", reduce)
        result = pipeline.solve_problem(random_instance(4))
        assert not result.v.flags.writeable
        with pytest.raises(ValueError):
            result.v[0, 0, 0] = 1.0
        assert len(seen) == 1
        assert np.array_equal(seen[0], block_operator(result.spec, result.v))

    def test_solve_frees_the_operator_before_the_roots(self, monkeypatch):
        built, alive = [], []

        def build(spec, v):
            op = block_operator(spec, v)
            built.append(weakref.ref(op))
            return op

        def roots(ep):
            alive.append(built[-1]() is not None)
            return find_roots(ep)

        monkeypatch.setattr(pipeline, "block_operator", build)
        monkeypatch.setattr(pipeline, "find_roots", roots)
        result = pipeline.solve_problem(random_instance(4))
        assert alive == [False]
        assert not hasattr(result, "operator")

    def test_check_instance_builds_the_operator_once(self):
        """Once for the reduction and once in the oracle; the state
        residual builds none."""
        spec = random_instance(4)
        results, checks = [], []
        assert calls_of(model.block_operator, lambda: results.append(
            solve_problem(spec))) == 1
        assert calls_of(model.block_operator,
                        lambda: direct_energies(spec, results[0].v)) == 1
        assert calls_of(model.block_operator,
                        lambda: max_state_residual(results[0])) == 0
        assert calls_of(model.block_operator, lambda: checks.append(
            verification.check_instance(4))) == 2
        assert checks[0].passed

    def test_grid_operator_built_once_per_solve(self):
        assert calls_of(model.hamiltonian_g,
                        lambda: solve_problem(random_instance(4))) == 1

    def test_state_residual_against_rebuilt_operator(self):
        gen = np.random.default_rng(3)
        for seed in range(20):
            result = solve_problem(random_instance(seed))
            spec, states = result.spec, result.states
            h = block_operator(spec, result.v)
            scale = np.abs(h).max()
            assert (abs(max_state_residual(result)
                        - dense_state_residual(result, h))
                    <= 1e-14 * scale)
            # states far from eigenstates, one at a time, so each
            # residual is O(||H||) and compared on its own
            for _ in range(3):
                trial = StateSet(
                    channels=gen.normal(size=(1, spec.n_tot, spec.n_g)),
                    energies=gen.uniform(-1.0, 1.0, 1) * scale,
                    basis=states.basis, xi_grid=states.xi_grid)
                moved = dataclasses.replace(result, states=trial)
                assert max_state_residual(moved) == pytest.approx(
                    dense_state_residual(moved, h), rel=1e-12)

    def test_eigenvalue_only_oracle(self):
        spec = random_instance(7)
        result = solve_problem(spec)
        pair = direct_spectrum(spec, result.v)
        assert isinstance(pair, tuple) and len(pair) == 2
        energies, vectors = pair
        dim = spec.n_tot * spec.n_g
        assert energies.shape == (dim,) and vectors.shape == (dim, dim)
        only = direct_energies(spec, result.v)
        assert np.allclose(only, energies, rtol=0.0,
                           atol=1e-12 * np.abs(energies).max())

    def test_verify_keeps_the_dimension_cap(self, tmp_path, capsys,
                                            monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": {"n": 6},
                                    "modes": {"count": 3}}))
        monkeypatch.setattr(oracle, "DIMENSION_CAP", 10)
        assert main(["verify", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 3
        assert "exceeds cap 10" in capsys.readouterr().err

    def test_both_oracles_read_the_cap_at_call_time(self, monkeypatch):
        spec = random_instance(13)
        result = solve_problem(spec)
        monkeypatch.setattr(oracle, "DIMENSION_CAP", 3)
        with pytest.raises(NumericalError,
                           match=r"^direct_spectrum: .* exceeds cap 3$"):
            direct_spectrum(spec, result.v)

        def energies():
            with pytest.raises(NumericalError,
                               match=r"^direct_energies: .* exceeds cap 3$"):
                direct_energies(spec, result.v)

        # the cap is checked before the operator is built
        assert calls_of(model.block_operator, energies) == 0


MUTANT_INSTANCES = {
    "ladder_5x40": lambda: build_problem(ladder_config(5, 40)),
    "two_well": two_well_instance,
    "random_7": lambda: random_instance(7),
}


@pytest.mark.parametrize("name", MUTANT_INSTANCES)
def test_mirrored_xi_mutant_fails_the_state_residual_alone(name,
                                                           monkeypatch):
    """A layout error that the reduction and the dense oracle share
    (block_operator reading V at mirrored xi) leaves their spectra in
    agreement, so only the state residual, which applies H from its
    factors, can see it."""
    spec = MUTANT_INSTANCES[name]()
    check = verification.check_instance(0, spec)
    assert check.passed

    def mirrored(spec, v):
        return block_operator(spec, v[:, :, ::-1])

    for module in (model, pipeline, oracle, verification):
        monkeypatch.setattr(module, "block_operator", mirrored)
    check = verification.check_instance(0, spec)
    assert check.exactness.passed
    assert check.accounting["measured_equals_rank_accounting"]
    assert not check.residual_pass
    assert not check.passed


def test_battery_worst_values_keep_a_nan(monkeypatch):
    """A NaN in one instance's recovered spectrum and state residual
    (not the first instance) fails that instance and shows as a NaN
    worst value, not a finite one."""
    calls = []
    spectrum = verification.recovered_spectrum
    residual = verification.max_state_residual

    def recovered(result):
        calls.append(None)
        energies = spectrum(result)
        if len(calls) == 2:
            energies = energies.copy()
            energies[-1] = math.nan
        return energies

    def state_residual(result):
        return math.nan if len(calls) == 2 else residual(result)

    monkeypatch.setattr(verification, "recovered_spectrum", recovered)
    monkeypatch.setattr(verification, "max_state_residual", state_residual)
    battery = verification.run_battery(3)
    assert battery["exactness_failures"] == [1]
    assert battery["residual_failures"] == [1]
    assert not battery["all_passed"]
    assert math.isnan(battery["worst_rel_dev"])
    assert math.isnan(battery["worst_state_residual"])
    assert math.isnan(battery["instances"][1]["max_rel_dev"])
