"""The inertia count and determinant against a symmetric LDL^T oracle.

effective.root_count_below and effective.characteristic read the
eigenvalues of V_eff(eta) - eta I. scipy's Bunch-Kaufman LDL^T is an
independent route to the same inertia (Sylvester's law) and the same
determinant, so at every probe between distinct roots the two must
agree: exactly in the count, in sign, and in value to rounding.
"""

import numpy as np
import pytest
from scipy.linalg import ldl

from epbeat import (PoleProximityError, block_operator, build_problem,
                    characteristic, ep_from_poles, eval_ep, find_roots,
                    project_coupling, reduce_block, root_count_below)
from epbeat.verification import random_instance
from test_ladder import ladder_config

EPS = np.finfo(float).eps
# first-order determinant error |dF| <= |F| ||dM|| sum_i 1 / |lambda_i|,
# with ||dM|| a few eps times the entries' magnitude (Frobenius norm
# here); measured factor up to 1.8 on the cases below
ROUNDING_FACTOR = 10.0


def ep_of(spec):
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    _, ep = reduce_block(block_operator(spec, v), spec.n_g, spec.modes.eps[0])
    return ep


def ldl_pivots(m):
    """Eigenvalues of the block-diagonal factor D of the LDL^T
    factorization of a symmetric matrix."""
    _, d, _ = ldl(m)
    return np.linalg.eigvalsh(d)


def ldl_disagreements(ep):
    """(probe, what) wherever the batched count or determinant departs
    from the LDL^T oracle. The probes lie between consecutive distinct
    roots and beyond each end."""
    marks = np.unique(find_roots(ep).roots)
    probes = np.concatenate([[marks[0] - 1.0], 0.5 * (marks[:-1] + marks[1:]),
                             [marks[-1] + 1.0]])
    counts = root_count_below(ep, probes)
    dets = characteristic(ep, probes)
    bad = []
    for eta, count, det in zip(probes, counts, dets):
        m = eval_ep(ep, eta) - eta * np.eye(ep.n_g)
        pivots = ldl_pivots(m)
        if count != (ep.poles < eta) @ ep.ranks + np.sum(pivots < 0.0):
            bad.append((float(eta), "count"))
        oracle = np.prod(pivots)
        if np.sign(det) != np.sign(oracle):
            bad.append((float(eta), "sign"))
        w = np.abs(ep.w)
        size = (np.abs(ep.h0) + (w / np.abs(eta - ep.column_poles)) @ w.T
                + abs(eta) * np.eye(ep.n_g))
        tol = (ROUNDING_FACTOR * EPS * np.linalg.norm(size)
               * np.sum(1.0 / np.abs(np.linalg.eigvalsh(m))) * abs(oracle))
        if not abs(det - oracle) <= tol:
            bad.append((float(eta), "value"))
    return bad


def test_random_instances():
    for seed in range(100):
        assert ldl_disagreements(ep_of(random_instance(seed))) == [], seed


def test_even_multiplicity():
    ep = ep_from_poles(0.75 * np.eye(2), [], np.zeros((2, 0)), n_channels=0)
    assert ldl_disagreements(ep) == []


def test_ladder_8x60():
    assert ldl_disagreements(ep_of(build_problem(ladder_config(8, 60)))) == []


def test_scalar_is_a_one_element_batch():
    ep = ep_of(random_instance(3))
    roots = np.sort(find_roots(ep).roots)
    eta = 0.5 * (roots[0] + roots[1])
    count = root_count_below(ep, eta)
    assert type(count) is int and count == 1
    assert root_count_below(ep, np.array([eta])).tolist() == [1]
    assert characteristic(ep, eta) == characteristic(ep, np.array([eta]))[0]
    assert np.sign(characteristic(ep, eta)) == np.sign(np.prod(
        ldl_pivots(eval_ep(ep, eta) - eta * np.eye(ep.n_g))))


def test_batch_with_one_eta_at_a_pole_raises():
    ep = ep_of(random_instance(3))
    with pytest.raises(PoleProximityError):
        root_count_below(ep, np.array([ep.poles[0] - 1.0, ep.poles[0]]))
