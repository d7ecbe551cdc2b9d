"""Regression cases on the size ladder, past the random battery's sizes.

At 8x60 and 10x80 hundreds of roots sit within 1e-6 of a weakly coupled
pole, with channel-0 weight down to 3e-5. Each must be certified and
counted, and the dense oracle must match them with only decoupled
poles added back.
"""

import json
import tracemalloc

import numpy as np
import pytest

from epbeat import (block_operator, build_problem, count_accounting,
                    direct_spectrum, realization_densities, root_count_below,
                    solve_problem)
from epbeat.cli import main
from epbeat.oracle import compare_spectra
from epbeat.verification import (EP_EXACTNESS_TOL, STATE_RESIDUAL_TOL,
                                 max_state_residual, recovered_spectrum)


def ladder_config(n_tot, n_g):
    return {"grid": {"n": n_g},
            "modes": {"count": n_tot, "delta_eps": 0.7},
            "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                         "sigma": 0.2},
            "hg": {"stiffness": 0.1,
                   "potential": {"kind": "double_well", "depth": 1,
                                 "width": 0.08, "centers": [0.3, 0.7]}}}


@pytest.fixture(scope="module", params=[(8, 60), (10, 80)],
                ids=["8x60", "10x80"])
def ladder(request):
    doc = ladder_config(*request.param)
    return doc, solve_problem(build_problem(doc))


def test_measured_roots_equal_rank_accounting(ladder):
    _, result = ladder
    acc = count_accounting(result.ep, result.sr)
    assert acc["measured_roots"] == acc["rank_accounting"] \
        == result.spec.n_tot * result.spec.n_g
    assert result.sr.excluded == ()


def test_oracle_exact_with_only_decoupled_poles_added(ladder):
    _, result = ladder
    sr = result.sr
    recovered = np.concatenate(
        [sr.energies, np.asarray(sr.decoupled_poles) + result.ep.eps0])
    assert np.array_equal(np.sort(recovered), recovered_spectrum(result))
    energies, _ = direct_spectrum(result.spec, result.v)
    report = compare_spectra(np.sort(recovered), energies, EP_EXACTNESS_TOL)
    assert report.passed, report.to_dict()


def test_state_residuals(ladder):
    _, result = ladder
    assert len(result.states) == result.spec.n_tot * result.spec.n_g
    h = block_operator(result.spec, result.v)
    assert max_state_residual(result, h) <= STATE_RESIDUAL_TOL


def test_densities_never_paint_the_members(ladder):
    # the painted stack of the largest realization, (M, n_q, N_g) floats
    _, result = ladder
    rs, states = result.rs, result.states
    sizes = [len(g.members) for g in rs.groups] or [len(rs.intermediate)]
    painted = max(sizes) * states.basis.q_grid.n * result.spec.n_g * 8
    tracemalloc.start()
    try:
        realization_densities(rs, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < painted / 4


def test_inertia_count_between_roots(ladder):
    _, result = ladder
    roots = np.sort(result.sr.roots)
    mids = 0.5 * (roots[:-1] + roots[1:])
    counts = root_count_below(result.ep, mids)
    assert counts.tolist() == list(range(1, roots.size))


def test_inertia_count_builds_no_outer_product_table(ladder):
    # an (N_g^2, sum of ranks) table of the residue columns' outer
    # products is 12 MB at 8x60 and 37 MB at 10x80
    _, result = ladder
    ep = result.ep
    roots = np.sort(result.sr.roots)
    mids = 0.5 * (roots[:-1] + roots[1:])
    picks = mids[np.linspace(0, mids.size - 1, 8).astype(int)]
    tracemalloc.start()
    try:
        counts = root_count_below(ep, picks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [int(np.sum(roots < x)) for x in picks]
    assert peak < ep.n_g ** 2 * ep.w.shape[1] * 8 / 4


def test_hierarchy_matches_both_levels(ladder, tmp_path):
    doc, _ = ladder
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "2"]) == 0
    levels = json.loads((out / "hierarchy.json").read_text())["levels"]
    assert [lv["operator_spectrum_match"]["passed"] for lv in levels] \
        == [True, True]
