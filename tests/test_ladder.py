"""Regression cases on the size ladder, past the random battery's sizes.

At 8x60 and 10x80 hundreds of roots sit within 1e-6 of a weakly coupled
pole, with channel-0 weight down to 3e-5. Each must be certified and
counted, and the dense oracle must match them with only decoupled
poles added back.
"""

import json

import numpy as np
import pytest

from epbeat import (build_problem, count_accounting, direct_spectrum,
                    root_count_below, solve_problem)
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
    acc = count_accounting(result.sr)
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
    assert max_state_residual(result) <= STATE_RESIDUAL_TOL


def test_inertia_count_between_roots(ladder):
    _, result = ladder
    roots = np.sort(result.sr.roots)
    mids = 0.5 * (roots[:-1] + roots[1:])
    counts = [root_count_below(result.ep, eta) for eta in mids]
    assert counts == list(range(1, roots.size))


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
