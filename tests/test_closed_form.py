"""The constant ladder against its closed-form spectrum.

A coupling constant along xi makes H a Kronecker sum, whose spectrum
instances.closed_form_energies gives exactly at any size. The
reference shares no code with block_operator, which both the
reduction and the dense oracle read. The same checks run in CI at
sizes up to and past the dense oracle's cap.
"""

import pytest

from epbeat import build_problem, solve_problem
from epbeat.assembly import schmidt_ranks
from epbeat.oracle import compare_spectra
from epbeat.verification import (STATE_RESIDUAL_TOL, max_state_residual,
                                 recovered_spectrum)
from instances import closed_form_energies, constant_ladder, isolated_states

CASES = {"5x40": constant_ladder(5, 40),
         "5x40-periodic": constant_ladder(5, 40, "periodic"),
         # h_g's eigenvalues pair up as cos(2 pi k / 40) = cos(2 pi
         # (40 - k) / 40): each mode's 19 pairs merge into one pole
         "5x40-periodic-zero-potential": constant_ladder(
             5, 40, "periodic", potential=False)}


@pytest.fixture(scope="module", params=list(CASES))
def solved(request):
    result = solve_problem(build_problem(CASES[request.param]))
    return request.param, result, closed_form_energies(result.spec)


def test_spectrum_matches_closed_form(solved):
    _, result, reference = solved
    report = compare_spectra(recovered_spectrum(result), reference)
    assert report.passed, report.to_dict()


def test_state_residual(solved):
    _, result, _ = solved
    assert max_state_residual(result) <= STATE_RESIDUAL_TOL


def test_isolated_states_are_products(solved):
    _, result, reference = solved
    isolated = isolated_states(result, reference)
    assert isolated.any()
    assert (schmidt_ranks(result.states)[isolated] == 1).all()


def test_only_the_zero_potential_case_merges(solved):
    name, result, _ = solved
    merged = result.ep.raw_poles.size - result.ep.poles.size
    assert merged == (4 * 19 if name.endswith("zero-potential") else 0)
