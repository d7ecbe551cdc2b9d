"""The BLAS thread policy: one thread below PARALLEL_MIN_DIM, restored."""

import ctypes
import json
import os

import numpy
import pytest

from epbeat import blas, verification
from epbeat.blas import PARALLEL_MIN_DIM, threads, threads_for
from epbeat.cli import main

LADDER_3X8 = {"grid": {"n": 8}, "modes": {"count": 3, "delta_eps": 0.7},
              "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                           "sigma": 0.2},
              "hg": {"stiffness": 0.1,
                     "potential": {"kind": "double_well", "depth": 1,
                                   "width": 0.08, "centers": [0.3, 0.7]}}}

openblas = pytest.mark.skipif(blas.control() is None,
                              reason="numpy is not linked to OpenBLAS")


def scanned_numpy_openblas():
    """(get, set) of an OpenBLAS that /proc/self/maps lists under numpy's
    install, or None: the lookup blas.control made before it resolved
    the controls through numpy's linalg extension, kept as a reference.
    The prefix .../numpy also covers the wheel's .../numpy.libs."""
    prefix = os.path.dirname(numpy.__file__)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith(prefix)})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for names in blas._CONTROLS:
            get, set_ = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


class FakeBlas:
    """A thread count behind get/set, recording every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake(monkeypatch):
    lib = FakeBlas(2)
    monkeypatch.setattr(blas, "control", lambda: (lib.get, lib.set))
    return lib


def test_small_dimension_runs_on_one_thread(fake):
    with threads_for(PARALLEL_MIN_DIM - 1):
        assert threads() == 1
    assert fake.count == 2
    assert fake.sets == [1, 2]


def test_restores_the_entry_count_when_the_body_raises(fake):
    fake.count = 3
    with pytest.raises(RuntimeError):
        with threads_for(8):
            assert fake.count == 1
            raise RuntimeError("body failed")
    assert fake.count == 3


def test_large_dimension_leaves_the_count_alone(fake):
    with threads_for(PARALLEL_MIN_DIM):
        assert fake.count == 2
    with threads_for(10 * PARALLEL_MIN_DIM):
        assert fake.count == 2
    assert fake.sets == []


def test_nested_uses_restore_in_order(fake):
    with threads_for(PARALLEL_MIN_DIM):
        with threads_for(40):
            assert fake.count == 1
            with threads_for(30):
                assert fake.count == 1
            assert fake.count == 1
            with threads_for(PARALLEL_MIN_DIM):
                assert fake.count == 1
            assert fake.count == 1
        assert fake.count == 2
    assert fake.count == 2


def test_battery_instance_runs_on_one_thread_inside_a_large_command(
        fake, monkeypatch):
    seen = []
    solve = verification.solve_problem

    def recording(spec, pr_threshold=None):
        seen.append(fake.count)
        return solve(spec, pr_threshold)

    monkeypatch.setattr(verification, "solve_problem", recording)
    with threads_for(PARALLEL_MIN_DIM):
        assert verification.check_instance(0).passed
        assert fake.count == 2
    assert seen == [1]


def test_battery_runs_on_one_thread_inside_a_large_command(fake,
                                                          monkeypatch):
    """run_battery sets one thread once for all its instances, not once
    per instance, and restores the command's count."""
    seen = []
    solve = verification.solve_problem

    def recording(spec, pr_threshold=None):
        seen.append(fake.count)
        return solve(spec, pr_threshold)

    monkeypatch.setattr(verification, "solve_problem", recording)
    with threads_for(PARALLEL_MIN_DIM):
        assert verification.run_battery(3)["all_passed"]
        assert fake.count == 2
    assert seen == [1, 1, 1]
    assert fake.sets == [1, 2]


def test_without_openblas_controls_the_policy_does_nothing(
        monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "control", lambda: None)
    assert threads() is None
    with threads_for(8):
        pass
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LADDER_3X8))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] is None


@openblas
def test_openblas_count_is_set_and_restored():
    entry = threads()
    with threads_for(8):
        assert threads() == 1
    assert threads() == entry


@openblas
def test_cli_solve_records_one_thread_and_restores(tmp_path):
    entry = threads()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LADDER_3X8))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == 1
    assert threads() == entry


@pytest.mark.skipif(scanned_numpy_openblas() is None,
                    reason="no OpenBLAS mapped under numpy's install")
def test_controls_are_the_openblas_numpy_maps():
    get, set_ = scanned_numpy_openblas()
    entry = get()
    try:
        for count in (2, 1):  # the library caps a count above its cores
            set_(count)
            assert threads() == get()
        set_(2)
        before = get()
        with threads_for(10):
            assert get() == 1
        assert get() == before
    finally:
        set_(entry)
