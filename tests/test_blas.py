"""The BLAS thread policy: OpenBLAS starts on one thread, one thread
below PARALLEL_MIN_DIM, the host's CPU count at and above it, restored."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import epbeat
from epbeat import blas, pipeline, verification
from epbeat.blas import PARALLEL_MIN_DIM, threads, threads_for
from epbeat.cli import main
from epbeat.model import build_problem


def ladder(n_tot, n_g):
    """The ROADMAP ladder config at N_tot x N_g."""
    return {"grid": {"n": n_g}, "modes": {"count": n_tot, "delta_eps": 0.7},
            "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                         "sigma": 0.2},
            "hg": {"stiffness": 0.1,
                   "potential": {"kind": "double_well", "depth": 1,
                                 "width": 0.08, "centers": [0.3, 0.7]}}}


LADDER_3X8 = ladder(3, 8)
# the variables OpenBLAS reads its start thread count from
START_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "OMP_NUM_THREADS")
HOST_CPUS = blas._host_cpus()

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
    """A thread count behind get/set, recording every set, and the OS
    threads it runs: those it started, kept when the count is lowered
    (as OpenBLAS does). With starts False no thread starts."""

    def __init__(self, count):
        self.count = self.os_threads = count
        self.sets = []
        self.starts = True

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count
        if self.starts:
            self.os_threads = max(self.os_threads, count)


def fake_blas(monkeypatch, count):
    """FakeBlas(count) behind blas's controls and OS thread counter."""
    lib = FakeBlas(count)
    monkeypatch.setattr(blas, "control", lambda: (lib.get, lib.set))
    monkeypatch.setattr(blas, "_os_threads", lambda: lib.os_threads)
    return lib


@pytest.fixture
def fake(monkeypatch):
    """Controls at count 2, chosen by the caller (or numpy imported
    before epbeat): a large solve keeps the count on entry."""
    monkeypatch.setattr(blas, "_LARGE_SOLVE_THREADS", None)
    return fake_blas(monkeypatch, 2)


@pytest.fixture
def one_thread_start(monkeypatch):
    """Controls at count 1, the start epbeat chose on a 2-CPU host: a
    large solve runs on 2 threads."""
    monkeypatch.setattr(blas, "_LARGE_SOLVE_THREADS", 2)
    return fake_blas(monkeypatch, 1)


def fresh(code, **variables):
    """The JSON that code prints last in a fresh interpreter that finds
    epbeat, with none of START_VARIABLES set but those given."""
    env = {k: v for k, v in os.environ.items() if k not in START_VARIABLES}
    env.update(variables)
    src = str(Path(epbeat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


openblas_on_linux = pytest.mark.skipif(
    blas.control() is None or not os.path.isdir("/proc/self/task"),
    reason="numpy is not linked to OpenBLAS, or no /proc/self/task")

# the OS threads, the thread count and the environment a fresh import
# leaves, then the count threads_for gives a small and a large dimension
# and the count after them
FRESH_IMPORT = """
import json, os
import epbeat
from epbeat.blas import PARALLEL_MIN_DIM, threads, threads_for
state = [len(os.listdir("/proc/self/task")), threads(),
         {k: os.environ.get(k) for k in
          ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}]
with threads_for(8):
    state.append(threads())
with threads_for(PARALLEL_MIN_DIM):
    state.append(threads())
state.append(threads())
print(json.dumps(state))
"""


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


def test_large_dimension_raises_a_one_thread_start_and_restores(
        one_thread_start):
    with threads_for(PARALLEL_MIN_DIM):
        assert one_thread_start.count == 2
        with threads_for(40):
            assert one_thread_start.count == 1
            with threads_for(10 * PARALLEL_MIN_DIM):
                assert one_thread_start.count == 2
            assert one_thread_start.count == 1
        assert one_thread_start.count == 2
    assert one_thread_start.count == 1
    assert one_thread_start.sets == [2, 1, 2, 1, 2, 1]


def test_raised_count_is_restored_when_the_body_raises(one_thread_start):
    with pytest.raises(MemoryError):
        with threads_for(PARALLEL_MIN_DIM):
            assert one_thread_start.count == 2
            raise MemoryError
    assert one_thread_start.count == 1


def test_a_matching_count_is_not_set(one_thread_start):
    with threads_for(8):
        with threads_for(30):
            assert one_thread_start.count == 1
    assert one_thread_start.sets == []


def test_a_raise_whose_threads_start_runs_raised(one_thread_start,
                                                monkeypatch):
    read = []
    monkeypatch.setattr(blas, "_os_threads",
                        lambda: read.append(1) or one_thread_start.os_threads)
    with threads_for(PARALLEL_MIN_DIM):
        assert threads() == 2
        with threads_for(8):  # a lowering reads no OS thread count
            assert threads() == 1
        assert len(read) == 1
    assert one_thread_start.sets == [2, 1, 2, 1]
    assert one_thread_start.os_threads == 2


def test_a_raise_whose_threads_do_not_start_runs_on_the_entry_count(
        one_thread_start):
    one_thread_start.starts = False
    with threads_for(PARALLEL_MIN_DIM):
        assert threads() == 1
    assert one_thread_start.sets == [2, 1]
    with pytest.raises(MemoryError):  # nothing is left to restore
        with threads_for(PARALLEL_MIN_DIM):
            raise MemoryError
    assert one_thread_start.sets == [2, 1, 2, 1]


@pytest.mark.parametrize("starts", [True, False])
def test_manifest_records_the_count_a_raise_ran_on(one_thread_start,
                                                   monkeypatch, tmp_path,
                                                   starts):
    one_thread_start.starts = starts
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LADDER_3X8))
    monkeypatch.setattr(blas, "PARALLEL_MIN_DIM", 24)  # dimension 3 x 8
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == (2 if starts else 1)
    assert one_thread_start.count == 1


def test_solve_problem_applies_the_policy_to_its_dimension(
        one_thread_start, monkeypatch):
    seen = []
    find_roots = pipeline.find_roots

    def recording(ep):
        seen.append(one_thread_start.count)
        return find_roots(ep)

    monkeypatch.setattr(pipeline, "find_roots", recording)
    spec = build_problem(LADDER_3X8)
    pipeline.solve_problem(spec)
    assert one_thread_start.sets == []  # dimension 24 runs on the start count
    monkeypatch.setattr(blas, "PARALLEL_MIN_DIM", spec.dim)
    pipeline.solve_problem(spec)
    assert seen == [1, 2]
    assert one_thread_start.sets == [2, 1]


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
    """Each battery instance goes through check_instance, whose own
    scope lowers the command's count to one thread for the instance
    and restores it after, so the sets are one lower-and-restore per
    instance, and the command's count holds again after the battery."""
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
    assert fake.sets == [1, 2, 1, 2, 1, 2]


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


@openblas_on_linux
def test_fresh_import_starts_one_thread_and_keeps_the_environment():
    tasks, count, variables, small, large, after = fresh(FRESH_IMPORT)
    assert (tasks, count) == (1, 1)
    assert variables == dict.fromkeys(START_VARIABLES)
    assert (small, large, after) == (1, HOST_CPUS, 1)


@openblas_on_linux
@pytest.mark.parametrize("variable", START_VARIABLES)
def test_a_caller_start_count_is_kept(variable):
    count = min(2, HOST_CPUS)  # OpenBLAS caps a count above the CPUs
    _, start, variables, small, large, after = fresh(
        FRESH_IMPORT, **{variable: "2"})
    assert variables == {k: "2" if k == variable else None
                         for k in START_VARIABLES}
    assert (start, small, large, after) == (count, 1, count, count)


@openblas_on_linux
def test_numpy_imported_first_keeps_its_start_count():
    _, start, variables, small, large, after = fresh(
        "import numpy\n" + FRESH_IMPORT)
    assert variables == dict.fromkeys(START_VARIABLES)
    assert (small, large, after) == (1, start, start)


@openblas_on_linux
def test_cli_raises_the_count_for_a_large_solve_only(tmp_path):
    runs = []  # (config, output dir)
    for n_tot, n_g in ((3, 8), (6, 56)):  # dimensions 24 and 336
        path = tmp_path / f"ladder_{n_tot}x{n_g}.json"
        path.write_text(json.dumps(ladder(n_tot, n_g)))
        runs.append((str(path), str(tmp_path / f"out_{n_tot}x{n_g}")))
    code = f"""
import json
from epbeat.blas import threads
from epbeat.cli import main
codes = [main(["solve", "--config", path, "--out-dir", out])
         for path, out in {runs!r}]
print(json.dumps([codes, threads()]))
"""
    codes, after = fresh(code)
    assert codes == [0, 0]
    counts = [json.loads((Path(out) / "manifest.json").read_text())
              ["blas_threads"] for _, out in runs]
    assert counts == [1, HOST_CPUS]
    assert after == 1
