"""Tests of the benchmark itself: span arithmetic, gates, metric names.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),        # overlaps a: the union counts once
        ("c", 8.0, 12.0, 0),       # runs past the parent: clipped at 10
        ("grandchild", 1.5, 2.5, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_covered_ignores_empty_and_disjoint_intervals():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(2.0, 3.0), (0.5, 0.5)], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.0, 0.2), (0.6, 0.8)], 0.0, 1.0) \
        == pytest.approx(0.4)


def test_layer_metrics_report_every_declared_metric():
    spans = [["cli.main", 0.0, 4.0, None, 0],
             ["truncated.diagonalize_sym", 1.0, 3.0, 0, 0]]
    counters = {"spectrum.roots": 3, "spectrum.lin_dim": 4}
    m = tracing.layer_metrics({"wall_s": 3.5},
                              {"wall_s": 4.0, "spans": spans,
                               "counters": counters,
                               "host": {"speed": 0.5}})
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert m["cli.main.s"]["value"] == pytest.approx(1.0)  # 2 s at speed 0.5
    assert m["truncated.diagonalize_sym.calls"]["value"] == 1
    assert m["spectrum.certified_ratio"]["value"] == pytest.approx(0.75)
    assert m["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(tracing.PER_LAYER)


@pytest.fixture(scope="module")
def solved_3x8(tmp_path_factory):
    from epbeat.cli import main
    base = tmp_path_factory.mktemp("solve")
    (base / "in").mkdir()
    (base / "in" / "c.json").write_text(
        json.dumps(workloads.ladder_config(3, 8)), encoding="utf-8")
    out = base / "out"
    assert main(["solve", "--config", str(base / "in" / "c.json"),
                 "--out-dir", str(out)]) == 0
    return base, workloads.Item("3x8", (), "c.json")


def _rewrite(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [
    lambda d: d["energies"].pop(),                       # a root lost
    lambda d: d["energies"].__setitem__(0, d["energies"][0] + 1e-3),
    lambda d: d["accounting"].__setitem__(
        "measured_equals_rank_accounting", False),
])
def test_corrupted_root_list_trips_the_solve_gate(solved_3x8, tmp_path,
                                                  corrupt):
    base, item = solved_3x8
    assert workloads.gate_solve(item, base / "out", base / "in") == []
    out = tmp_path / "out"
    out.mkdir()
    for f in (base / "out").iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    _rewrite(out / "spectrum.json", corrupt)
    assert workloads.gate_solve(item, out, base / "in")


def _events(path: Path, ids) -> None:
    lines = ["tick,realization_id,center_index,center_coord"]
    lines += [f"{t},{j},{j},0.5" for t, j in enumerate(ids)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_events_trip_the_beat_gate(tmp_path):
    alpha, cycles = [0.25, 0.75], 4000
    ids = [0 if t % 4 == 0 else 1 for t in range(cycles)]
    good = tmp_path / "events.csv"
    _events(good, ids)
    assert workloads.beat_problems(good, alpha, [0.25, 0.75], cycles) == []
    _events(good, ids[:-1])  # a line lost
    assert workloads.beat_problems(good, alpha, [0.25, 0.75], cycles)
    _events(good, [t % 2 for t in range(cycles)])  # frequencies far off
    assert workloads.beat_problems(good, alpha, [0.5, 0.5], cycles)


def test_two_well_config_reproduces_the_library_instance():
    config = workloads.two_well_config()
    assert workloads.two_well_problems(config) == []
    config["hg"]["stiffness"] *= 1.01
    assert workloads.two_well_problems(config)


def _gate_run(root: Path, digest: str, src_sha: str) -> list:
    from types import SimpleNamespace
    item = SimpleNamespace(name="x")
    wl = SimpleNamespace(name="w", items=(item,), input_problems=[],
                         gate=lambda *args: [])
    passes = [{"items": [{"name": "x", "rc": 0, "digests": {"a": digest}}]}
              for _ in range(2)]
    return run.gate(root, root / "work", wl, passes, 7, src_sha)[2]


def test_digests_are_compared_only_between_runs_of_the_same_sources(
        tmp_path):
    assert _gate_run(tmp_path, "d1", "src1") == []
    # other sources may round the last bit differently: no failure
    assert _gate_run(tmp_path, "d2", "src2") == []
    assert _gate_run(tmp_path, "d1", "src1") == []
    assert _gate_run(tmp_path, "d2", "src1")


def test_rescale_removes_probe_time_and_applies_speed():
    import hostspeed
    assert hostspeed.rescale(10.0, {"busy_s": 1.0, "speed": 0.5}) \
        == pytest.approx(4.5)
    probe = hostspeed.SpeedProbe()
    probe.start()
    host = probe.stop()  # stopped before the first period: sampled once
    assert host["samples"] == 1 and host["busy_s"] == 0.0
    assert host["speed"] > 0
