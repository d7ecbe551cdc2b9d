"""End-to-end runner: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epbeat
from epbeat import build_problem, cli, oracle, truncated
from epbeat.cli import build_parser, main

BASE_CONFIG = {
    "grid": {"n": 6, "span": [0.0, 1.0], "boundary": "dirichlet"},
    "modes": {"count": 3, "kind": "bumps", "delta_eps": 1.0, "q_n": 24,
              "q_span": [0.0, 1.0]},
    "coupling": {"kind": "gaussian_attractive", "g": 1.0, "sigma": 0.25},
    "hg": {"stiffness": 0.2,
           "potential": {"kind": "harmonic", "strength": 2.0, "center": 0.5}},
    "run": {"seed": 7, "cycles": 400, "prob_mode": "uniform"},
}

# a valid "given" modes section for BASE_CONFIG (N_tot 2 on 2 q points)
GIVEN_MODES = {"count": 2, "kind": "given", "q_n": 2,
               "eps": [0, 1], "phi": [[1, 1], [1, -1]]}
# custom kernel samples for BASE_CONFIG (24 q by 6 xi) with one entry
# replaced by a value that is not a number
SAMPLES_WITH = {bad: [[-1.0] * 6 for _ in range(3)] + [[-1.0, bad] + [-1.0] * 4]
                + [[-1.0] * 6 for _ in range(20)] for bad in (True, "-1")}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_solve_writes_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", config_path,
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert manifest["checks"]["beat"] == "not run"
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert spectrum["accounting"]["measured_roots"] == 18
    assert "counts" not in spectrum
    assert spectrum["accounting"]["measured_equals_rank_accounting"]


def test_manifest_hashes_the_config_bytes_parsed(config_path, tmp_path,
                                                  monkeypatch):
    # the config file is rewritten while solve runs
    original = Path(config_path).read_bytes()
    solve = cli.solve_problem

    def solve_then_edit(*args, **kwargs):
        Path(config_path).write_text(json.dumps({**BASE_CONFIG,
                                                 "run": {"seed": 8}}))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_problem", solve_then_edit)
    out = tmp_path / "out"
    assert main(["solve", "--config", config_path,
                 "--out-dir", str(out)]) == 0
    assert Path(config_path).read_bytes() != original
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(original).hexdigest()


def test_density_csv_shape(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", config_path, "--out-dir", str(out)])
    lines = (out / "density_mixed_uniform.csv").read_text().splitlines()
    assert len(lines) == BASE_CONFIG["grid"]["n"] + 1  # header + one per cell
    assert lines[0].startswith("xi,")
    assert len(lines[0].split(",")) == BASE_CONFIG["modes"]["q_n"] + 1


def test_beat_events_csv(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["beat", "--config", config_path, "--out-dir", str(out),
                 "--cycles", "250", "--seed", "3"]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "tick,realization_id,center_index,center_coord"
    assert len(lines) == 251
    summary = json.loads((out / "beat_summary.json").read_text())
    assert summary["cycles"] == 250
    assert summary["seed"] == 3


# sha256 of events.csv for BASE_CONFIG --cycles 1000 --seed 11, taken
# from the per-event formatter the array writer replaced
EVENTS_SHA256 = \
    "0cc99eea0e292eb938adfbbb0c85e3acbdf58d0af1f8ff79683eb55d604e35b0"


def test_events_csv_bytes_pinned(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["beat", "--config", config_path, "--out-dir", str(out),
                 "--cycles", "1000", "--seed", "11"]) == 0
    digest = hashlib.sha256((out / "events.csv").read_bytes()).hexdigest()
    assert digest == EVENTS_SHA256


def test_events_csv_intermediate_only_sentinels(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["coupling"]["g"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["beat", "--config", str(path), "--out-dir", str(out),
                 "--cycles", "30"]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[1:] == [f"{t},0,-1,nan" for t in range(30)]


def test_run_depth_read_from_config(config_path, tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["run"]["depth"] = 1
    path = tmp_path / "depth1.json"
    path.write_text(json.dumps(doc))
    for flag, depths in (([], [1]), (["--depth", "2"], [1, 2])):
        out = tmp_path / f"out{len(flag)}"
        assert main(["hierarchy", "--config", str(path),
                     "--out-dir", str(out)] + flag) == 0
        payload = json.loads((out / "hierarchy.json").read_text())
        assert [lv["depth"] for lv in payload["levels"]] == depths


def test_run_out_dir_read_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EPBEAT_OUT_DIR", str(tmp_path / "from_env"))
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["run"]["out_dir"] = str(tmp_path / "from_config")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "spectrum.json").exists()
    assert not (tmp_path / "from_env").exists()
    # the flag still wins over the config
    assert main(["solve", "--config", str(path),
                 "--out-dir", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "spectrum.json").exists()


def test_byte_identical_reruns(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["beat", "--config", config_path, "--out-dir", str(out),
                     "--cycles", "1000", "--seed", "11"]) == 0
    assert (out_a / "events.csv").read_bytes() \
        == (out_b / "events.csv").read_bytes()
    assert (out_a / "spectrum.json").read_bytes() \
        == (out_b / "spectrum.json").read_bytes()
    assert (out_a / "realizations.json").read_bytes() \
        == (out_b / "realizations.json").read_bytes()
    outputs = json.loads((out_a / "manifest.json").read_text())["outputs"]
    assert {"ep.json", "beat_summary.json",
            "density_mixed_uniform.csv"} <= set(outputs)
    for name in outputs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_verify_subcommand(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", config_path, "--out-dir", str(out),
                 "--instances", "4"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["configured_instance"]["ep_exactness"]["passed"]
    assert report["random_battery"]["all_passed"]
    # gaussian coupling has cross couplings: the per-block reading is off
    per_block = report["configured_instance"]["per_block_reading"]
    assert per_block["n_roots"] == 18
    assert per_block["max_rel_dev_vs_direct"] > 1e-4


def test_verify_zero_coupling_reports_path(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["coupling"]["g"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out-dir", str(out),
                 "--instances", "2"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["configured_instance"]["zero_coupling_path"]
    assert report["configured_instance"]["n_realizations"] == 1


def test_verify_per_block_reading_exact_without_cross_coupling(tmp_path):
    # cosine modes 1, 2 are orthogonal, so a constant kernel gives
    # V_12 = 0; mode 0 overlaps both, so V_01, V_02 != 0
    q = np.linspace(0.0, 1.0, 201)
    phi = [1.0 + 0.5 * np.cos(np.pi * q) + 0.5 * np.cos(2 * np.pi * q),
           np.cos(np.pi * q), np.cos(2 * np.pi * q)]
    doc = {"grid": {"n": 4},
           "modes": {"count": 3, "kind": "given", "q_n": 201,
                     "eps": [0.0, 1.0, 2.0], "phi": [p.tolist() for p in phi]},
           "coupling": {"kind": "constant", "g": 1.0},
           "hg": {"stiffness": 0.3, "potential": {"kind": "zero"}}}
    path = tmp_path / "cosine.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out-dir", str(out),
                 "--instances", "1"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    per_block = report["configured_instance"]["per_block_reading"]
    assert per_block["n_roots"] == 12
    assert per_block["max_rel_dev_vs_direct"] <= 1e-7


def test_hierarchy_subcommand(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", config_path,
                 "--out-dir", str(out)]) == 0
    payload = json.loads((out / "hierarchy.json").read_text())
    assert [lv["depth"] for lv in payload["levels"]] == [1, 2]
    for lv in payload["levels"]:
        assert lv["operator_spectrum_match"]["passed"]


def test_hierarchy_mismatch_is_a_verification_failure(config_path, tmp_path,
                                                       monkeypatch, capsys):
    # no deviation clears a negative tolerance
    monkeypatch.setattr(oracle, "EP_EXACTNESS_TOL", -1.0)
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", config_path,
                 "--out-dir", str(out)]) == 4
    assert "hierarchy: hierarchy failed; see hierarchy.json" \
        in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {"hierarchy": "fail"}
    assert manifest["outputs"] == ["hierarchy.json"]


def test_hierarchy_adds_back_decoupled_poles(tmp_path):
    # with no coupling every pole at both levels is decoupled: it is an
    # eigenvalue of the level operator but never a root
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["coupling"]["g"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "2"]) == 0
    levels = json.loads((out / "hierarchy.json").read_text())["levels"]
    assert [lv["operator_spectrum_match"]["passed"] for lv in levels] \
        == [True, True]


LADDER_4X8 = {"grid": {"n": 8}, "modes": {"count": 4, "delta_eps": 0.7},
              "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                           "sigma": 0.2},
              "hg": {"stiffness": 0.1,
                     "potential": {"kind": "double_well", "depth": 1,
                                   "width": 0.08, "centers": [0.3, 0.7]}}}


@pytest.mark.parametrize("g", [1.0, 0.0])
def test_hierarchy_to_depth_n_tot_minus_one(tmp_path, g):
    doc = json.loads(json.dumps(LADDER_4X8))
    doc["coupling"]["g"] = g
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "3"]) == 0
    levels = json.loads((out / "hierarchy.json").read_text())["levels"]
    assert [lv["depth"] for lv in levels] == [1, 2, 3]
    for lv, n_tot in zip(levels, (4, 3, 2)):
        match = lv["operator_spectrum_match"]
        assert match["passed"]
        assert match["matched_pairs"] == n_tot * 8
        # uncoupled, every pole is decoupled and no root but the N_g of
        # the level's own mode 0 remains
        assert len(lv["roots"]) == (8 if g == 0.0 else n_tot * 8)


def test_hierarchy_depth_n_tot_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(LADDER_4X8))
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "4"]) == 2
    assert "N_tot - 1 = 3" in capsys.readouterr().err
    assert not (out / "hierarchy.json").exists()


def test_hierarchy_refuses_dense_solve_above_cap(tmp_path, monkeypatch,
                                                 capsys):
    # the same DIMENSION_CAP as verify: 4x32 has dimension 128. The cap
    # is the oracle's, called before any reduction: no eigensolve runs
    solve, calls = truncated.diagonalize_sym, []

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("epbeat")]:
        if getattr(module, "diagonalize_sym", None) is solve:
            monkeypatch.setattr(module, "diagonalize_sym", counted)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", 127)
    doc = {"grid": {"n": 32}, "modes": {"count": 4, "delta_eps": 0.7},
           "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                        "sigma": 0.2},
           "hg": {"stiffness": 0.1,
                  "potential": {"kind": "double_well", "depth": 1,
                                "width": 0.08, "centers": [0.3, 0.7]}}}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "2"]) == 3
    assert "dimension 128 exceeds cap 127" in capsys.readouterr().err
    assert not (out / "hierarchy.json").exists()
    assert calls == []
    # at the cap the same run reduces, through the counted eigensolver
    monkeypatch.setattr(oracle, "DIMENSION_CAP", 128)
    assert main(["hierarchy", "--config", str(path), "--out-dir", str(out),
                 "--depth", "2"]) == 0
    assert (3 * 32, 3 * 32) in calls


# prints the heavy modules loaded by the import, the exit code of a
# solve, and the heavy modules loaded after it
STARTUP_PROBE = """
import sys
import epbeat.cli
heavy = ("scipy", "numpy.ma")
print([m for m in heavy if m in sys.modules])
print(epbeat.cli.main(["solve", "--config", sys.argv[1],
                       "--out-dir", sys.argv[2]]))
print([m for m in heavy if m in sys.modules])
"""


def test_startup_loads_neither_scipy_nor_numpy_ma(config_path, tmp_path):
    src = str(Path(epbeat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, config_path,
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "0", "[]"]


def test_beat_born_mode_end_to_end(tmp_path):
    # custom-sampled kernel config producing groups plus intermediate
    # states, so the born rule has a density to match
    from epbeat.verification import two_well_instance
    spec = two_well_instance()
    doc = {
        "grid": {"n": spec.n_g, "span": [0.0, 1.0]},
        "modes": {"count": 2, "kind": "given",
                  "eps": list(spec.modes.eps),
                  "phi": spec.modes.phi.tolist(),
                  "q_n": spec.modes.q_grid.n, "q_span": [0.0, 1.0]},
        "coupling": {"kind": "custom_sampled",
                     "samples": spec.coupling.samples.tolist()},
        "hg": {"stiffness": spec.g_stiffness,
               "potential": list(spec.g_potential)},
        "run": {"pr_threshold": 2.0, "cycles": 300, "seed": 5,
                "prob_mode": "born"},
    }
    path = tmp_path / "twowell.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["beat", "--config", str(path), "--out-dir", str(out)]) == 0
    realizations = json.loads((out / "realizations.json").read_text())
    assert "born" in realizations["alphas"]
    alpha = realizations["alphas"]["born"]
    assert len(alpha) == 2
    assert abs(sum(alpha) - 1.0) <= 1e-12
    summary = json.loads((out / "beat_summary.json").read_text())
    assert summary["mode"] == "born"


def test_report_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["beat", "--config", config_path, "--out-dir", str(out)])
    assert main(["report", "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "roots:" in printed
    assert (out / "report.json").exists()


class TestExitCodes:
    def test_invalid_grid_size(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"n": 0}, "modes": {"count": 2}}')
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"n": 4}, "modes": {"count": 2}, "x": 1}')
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"grid": {"n": 4}, "modes": {"count": 2},'
                         b' "note": "\xff"}')
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not UTF-8" in err

    def test_verify_needs_an_instance(self, config_path, tmp_path, capsys):
        for k in ("0", "-3"):
            assert main(["verify", "--config", config_path,
                         "--out-dir", str(tmp_path / "o"),
                         "--instances", k]) == 2
            assert "instances" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("seed", -1), ("cycles", "abc"), ("cycles", 2.5),
        ("cycles", True), ("prob_mode", "foo"), ("depth", "2"), ("depth", 0),
        ("pr_threshold", "a")])
    def test_bad_run_value(self, tmp_path, capsys, key, value):
        doc = dict(BASE_CONFIG, run={**BASE_CONFIG["run"], key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["beat", "--config", str(path),
                     "--out-dir", str(out)]) == 2
        assert f"run.{key}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any artifact

    def test_seed_below_two_to_the_64(self, config_path, tmp_path, capsys):
        # the generator reduces a seed mod 2^64, so 2^64 would replay seed 0
        out = tmp_path / "o"
        assert main(["beat", "--config", config_path, "--out-dir", str(out),
                     "--seed", str(2 ** 64)]) == 2
        assert "run.seed" in capsys.readouterr().err
        assert not out.exists()
        assert main(["beat", "--config", config_path, "--out-dir", str(out),
                     "--cycles", "50", "--seed", str(2 ** 64 - 1)]) == 0
        summary = json.loads((out / "beat_summary.json").read_text())
        assert summary["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("section,key,value,field", [
        ("modes", "delta_eps", [1], "modes.delta_eps"),
        ("coupling", "g", None, "coupling.g"),
        ("coupling", "g", True, "coupling.g"),
        ("grid", "span", [0], "grid.span"),
        ("modes", "q_n", "abc", "modes.q_n"),
        ("modes", "q_n", 2.7, "modes.q_n"),
        ("hg", "stiffness", "x", "hg.stiffness"),
        ("hg", "potential", "zero", "hg.potential"),
        ("hg", "potential", {"kind": "double_well", "centers": [0.3, "a"]},
         "hg.potential.centers"),
        (None, "grid", [], "grid"),
        (None, "hg", "soft", "hg"),
        ("modes", "q_n", 1, "modes.q_n"),
        ("modes", "q_span", [1, 0], "modes.q_span"),
        ("grid", "n", 1, "grid.n"),
        ("grid", "span", [1, 0], "grid.span"),
        pytest.param("coupling", "g", 10 ** 400, "coupling.g",
                     id="coupling-g-10**400-coupling.g"),
        ("hg", "potential", {"kind": "double_well", "centers": ["0.3", True]},
         "hg.potential.centers"),
        ("hg", "potential", [0, 0, 0, "0", 0, 0], "hg.potential"),
        ("hg", "potential", [0, 0, 0, False, 0, 0], "hg.potential"),
        pytest.param("hg", "potential", [0, 0, 0, 10 ** 400, 0, 0],
                     "hg.potential", id="hg-potential-10**400-hg.potential"),
        (None, "coupling", {"kind": "custom_sampled",
                            "samples": SAMPLES_WITH[True]},
         "coupling.samples"),
        (None, "coupling", {"kind": "custom_sampled",
                            "samples": SAMPLES_WITH["-1"]},
         "coupling.samples"),
        (None, "modes", dict(GIVEN_MODES, eps=[0, "1"]), "modes.eps"),
        (None, "modes", dict(GIVEN_MODES, eps=[False, 1]), "modes.eps"),
        (None, "modes", dict(GIVEN_MODES, phi=[[1, 1], [True, -1]]),
         "modes.phi"),
        (None, "modes", dict(GIVEN_MODES, phi=[[1, 1], ["1", -1]]),
         "modes.phi"),
        (None, "modes", dict(GIVEN_MODES, phi=[[1, 1], [0, 0]]), "modes.phi"),
        ("grid", "span", [0, 1e-320], "grid.span"),
        ("modes", "q_span", [1e6, 1e6 + 1e-6], "modes.q_span"),
        ("hg", "potential", {"kind": "double_well", "width": 0,
                             "centers": [0.3, 0.7]}, "hg.potential.width"),
        ("hg", "potential", {"kind": "double_well", "width": -0.08,
                             "centers": [0.3, 0.7]}, "hg.potential.width"),
        # evenly spaced, but h * h underflows: no finite 1/h^2
        ("grid", "span", [0, 1e-200], "grid.span"),
        (None, "grid", {"n": 6, "span": [0, 1e-320], "boundary": "periodic"},
         "grid.span"),
        ("hg", "potential", {"kind": "double_well", "centers": [0.3, 0.7],
                             "detune": "x"}, "hg.potential.detune"),
        # operator scales whose squares overflow (model._check_scale)
        ("hg", "potential", [1e200, 0, 0, 0, 0, 0], "hg.potential"),
        ("modes", "delta_eps", 1e200, "modes.delta_eps"),
        ("hg", "stiffness", 1e300, "hg.stiffness"),
        ("grid", "span", [0, 1e-150], "grid.span"),
        ("coupling", "g", 1e200, "coupling.g")])
    def test_malformed_value_names_its_field(self, tmp_path, capsys, section,
                                             key, value, field):
        # grids and bump profiles are cached on success: a cached
        # success first must not let a malformed value through
        build_problem(BASE_CONFIG)
        doc = json.loads(json.dumps(BASE_CONFIG))
        (doc if section is None else doc[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()  # rejected before any artifact

    @pytest.mark.parametrize("literal",
                             ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_finite_number(self, tmp_path, capsys, command, literal):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"n": 6}, "modes": {"count": 3}, '
                        f'"hg": {{"potential": [0, 0, 0, {literal}, 0, 0]}}}}')
        out = tmp_path / "o"
        assert main([command, "--config", str(path),
                     "--out-dir", str(out)]) == 2
        assert literal in capsys.readouterr().err
        assert not out.exists()  # rejected before any artifact

    def test_report_empty_dir_numerical_failure(self, tmp_path):
        assert main(["report", "--out-dir", str(tmp_path / "empty")]) == 3

    def test_large_stiffness_in_range_solves(self, tmp_path):
        # 4 stiffness / h^2 = 1e142: dimension 18 x (2 x scale)^2 is finite
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["hg"]["stiffness"] = 1e140
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 0

    def test_out_of_memory_is_a_numerical_failure(self, config_path, tmp_path,
                                                  monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(cli, "solve_problem", exhausted)
        out = tmp_path / "o"
        assert main(["solve", "--config", config_path,
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: solve: out of memory at N_tot*N_g = 3*6 = 18 "
            "(Unable to allocate 32.0 GiB)\n")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--depth", "3", "--cycles", "7"], ["solve", "--cycles", "0"],
        ["solve", "--instances", "2"], ["beat", "--depth", "2"],
        ["verify", "--cycles", "5"], ["verify", "--prob-mode", "born"],
        ["hierarchy", "--cycles", "5"], ["hierarchy", "--prob-mode", "born"],
        ["report", "--depth", "0"], ["report", "--seed", "1"]])
    def test_flag_the_subcommand_does_not_read(self, config_path, tmp_path,
                                               capsys, argv):
        out = tmp_path / "o"
        if argv[0] != "report":
            argv = argv[:1] + ["--config", config_path] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


# run key -> (its documented default, a config value, a flag value)
RUN_KEY_VALUES = {
    "seed": (0, 5, 9),
    "cycles": (10_000, 300, 40),
    "prob_mode": ("uniform", "born", "grouped"),
    "depth": (2, 1, 3),
    "pr_threshold": (None, 2.5, None),
    "out_dir": ("out", "from_config", "from_flag"),
}


@pytest.mark.parametrize("key", cli.RUN_KEYS)
def test_run_key_flag_over_config_over_default(key, monkeypatch):
    default, in_config, in_flag = RUN_KEY_VALUES[key]
    # the first subcommand that takes the key's flag (all take --out-dir)
    name = next((name for name, (_, flags) in cli.SUBCOMMANDS.items()
                 if name != "report" and key in flags + ("out_dir",)), None)

    def read(flag, block):
        args = build_parser().parse_args(
            [name or "solve", "--config", "c.json"] + flag)
        return cli._run_settings({} if block is None else {"run": block},
                                 args)[key]

    monkeypatch.delenv("EPBEAT_OUT_DIR", raising=False)
    assert read([], None) == default
    assert read([], {}) == default
    assert read([], {key: in_config}) == in_config
    if name is None:
        # only pr_threshold has no flag: the config has the last word
        assert key == "pr_threshold"
    else:
        flag = ["--" + key.replace("_", "-"), str(in_flag)]
        assert read(flag, {key: in_config}) == in_flag
    if key == "out_dir":
        # the environment is read as the run starts, under the config
        monkeypatch.setenv("EPBEAT_OUT_DIR", "from_env")
        assert read([], None) == "from_env"
        assert read([], {key: in_config}) == in_config


@pytest.mark.parametrize("argv,read", [
    (["solve", "--seed", "1", "--prob-mode", "born"],
     {"seed": 1, "prob_mode": "born"}),
    (["beat", "--seed", "1", "--cycles", "5", "--prob-mode", "grouped"],
     {"seed": 1, "cycles": 5, "prob_mode": "grouped"}),
    (["verify", "--seed", "1", "--instances", "3"],
     {"seed": 1, "instances": 3}),
    (["hierarchy", "--seed", "1", "--depth", "2"], {"seed": 1, "depth": 2}),
    (["report"], {})])
def test_each_subcommand_takes_its_flags(argv, read):
    config = [] if argv[0] == "report" else ["--config", "c.json"]
    args = build_parser().parse_args(
        argv[:1] + config + ["--out-dir", "d"] + argv[1:])
    assert args.out_dir == "d"
    assert {k: v for k, v in vars(args).items()
            if k not in ("subcommand", "config", "out_dir")} == read


def test_float_seventeen_digit_roundtrip(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", config_path, "--out-dir", str(out)])
    spectrum = json.loads((out / "spectrum.json").read_text())
    text = (out / "spectrum.json").read_text()
    # parsing the printed roots and reformatting is lossless
    for value in spectrum["roots"]:
        assert format(float(value), ".17g") in text
