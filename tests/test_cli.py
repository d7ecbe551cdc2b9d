"""End-to-end runner: artifacts, determinism, exit codes."""

import hashlib
import json
import math
import warnings
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epbeat
from epbeat import build_problem, cli, oracle, pipeline, truncated
from epbeat.assembly import StateSet
from epbeat.cli import main, parse_args
from epbeat.verification import STATE_RESIDUAL_TOL, state_residual_passes

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
    assert manifest["checks"] == {"beat": "not run", "state_residual": "pass"}
    assert 0.0 <= manifest["state_residual_max"] <= STATE_RESIDUAL_TOL
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


RECONSTRUCT_ALL = pipeline.reconstruct_all


def tails_zeroed(*args):
    """reconstruct_all, with state 0's tails (modes 1 and up) zeroed."""
    states = RECONSTRUCT_ALL(*args)
    channels = states.channels.copy()
    channels[0, 1:] = 0.0
    return StateSet(channels=channels, energies=states.energies,
                    basis=states.basis, xi_grid=states.xi_grid)


@pytest.mark.parametrize("command", ["solve", "beat"])
def test_solve_and_beat_certify_the_states_they_write(
        config_path, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(pipeline, "reconstruct_all", tails_zeroed)
    out = tmp_path / "out"
    assert main([command, "--config", config_path,
                 "--out-dir", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"verification failure: {command}: state_residual failed; "
        "see manifest.json\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["state_residual"] == "fail"
    assert manifest["state_residual_max"] > 1e3 * STATE_RESIDUAL_TOL
    # the artifacts are written all the same
    assert all((out / name).exists() for name in manifest["outputs"])


def test_a_nan_state_residual_fails(config_path, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "max_state_residual", lambda result: math.nan)
    out = tmp_path / "out"
    assert main(["solve", "--config", config_path,
                 "--out-dir", str(out)]) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["state_residual"] == "fail"
    assert manifest["state_residual_max"] is None


def test_state_residual_bound_is_absolute_above_rounding():
    # STATE_RESIDUAL_TOL, unless rounding at the operator's scale leaves
    # more: dim x eps x G = 18 x 2.2e-16 x 1e142 = 4.0e127 at stiffness
    # 1e140, where the solve's residual is 2.5e126
    spec = build_problem(BASE_CONFIG)
    assert state_residual_passes(STATE_RESIDUAL_TOL, spec)
    assert not state_residual_passes(2 * STATE_RESIDUAL_TOL, spec)
    assert not state_residual_passes(math.nan, spec)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["hg"]["stiffness"] = 1e140
    stiff = build_problem(doc)
    assert state_residual_passes(1e127, stiff)
    assert not state_residual_passes(1e128, stiff)
    assert not state_residual_passes(math.nan, stiff)


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


@pytest.fixture
def eigensolves(monkeypatch):
    """The shapes diagonalize_sym is called with, wherever it is imported."""
    solve, calls = truncated.diagonalize_sym, []

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("epbeat")]:
        if getattr(module, "diagonalize_sym", None) is solve:
            monkeypatch.setattr(module, "diagonalize_sym", counted)
    return calls


@pytest.fixture
def ladder_4x32(tmp_path):
    doc = {"grid": {"n": 32}, "modes": {"count": 4, "delta_eps": 0.7},
           "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                        "sigma": 0.2},
           "hg": {"stiffness": 0.1,
                  "potential": {"kind": "double_well", "depth": 1,
                                "width": 0.08, "centers": [0.3, 0.7]}}}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    return path


def test_hierarchy_refuses_dense_solve_above_cap(tmp_path, monkeypatch,
                                                 capsys, eigensolves,
                                                 ladder_4x32):
    # the same DIMENSION_CAP as verify: 4x32 has dimension 128. The cap
    # is the oracle's, called before any reduction: no eigensolve runs
    monkeypatch.setattr(oracle, "DIMENSION_CAP", 127)
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(ladder_4x32),
                 "--out-dir", str(out), "--depth", "2"]) == 3
    assert "dimension 128 exceeds cap 127" in capsys.readouterr().err
    assert not (out / "hierarchy.json").exists()
    assert eigensolves == []
    # at the cap the same run reduces, through the counted eigensolver
    monkeypatch.setattr(oracle, "DIMENSION_CAP", 128)
    assert main(["hierarchy", "--config", str(ladder_4x32),
                 "--out-dir", str(out), "--depth", "2"]) == 0
    assert (3 * 32, 3 * 32) in eigensolves


@pytest.mark.parametrize("depth", ["4", "99"])
def test_hierarchy_refuses_a_bad_depth_before_any_eigensolve(
        tmp_path, monkeypatch, capsys, eigensolves, ladder_4x32, depth):
    # a depth outside 1..N_tot - 1 exits 2 at every size, the dense
    # oracle's cap included: neither the oracle nor a reduction runs
    def oracle_called(*args):
        raise AssertionError("the oracle ran before the depth was checked")

    monkeypatch.setattr(cli, "direct_energies", oracle_called)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", 127)
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", str(ladder_4x32),
                 "--out-dir", str(out), "--depth", depth]) == 2
    assert capsys.readouterr().err == (
        f"config error: run.depth: must be in 1..N_tot - 1 = 3, "
        f"got {depth}\n")
    assert eigensolves == []
    assert not out.exists()


# prints the heavy modules loaded by the import, the exit code of the
# CLI command given as arguments, and the heavy modules loaded after it
STARTUP_PROBE = """
import sys
import epbeat.cli
heavy = ("scipy", "numpy.ma", "numpy.random", "argparse", "gettext",
         "locale")
print([m for m in heavy if m in sys.modules])
print(epbeat.cli.main(sys.argv[1:]))
print([m for m in heavy if m in sys.modules])
"""


def probe_startup(argv: list) -> list:
    """STARTUP_PROBE's output lines for one CLI command, run in a fresh
    interpreter (this one has imported numpy.random for the tests)."""
    src = str(Path(epbeat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_startup_loads_neither_scipy_nor_numpy_ma(config_path, tmp_path):
    assert probe_startup(["solve", "--config", config_path,
                          "--out-dir", str(tmp_path / "out")]) == [
        "[]", "0", "[]"]


def test_verify_runs_without_numpy_random(config_path, tmp_path):
    # the battery draws from rng.PCG64, not numpy.random.default_rng
    assert probe_startup(["verify", "--config", config_path,
                          "--out-dir", str(tmp_path / "out"),
                          "--instances", "3"]) == ["[]", "0", "[]"]


def test_hierarchy_runs_without_argparse_or_locale(config_path, tmp_path):
    # argparse's messages go through gettext, which imports locale
    assert probe_startup(["hierarchy", "--config", config_path,
                          "--out-dir", str(tmp_path / "out"),
                          "--depth", "2"]) == ["[]", "0", "[]"]


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


def test_report_json_is_byte_identical_across_reruns(config_path, tmp_path):
    # the manifest's timings stay in manifest.json alone
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", "--config", config_path,
                     "--out-dir", str(out)]) == 0
        assert main(["report", "--out-dir", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"elapsed_seconds", "timestamp"} <= set(manifest)
        copied = json.loads(reports[-1])["manifest.json"]
        assert copied == {k: v for k, v in manifest.items()
                          if k not in ("elapsed_seconds", "timestamp")}
    assert reports[0] == reports[1]


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

    @pytest.mark.parametrize("command", ["solve", "beat", "verify",
                                         "hierarchy"])
    @pytest.mark.parametrize("threshold", [
        0.5, 1, 6, 1e300, pytest.param(10 ** 400, id="int-past-float")])
    def test_pr_threshold_out_of_range_refused_before_the_solve(
            self, tmp_path, monkeypatch, capsys, command, threshold):
        # BASE_CONFIG has N_g = 6: the threshold must lie in (1, 6); an
        # integer past the float range is compared exactly, not converted
        def solved(*args):
            raise AssertionError("solved before run.pr_threshold was checked")

        for name in ("solve_problem", "check_instance", "project_coupling"):
            monkeypatch.setattr(cli, name, solved)
        doc = dict(BASE_CONFIG,
                   run={**BASE_CONFIG["run"], "pr_threshold": threshold})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([command, "--config", str(path),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: run.pr_threshold: must lie strictly between 1 "
            f"and N_g=6, got {threshold!r}\n")
        assert not out.exists()

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
        ("coupling", "g", 1e200, "coupling.g"),
        # the kernel's 2 sigma^2 underflows to 0: 0/0 where q = xi
        ("coupling", "sigma", 1e-200, "coupling.sigma"),
        # the bump width is a constant, not a config key
        ("modes", "width_factor", 1.5, "modes.width_factor")])
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

    @pytest.mark.parametrize("changes, field", [
        ({"coupling.sigma": 1e-200}, "coupling.sigma"),
        ({"modes.delta_eps": 1e308}, "modes.delta_eps"),
        ({"grid.span": [0, 1e200]}, "hg.potential"),
        # ** raised OverflowError on 2 sigma^2, and on the double well's
        # 2 width^2 with its default width of 0.1 x the span: exit 1
        ({"coupling.sigma": 1e200}, "coupling.sigma"),
        ({"grid.span": [0, 1e200],
          "hg.potential": {"kind": "double_well", "centers": [0.3, 0.7]}},
         "hg.potential.width"),
        # 2 width^2 underflows: the wells vanished, after two warnings
        ({"hg.potential": {"kind": "double_well", "centers": [0.3, 0.7],
                           "width": 1e-200}}, "hg.potential.width"),
        ({"modes.q_span": [0, 1e200]}, "modes.phi"),
        # 0 x inf is NaN in the potential, named as its own field
        ({"grid.span": [0, 1e200],
          "hg.potential": {"kind": "harmonic", "strength": 0.0}},
         "hg.potential")], ids=[
            "sigma-1e-200", "delta_eps-1e308", "harmonic-span-1e200",
            "sigma-1e200", "double_well-span-1e200", "width-1e-200",
            "q_span-1e200", "harmonic-strength-0-span-1e200"])
    def test_out_of_range_refused_without_a_warning(self, tmp_path, capsys,
                                                    changes, field):
        doc = json.loads(json.dumps(BASE_CONFIG))
        for name, value in changes.items():
            section, key = name.split(".")
            doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path),
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", [
        # 2 sigma^2 = 2e-320 is subnormal: (q - xi)^2 over it overflows
        {"coupling.sigma": 1e-160},
        # xi reaches 1e200 and q only 1: (q - xi)^2 overflows
        {"grid.span": [0, 1e200], "hg.potential": {"kind": "zero"}}],
        ids=["sigma-1e-160", "zero-span-1e200"])
    def test_gaussian_at_the_float_limit_solves_without_a_warning(
            self, tmp_path, changes):
        doc = json.loads(json.dumps(BASE_CONFIG))
        for name, value in changes.items():
            section, key = name.split(".")
            doc[section][key] = value
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(doc))
        spec = build_problem(doc)
        q, xi = spec.modes.q_grid.points, spec.xi_grid.points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path),
                         "--out-dir", str(tmp_path / "o")]) == 0
            kernel = spec.coupling.kernel(q, xi)
        # exp(-inf) = 0 wherever the exponent overflowed: with sigma
        # 1e-160, -g exactly where q = xi; on the wide span, the
        # Gaussian of q alone on the column xi = 0 (q spans [0, 1])
        g, sigma = spec.coupling.strength, spec.coupling.width
        if "coupling.sigma" in changes:
            expected = np.where(q[:, None] == xi, -g, 0.0)
        else:
            expected = np.zeros_like(kernel)
            expected[:, 0] = -g * np.exp(-q ** 2 / (2 * sigma ** 2))
        assert np.count_nonzero(kernel) >= 2
        assert np.array_equal(kernel, expected)

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

    @pytest.mark.parametrize("name, content", [
        ("manifest.json", b"[1, 2]"),
        ("spectrum.json", b'{"x": 1}'),
        ("realizations.json", b'{"n_realizations": 1}'),
        ("manifest.json", b"\xff\xfe"),
        ("manifest.json", b'{"version": '),
        ("hierarchy.json", b"[" * 100_000),  # nested past json's depth
    ])
    def test_report_malformed_artifact_numerical_failure(
            self, tmp_path, capsys, name, content):
        # one stderr line naming the file; nothing printed or written
        (tmp_path / name).write_bytes(content)
        assert main(["report", "--out-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert str(tmp_path / name) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "report.json").exists()

    def test_large_stiffness_in_range_solves(self, tmp_path):
        # 4 stiffness / h^2 = 1e142: dimension 18 x (2 x scale)^2 is finite
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["hg"]["stiffness"] = 1e140
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 0

    def test_large_stiffness_in_range_verifies(self, tmp_path):
        # its configured instance's state residual, 2.5e126, is rounding
        # at operator norm 1e142, so no check fails
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["hg"]["stiffness"] = 1e140
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path), "--instances", "1",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["configured_instance"]["state_residual_max"] > 1e126

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
    name = next((name for name, (_, _, flags) in cli.SUBCOMMANDS.items()
                 if name != "report" and key in flags), None)

    def read(flag, block):
        args = parse_args([name or "solve", "--config", "c.json"] + flag)
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
    args = parse_args(
        argv[:1] + config + ["--out-dir", "d"] + argv[1:])
    assert args.out_dir == "d"
    assert {k: v for k, v in vars(args).items()
            if k not in ("subcommand", "config", "out_dir")} == read


def config_never_read(monkeypatch):
    def read(path):
        raise AssertionError(f"config {path} read")

    monkeypatch.setattr(cli, "read_config", read)


# (a malformed command line, what its error line says); C is the config
MALFORMED = {
    "no subcommand": ([], "the following arguments are required: subcommand"),
    "unknown subcommand": (["solv", "--config", "C"],
                           "invalid choice: 'solv'"),
    "unknown flag": (["solve", "--config", "C", "--no-such-flag"],
                     "unrecognized arguments: --no-such-flag"),
    "foreign flag": (["solve", "--config", "C", "--depth", "2"],
                     "unrecognized arguments: --depth 2"),
    "abbreviation": (["solve", "--conf", "C"],
                     "the following arguments are required: --config"),
    "version after the subcommand": (["beat", "--config", "C", "--version"],
                                     "unrecognized arguments: --version"),
    "missing value": (["solve", "--config"],
                      "argument --config: expected one argument"),
    "flag for a value": (["solve", "--out-dir", "--config", "C"],
                         "argument --out-dir: expected one argument"),
    "non-integer": (["beat", "--config", "C", "--cycles", "2.5"],
                    "argument --cycles: invalid int value: '2.5'"),
    "non-integer after =": (["verify", "--config=C", "--seed=x"],
                            "argument --seed: invalid int value: 'x'"),
    "bad choice": (["solve", "--config", "C", "--prob-mode", "Born"],
                   "argument --prob-mode: invalid choice: 'Born'"),
    "no config": (["hierarchy", "--depth", "2"],
                  "the following arguments are required: --config"),
    "stray positional": (["hierarchy", "--config", "C", "2"],
                         "unrecognized arguments: 2"),
}


@pytest.mark.parametrize("argv,error", MALFORMED.values(), ids=MALFORMED)
def test_malformed_command_line_exits_2_before_the_config(
        config_path, tmp_path, monkeypatch, capsys, argv, error):
    # every output dir would land in the empty working directory
    config_never_read(monkeypatch)
    monkeypatch.delenv("EPBEAT_OUT_DIR", raising=False)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exc:
        main([config_path if a == "C" else a.replace("=C", "=" + config_path)
              for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    usage, line = captured.err.splitlines()
    assert usage.startswith("usage: epbeat ")
    assert line.startswith("epbeat: error: ") and error in line
    assert captured.out == ""
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--version"], ["-h"], ["--help"], ["solve", "-h"], ["report", "--help"],
    ["verify", "--config", "c.json", "--seed", "3", "-h"]])
def test_version_and_help_exit_0_without_a_config(monkeypatch, capsys, argv):
    config_never_read(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv == ["--version"]:
        assert captured.out == epbeat.__version__ + "\n"
        return
    usage, *lines = captured.out.splitlines()
    name = argv[0] if argv[0] in cli.SUBCOMMANDS else None
    assert usage == cli._usage(name)
    # a line per subcommand, or per flag, ending in its help text
    if name is None:
        rows = [(sub, brief) for sub, (_, brief, _) in cli.SUBCOMMANDS.items()]
    else:
        rows = [("--" + f.replace("_", "-"), cli.FLAGS[f].get("help", ""))
                for f in cli.SUBCOMMANDS[name][2]]
    by_word = {line.split()[0]: line for line in lines if line}
    for word, text in rows:
        assert by_word[word].endswith(text), word


def test_flag_equals_value_parses_as_flag_space_value():
    spaced = ["beat", "--config", "c.json", "--out-dir", "d", "--seed", "3",
              "--cycles", "5", "--prob-mode", "born"]
    joined = spaced[:1] + [f"{flag}={value}" for flag, value
                           in zip(spaced[1::2], spaced[2::2])]
    assert parse_args(joined) == parse_args(spaced)
    assert vars(parse_args(spaced)) == {
        "subcommand": "beat", "config": "c.json", "out_dir": "d", "seed": 3,
        "cycles": 5, "prob_mode": "born"}


def test_last_repeat_wins_and_dash_values_pass():
    args = parse_args(["verify", "--config", "a.json", "--seed", "1",
                       "--instances=-3", "--seed=2", "--config", "-"])
    assert vars(args) == {"subcommand": "verify", "config": "-",
                          "out_dir": None, "seed": 2, "instances": -3}


def artifacts(out):
    """Every file of an output dir, the manifest without its timings."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["elapsed_seconds"], manifest["timestamp"]
    return files, manifest


def test_one_process_runs_as_fresh_processes(config_path, tmp_path, capsys):
    # no flag value may carry over from one main call of a process, nor
    # from one that failed, to the next
    runs = [["solve", "--seed", "5", "--prob-mode", "born"], ["solve"],
            ["beat", "--cycles", "9", "--seed", "3", "--no-such-flag"],
            ["verify"]]
    src = str(Path(epbeat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    for j, argv in enumerate(runs):
        argv = argv[:1] + ["--config", config_path] + argv[1:]
        here, fresh = tmp_path / f"here_{j}", tmp_path / f"fresh_{j}"
        if "--no-such-flag" in argv:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out-dir", str(here)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not here.exists()
            continue
        assert main(argv + ["--out-dir", str(here)]) == 0
        subprocess.run([sys.executable, "-m", "epbeat.cli", *argv,
                        "--out-dir", str(fresh)], env=env, check=True,
                       capture_output=True)
        assert artifacts(here) == artifacts(fresh), argv
    seeds = [json.loads((tmp_path / f"here_{j}" / "manifest.json")
                        .read_text())["seed"] for j in (0, 1, 3)]
    assert seeds == [5, 7, 7]
    assert (tmp_path / "here_0" / "density_mixed_born.csv").exists()
    assert (tmp_path / "here_1" / "density_mixed_uniform.csv").exists()


def test_float_seventeen_digit_roundtrip(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", config_path, "--out-dir", str(out)])
    spectrum = json.loads((out / "spectrum.json").read_text())
    text = (out / "spectrum.json").read_text()
    # parsing the printed roots and reformatting is lossless
    for value in spectrum["roots"]:
        assert format(float(value), ".17g") in text
