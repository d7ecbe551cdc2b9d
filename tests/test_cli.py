"""End-to-end runner: artifacts, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from epbeat.cli import main

BASE_CONFIG = {
    "grid": {"n": 6, "span": [0.0, 1.0], "boundary": "dirichlet"},
    "modes": {"count": 3, "kind": "bumps", "delta_eps": 1.0, "q_n": 24,
              "q_span": [0.0, 1.0]},
    "coupling": {"kind": "gaussian_attractive", "g": 1.0, "sigma": 0.25},
    "hg": {"stiffness": 0.2,
           "potential": {"kind": "harmonic", "strength": 2.0, "center": 0.5}},
    "run": {"seed": 7, "cycles": 400, "prob_mode": "uniform"},
}


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
    assert spectrum["counts"]["n_roots"] == 18
    assert spectrum["accounting"]["measured_equals_rank_accounting"]


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

    def test_verify_needs_an_instance(self, config_path, tmp_path, capsys):
        for k in ("0", "-3"):
            assert main(["verify", "--config", config_path,
                         "--out-dir", str(tmp_path / "o"),
                         "--instances", k]) == 2
            assert "instances" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("seed", -1), ("cycles", "abc"), ("cycles", 2.5),
        ("cycles", True), ("prob_mode", "foo"), ("depth", "2"),
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

    def test_report_empty_dir_numerical_failure(self, tmp_path):
        assert main(["report", "--out-dir", str(tmp_path / "empty")]) == 3


def test_float_seventeen_digit_roundtrip(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", "--config", config_path, "--out-dir", str(out)])
    spectrum = json.loads((out / "spectrum.json").read_text())
    text = (out / "spectrum.json").read_text()
    # parsing the printed roots and reformatting is lossless
    for value in spectrum["roots"]:
        assert format(float(value), ".17g") in text
