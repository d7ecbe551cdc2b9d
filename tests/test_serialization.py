"""The array-aware JSON and density-CSV writers against the per-element
writers they replaced.

ref_to_json and ref_density_csv are the per-element originals, kept as
the oracle: they format one Python scalar at a time and never see an
array. The writers must give the same bytes for an array as the oracle
gives for its tolist().
"""

import hashlib
import json

import numpy as np
import pytest

import epbeat.cli as cli
from epbeat import build_problem
from epbeat.cli import _to_json, main, write_density_csv, write_json
from epbeat.effective import ep_from_poles
from epbeat.verification import two_well_instance

# sha256 of ep.json for the two potentials below, written by the writer
# that stored one residue factor per pole (numpy 2.4.6): the per-pole
# split of the column matrix must keep the layout
RANKS_1210_EP_SHA256 = (
    "629d6ce26afeea63d4a58673db94853806775d1b5120d13d4cf9d86c35c0b748")
NO_POLES_EP_SHA256 = (
    "3d31126e3830b544014f7a98d92b1f2bd939a8c5d02800cfc745c507377f5bae")


def ref_fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(float(x), ".17g")


def ref_to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {ref_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{ref_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return ref_fmt_float(float(obj))
    return json.dumps(str(obj))


def ref_density_csv(rho, q_points, xi_points) -> str:
    lines = ["xi," + ",".join(ref_fmt_float(q) for q in q_points)]
    for j, xi in enumerate(xi_points):
        lines.append(ref_fmt_float(xi) + ","
                     + ",".join(ref_fmt_float(x) for x in rho[:, j]))
    return "\n".join(lines) + "\n"


def as_scalars(obj):
    """obj with every numpy array and scalar turned into Python lists
    and scalars, the only input the oracle formats correctly."""
    if isinstance(obj, dict):
        return {k: as_scalars(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_scalars(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


NONFINITE = np.array([1.5, np.nan, np.inf, -np.inf, -0.0, 0.0])
EDGE_CASES = {
    "nonfinite": NONFINITE,
    "nonfinite_2d": np.array([[np.nan, 1e-300], [-np.inf, 1 / 3]]),
    "python_nonfinite": [float("nan"), float("inf"), float("-inf"), -0.0],
    "numpy_scalars": [np.float64(0.1), np.float32(0.1), np.int64(-7),
                      np.int32(3), np.uint8(255), np.float64(np.nan)],
    "zero_d": [np.array(2.0 / 3.0), np.array(-4), np.array(np.inf),
               np.array(True)],
    "empty": np.zeros(0),
    "decoupled_factor": np.zeros((5, 0)),
    "empty_rows": np.zeros((0, 3)),
    "int_array": np.arange(-3, 9).reshape(3, 4),
    "uint_array": np.arange(4, dtype=np.uint64),
    "bool_array": np.array([[True, False], [False, True]]),
    "float32": np.linspace(0, 1, 7, dtype=np.float32),
    "three_d": np.random.default_rng(3).standard_normal((2, 3, 4)),
    "column": np.random.default_rng(4).standard_normal((4, 1)),
    # lists of same-shape arrays, written item by item
    "same_shape_columns": list(
        np.random.default_rng(6).standard_normal((3, 4, 1))),
    "list_nonfinite": [np.array([1.0, 2.0]), np.array([np.nan, -np.inf]),
                       np.array([np.inf, -0.0])],
    "zero_d_list": [np.array(1.5), np.array(-2.0), np.array(np.nan)],
    # same shape, different dtypes: each item keeps its own conversion
    # (np.stack would print bools as 0/1, 2**60 as 1.152921504606847e+18)
    "same_shape_bool_int": [np.array([True, False]), np.array([1, 0])],
    "same_shape_int_float": [np.array([2 ** 60, -3]), np.array([0.5, 2.0])],
    "zero_middle_axis": np.zeros((2, 0, 3)),
    # a file is filled by %: % in keys and strings must come out as is
    "percent_text": {"100%": "%d%%", "%(x)s": ["%", "%s", "a %.17g b"],
                     "%d": np.array([1.5, 2.0]), "%%": np.arange(2)},
    # a non-finite array is written element by element; "inf" and "nan"
    # in keys and strings are text, never replaced by null
    "mixed_finite_nonfinite": {
        "info": "nan", "inf": [np.array([1.0, np.inf]), np.array([2.0, 3.0]),
                               np.array([np.nan]), "-inf", np.eye(2),
                               np.array([-np.inf, 0.5], dtype=np.float32)]},
    "int_extremes": [np.array([-2 ** 63, 2 ** 63 - 1], dtype=np.int64),
                     np.array([2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
                     np.uint64(2 ** 64 - 1), np.int64(-2 ** 63)],
    "zero_d_each_dtype": [np.array(False), np.array(7, dtype=np.int64),
                          np.array(2 ** 64 - 1, dtype=np.uint64),
                          np.array(0.1, dtype=np.float32), np.array(-0.0),
                          np.array(-np.inf, dtype=np.float32)],
    "bool_and_float32": [np.array([[True], [False]]),
                         np.array([0.1, 1e-45, 3.4e38], dtype=np.float32)],
    "empty_columns": [np.zeros((6, 0)), np.ones((6, 1)), np.zeros((6, 0))],
    "no_conversion": [np.array([1 + 2j, -0.5j]), np.array(["a%", "inf"]),
                      np.array([None, 1.5], dtype=object)],
    "python_scalars": [1, -2, 10 ** 30, 0, 0.1, -0.0, 1e300, True, False,
                       None, [1, 2.5, True], (False, -7)],
    # more elements than one fill takes, with % text and non-finite
    # arrays on both sides of each fill's end
    "several_fills": {"%d": list(np.random.default_rng(9).standard_normal(
        (60, 40, 1))) + [np.array([np.nan]), "100%", np.arange(700)],
        "%s%%": [np.array([-np.inf]), np.ones((30, 40))]},
    "nested": {
        "factors": [np.ones((3, 2)), np.zeros((3, 0)),
                    np.random.default_rng(5).standard_normal((3, 1))],
        "mixed": [1, np.array([2.5, np.nan]), {"deep": np.eye(2)},
                  (np.arange(2), None, "text", True), [], {}],
        "scalar": np.float64(1e17),
    },
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_reference(name):
    obj = EDGE_CASES[name]
    assert _to_json(obj) == ref_to_json(as_scalars(obj))
    assert _to_json({"a": [obj]}) == ref_to_json(as_scalars({"a": [obj]}))


@pytest.mark.parametrize("chunk", [1, 3, 40])
def test_small_fills_write_the_same_text(chunk, monkeypatch):
    # a fill ends after the array that reaches FILL_CHUNK elements
    monkeypatch.setattr(cli, "FILL_CHUNK", chunk)
    for name, obj in EDGE_CASES.items():
        assert _to_json(obj) == ref_to_json(as_scalars(obj)), name


def test_decoupled_factor_prints_one_empty_list_per_row():
    assert _to_json(np.zeros((3, 0))) == "[\n  [],\n  [],\n  []\n]"


def test_numpy_bools_and_arrays_are_written_as_json():
    # the per-element writer gave "True" and "[1. 2.]" (strings)
    assert _to_json({"b": np.bool_(True), "f": np.bool_(False)}) \
        == '{\n  "b": true,\n  "f": false\n}'
    assert _to_json({"c": np.array([1.0, 2.0])}) \
        == '{\n  "c": [\n    1,\n    2\n  ]\n}'
    values = np.array([0.1, 1 / 3, np.pi * 1e-300, -2.0 ** 0.5])
    loaded = json.loads(_to_json({"c": values, "m": np.eye(2) / 3}))
    assert loaded["c"] == values.tolist()
    assert loaded["m"] == (np.eye(2) / 3).tolist()


def test_ep_from_poles_potential_matches_reference(tmp_path):
    # pole 2.0 is replicated with independent vectors (one rank-2
    # factor), 1.0 and 3.0 are simple, 4.0 has a zero vector (rank 0)
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((3, 5))
    vectors[:, 4] = 0.0
    ep = ep_from_poles(np.diag([0.5, 1.5, 2.5]), [2.0, 1.0, 2.0, 3.0, 4.0],
                       vectors, n_channels=2)
    assert ep.ranks.tolist() == [1, 2, 1, 0]
    write_json(tmp_path / "ep.json", ep.to_dict())
    assert (tmp_path / "ep.json").read_text(encoding="utf-8") \
        == ref_to_json(as_scalars(ep.to_dict())) + "\n"
    digest = hashlib.sha256((tmp_path / "ep.json").read_bytes()).hexdigest()
    assert digest == RANKS_1210_EP_SHA256


def test_ep_without_poles_keeps_its_layout(tmp_path):
    ep = ep_from_poles(0.75 * np.eye(2), [], np.zeros((2, 0)), n_channels=0)
    assert ep.w.shape == (2, 0) and ep.to_dict()["residue_factors"] == []
    write_json(tmp_path / "ep.json", ep.to_dict())
    digest = hashlib.sha256((tmp_path / "ep.json").read_bytes()).hexdigest()
    assert digest == NO_POLES_EP_SHA256


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (3, 5)])
def test_density_csv_matches_reference(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    n_q, n_xi = shape
    rho = rng.standard_normal((n_q, n_xi))
    rho.flat[::3] = [np.nan, np.inf, -np.inf, -0.0][:rho.flat[::3].size]
    q = np.linspace(-1.0, 1.0, n_q)
    xi = np.linspace(0.0, 1.0, n_xi)
    write_density_csv(tmp_path / "d.csv", rho, q, xi)
    assert (tmp_path / "d.csv").read_text(encoding="utf-8") \
        == ref_density_csv(rho, q, xi)


def ladder_config(n_tot, n_g):
    return {"grid": {"n": n_g},
            "modes": {"count": n_tot, "delta_eps": 0.7},
            "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                         "sigma": 0.2},
            "hg": {"stiffness": 0.1,
                   "potential": {"kind": "double_well", "depth": 1,
                                 "width": 0.08, "centers": [0.3, 0.7]}}}


def two_well_config():
    spec = two_well_instance()
    xi, q = spec.xi_grid, spec.modes.q_grid
    return {"grid": {"n": xi.n,
                     "span": [float(xi.points[0]), float(xi.points[-1])],
                     "boundary": xi.boundary},
            "modes": {"count": spec.n_tot, "kind": "given", "q_n": q.n,
                      "q_span": [float(q.points[0]), float(q.points[-1])],
                      "eps": spec.modes.eps.tolist(),
                      "phi": spec.modes.phi.tolist()},
            "coupling": {"kind": "custom_sampled",
                         "samples": spec.coupling.samples.tolist()},
            "hg": {"stiffness": float(spec.g_stiffness),
                   "potential": spec.g_potential.tolist()}}


RUNS = {
    "solve_4x32": (ladder_config(4, 32), ["solve"]),
    "beat_two_well_born": (two_well_config(),
                           ["beat", "--prob-mode", "born", "--cycles", "500"]),
    "verify_3": (ladder_config(3, 8), ["verify", "--instances", "3"]),
    "hierarchy_4x32": (ladder_config(4, 32), ["hierarchy", "--depth", "2"]),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_real_payloads_match_reference(run, tmp_path, monkeypatch):
    doc, argv = RUNS[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    jsons, csvs = [], []

    def record_json(path, obj):
        jsons.append((path, obj))
        write_json(path, obj)

    def record_csv(path, rho, q_points, xi_points, text=None):
        csvs.append((path, rho, q_points, xi_points))
        return write_density_csv(path, rho, q_points, xi_points, text)

    monkeypatch.setattr(cli, "write_json", record_json)
    monkeypatch.setattr(cli, "write_density_csv", record_csv)
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(config), "--out-dir", str(out)]
                + argv[1:]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p, *_ in jsons + csvs}
    assert written == (set(manifest["outputs"]) - {"events.csv"}
                       | {"manifest.json"})
    for path, obj in jsons:
        assert path.read_text(encoding="utf-8") \
            == ref_to_json(as_scalars(obj)) + "\n", path.name
    for path, rho, q_points, xi_points in csvs:
        assert path.read_text(encoding="utf-8") \
            == ref_density_csv(rho, q_points, xi_points), path.name


def record_density_writes(monkeypatch):
    """Wrap cli.write_density_csv: (file name, formatted here) per call."""
    calls = []

    def record(path, rho, q_points, xi_points, text=None):
        calls.append((path.name, text is None))
        return write_density_csv(path, rho, q_points, xi_points, text)

    monkeypatch.setattr(cli, "write_density_csv", record)
    return calls


def test_one_realization_mixture_is_formatted_once(tmp_path, monkeypatch):
    # at 3x8 there is one realization, and 0 + 1.0 * rho_0 is rho_0 bit
    # for bit: the mixed CSV reuses the realization's text
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ladder_config(3, 8)))
    mixtures, mix_density = [], cli.mix_density

    def record_mix(rs, densities, mode):
        mixtures.append(mix_density(rs, densities, mode))
        return mixtures[-1]

    monkeypatch.setattr(cli, "mix_density", record_mix)
    calls = record_density_writes(monkeypatch)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out-dir", str(out)]) == 0
    assert calls == [("density_realization_0.csv", True),
                     ("density_mixed_uniform.csv", False)]
    spec = build_problem(ladder_config(3, 8))
    mixed = (out / "density_mixed_uniform.csv").read_bytes()
    assert mixed == (out / "density_realization_0.csv").read_bytes()
    assert mixed.decode("utf-8") == ref_density_csv(
        mixtures[0], spec.modes.q_grid.points, spec.xi_grid.points)


def test_densities_apart_only_by_a_negative_zero_are_formatted_apart(
        tmp_path, monkeypatch):
    # -0.0 == 0.0, but the two print apart, so reuse compares bytes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ladder_config(3, 8)))
    made, realization_densities = [], cli.realization_densities

    def two_densities(rs, states):
        rho = np.array(realization_densities(rs, states)[0])
        rho[0, 0] = 0.0
        negative = rho.copy()
        negative[0, 0] = -0.0
        made.extend([rho, negative])
        return rho, negative

    monkeypatch.setattr(cli, "realization_densities", two_densities)
    monkeypatch.setattr(cli, "mix_density",
                        lambda rs, densities, mode: densities[0].copy())
    calls = record_density_writes(monkeypatch)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out-dir", str(out)]) == 0
    assert calls == [("density_realization_0.csv", True),
                     ("density_realization_1.csv", True),
                     ("density_mixed_uniform.csv", False)]
    spec = build_problem(ladder_config(3, 8))
    q, xi = spec.modes.q_grid.points, spec.xi_grid.points
    texts = [(out / f"density_realization_{j}.csv").read_text(encoding="utf-8")
             for j in (0, 1)]
    assert texts[0] != texts[1]
    assert texts == [ref_density_csv(rho, q, xi) for rho in made]
    assert (out / "density_mixed_uniform.csv").read_text(
        encoding="utf-8") == texts[0]
