"""Experiment runner: config in, artifacts and verification reports out.

Subcommands: solve (spectrum + states + realizations), beat (solve
plus a simulated event stream), verify (oracle comparisons and count
accounting), hierarchy (two-level recursive potentials), report
(aggregate existing JSON summaries). Exit codes: 0 success, 2 config
error, 3 numerical/I-O failure, 4 verification failure.

Every floating-point value is written with 17 significant digits so
outputs round-trip exactly; identical config and seed reproduce
byte-identical CSV/JSON files (timestamps live only in the manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import complexity_measure, schmidt_ranks
from .beat import simulate_beat
from .effective import recurse_ep, reduce_block
from .errors import ConfigError, NumericalError, VerificationError
from .model import (CouplingMatrices, block_operator, build_problem,
                    project_coupling)
from .oracle import compare_spectra, direct_spectrum
from .pipeline import mean_intermediate_density, solve_problem
from .realizations import (PROBABILITY_MODES, mix_density,
                           realization_densities)
from .spectrum import count_accounting, find_roots
from .verification import EP_EXACTNESS_TOL, recovered_spectrum, run_battery

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits)


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(str(obj))


def write_json(path: Path, obj) -> None:
    path.write_text(_to_json(obj) + "\n", encoding="utf-8")


def write_density_csv(path: Path, rho: np.ndarray, q_points: np.ndarray,
                      xi_points: np.ndarray) -> None:
    """Density matrix CSV: rows are xi points, columns q points.

    Header carries the q coordinates; the first column carries xi.
    """
    lines = ["xi," + ",".join(_fmt_float(q) for q in q_points)]
    for j, xi in enumerate(xi_points):
        lines.append(_fmt_float(xi) + ","
                     + ",".join(_fmt_float(x) for x in rho[:, j]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_events_csv(path: Path, traj) -> None:
    """One row per tick: the tick, then the row suffix of the
    realization drawn, formatted once per realization."""
    suffixes = []
    for j, (index, coord) in enumerate(traj.centers):
        text = "nan" if coord != coord else _fmt_float(coord)
        suffixes.append(f",{j},{index},{text}\n")
    with path.open("w", encoding="utf-8") as fh:
        fh.write("tick,realization_id,center_index,center_coord\n")
        fh.writelines(map(str.__add__, map(str, range(traj.length)),
                          map(suffixes.__getitem__, traj.ids.tolist())))


# ---------------------------------------------------------------------------
# Config and run plumbing


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# run key -> (accepts the value, what it must be)
RUN_CHECKS = {
    "seed": (lambda x: _is_int(x) and x >= 0, "a non-negative integer"),
    "cycles": (lambda x: _is_int(x) and x >= 1, "an integer >= 1"),
    "prob_mode": (lambda x: x in PROBABILITY_MODES,
                  "one of " + ", ".join(PROBABILITY_MODES)),
    "depth": (lambda x: _is_int(x) and x in (1, 2), "1 or 2"),
    "pr_threshold": (lambda x: x is None or (isinstance(x, (int, float))
                                             and not isinstance(x, bool)),
                     "a number or null"),
    "out_dir": (lambda x: isinstance(x, str), "a path string"),
}


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run: must be an object")
    for key in run:
        if key not in RUN_CHECKS:
            raise ConfigError(f"run.{key}: unknown key")
    return doc


def _run_settings(doc: dict, args) -> dict:
    """Run keys: a command-line flag wins over the config's run block,
    which wins over the default. Every value is checked here, before
    any artifact is written."""
    run = dict(doc.get("run", {}))
    for key in ("seed", "cycles", "prob_mode", "depth", "out_dir"):
        if getattr(args, key) is not None:
            run[key] = getattr(args, key)
    run.setdefault("seed", 0)
    run.setdefault("cycles", 10_000)
    run.setdefault("prob_mode", "uniform")
    run.setdefault("depth", 2)
    run.setdefault("out_dir", os.environ.get("EPBEAT_OUT_DIR", "out"))
    run.setdefault("pr_threshold", None)
    for key, (accepts, what) in RUN_CHECKS.items():
        if not accepts(run[key]):
            raise ConfigError(f"run.{key}: must be {what}, got {run[key]!r}")
    return run


def _config_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Runner:
    """Collects outputs and writes the manifest last."""

    def __init__(self, config: str, out_dir: str):
        self.config = config
        self.out_dir = Path(out_dir)
        self.outputs: list[str] = []
        self.checks: dict = {}
        self.t0 = time.time()

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self, subcommand: str, seed) -> None:
        manifest = {
            "version": __version__,
            "subcommand": subcommand,
            "config_sha256": _config_hash(self.config),
            "seed": seed,
            "outputs": self.outputs,
            "checks": self.checks,
            "elapsed_seconds": time.time() - self.t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.out_dir / "manifest.json", manifest)


def _spectrum_payload(result) -> dict:
    sr = result.sr
    return {
        "roots": list(sr.roots),
        "energies": list(sr.energies),
        "counts": {
            "n_g": sr.counts.n_g,
            "n_roots": sr.counts.n_roots,
            "n_poles": sr.counts.n_poles,
            "rank_sum": sr.counts.rank_sum,
            "degree_bound": sr.counts.degree_bound,
            "full_degree_count": sr.counts.full_degree_count,
            "linear_count": sr.counts.linear_count,
        },
        "excluded": [{"value": v, "reason": r} for v, r in sr.excluded],
        "decoupled_poles": list(sr.decoupled_poles),
        "residual_max": sr.residual_max,
        "poles": list(result.ep.poles),
        "accounting": count_accounting(sr),
    }


def _solve_and_write(runner: _Runner, doc: dict, run: dict):
    spec = build_problem(doc)
    result = solve_problem(spec, run.get("pr_threshold"))
    mode = run["prob_mode"]
    rs = result.rs
    if mode == "born":
        rs = rs.with_born(mean_intermediate_density(result))
        result = dataclasses.replace(result, rs=rs)
    write_json(runner.path("spectrum.json"), _spectrum_payload(result))
    write_json(runner.path("ep.json"), result.ep.to_dict())
    payload = rs.to_dict()
    payload["complexity"] = complexity_measure(rs.n_realizations)
    payload["schmidt_ranks"] = schmidt_ranks(result.states).tolist()
    write_json(runner.path("realizations.json"), payload)
    q_pts = spec.modes.q_grid.points
    xi_pts = spec.xi_grid.points
    densities = realization_densities(rs, result.states)
    for j, rho in enumerate(densities):
        write_density_csv(runner.path(f"density_realization_{j}.csv"),
                          rho, q_pts, xi_pts)
    mixed = mix_density(rs, densities, mode)
    write_density_csv(runner.path(f"density_mixed_{mode}.csv"),
                      mixed.rho_ex, q_pts, xi_pts)
    return result


def cmd_solve(runner: _Runner, doc: dict, run: dict) -> int:
    _solve_and_write(runner, doc, run)
    runner.checks["beat"] = "not run"
    runner.finish("solve", run["seed"])
    return EXIT_OK


def cmd_beat(runner: _Runner, doc: dict, run: dict) -> int:
    result = _solve_and_write(runner, doc, run)
    traj = simulate_beat(result.rs, run["cycles"], run["seed"],
                         run["prob_mode"])
    write_events_csv(runner.path("events.csv"), traj)
    write_json(runner.path("beat_summary.json"), {
        "seed": traj.seed,
        "mode": traj.mode,
        "cycles": traj.length,
        "alpha": list(result.rs.alphas[traj.mode]),
        "empirical": list(traj.empirical),
    })
    runner.checks["beat"] = "run"
    runner.finish("beat", run["seed"])
    return EXIT_OK


def cmd_verify(runner: _Runner, doc: dict, run: dict, args) -> int:
    if args.instances < 1:
        raise ConfigError(
            f"instances: need K >= 1 random instances, got {args.instances}")
    spec = build_problem(doc)
    result = solve_problem(spec, run.get("pr_threshold"))
    energies, _ = direct_spectrum(spec, result.v)
    report = compare_spectra(recovered_spectrum(result), energies,
                             EP_EXACTNESS_TOL)
    accounting = count_accounting(result.sr)

    # same reduction under the per-block reading of the truncated sector
    # (cross couplings V_nm, n != m >= 1, zeroed): exact when they
    # vanish, an approximation otherwise; reported alongside the coupled
    # reading
    v_pb = result.v.v.copy()
    cross = ~np.eye(spec.n_tot, dtype=bool)
    cross[0, :] = cross[:, 0] = False
    v_pb[cross] = 0.0
    _, ep_pb = reduce_block(block_operator(spec, CouplingMatrices(v_pb)),
                            spec.n_g, result.ep.hg_diag, result.ep.eps0)
    sr_pb = find_roots(ep_pb)
    scale = max(float(np.abs(energies).max()), 1.0)
    per_block = {
        "n_roots": int(sr_pb.roots.size),
        "max_rel_dev_vs_direct": float(
            np.abs(np.sort(sr_pb.energies) - energies).max() / scale)
        if sr_pb.energies.size == energies.size else None,
    }
    battery = run_battery(n_instances=args.instances, seed0=run["seed"])
    del battery["instances"]  # keep the report small; flags carry the verdict
    zero_kernel = bool(np.all(result.v.v == 0.0))
    payload = {
        "configured_instance": {
            "ep_exactness": report.to_dict(),
            "accounting": accounting,
            "zero_coupling_path": zero_kernel,
            "n_realizations": result.rs.n_realizations,
            "per_block_reading": per_block,
        },
        "random_battery": battery,
    }
    write_json(runner.path("verify_report.json"), payload)
    ok = report.passed and battery["all_passed"] \
        and accounting["measured_equals_rank_accounting"]
    runner.checks["ep_exactness"] = "pass" if report.passed else "fail"
    runner.checks["accounting"] = ("pass" if
                                   accounting["measured_equals_rank_accounting"]
                                   else "fail")
    runner.checks["random_battery"] = ("pass" if battery["all_passed"]
                                       else "fail")
    runner.finish("verify", run["seed"])
    if not ok:
        raise VerificationError("verify: one or more checks failed; see "
                                "verify_report.json")
    return EXIT_OK


def cmd_hierarchy(runner: _Runner, doc: dict, run: dict) -> int:
    spec = build_problem(doc)
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    levels = recurse_ep(spec, v, depth=run["depth"])
    payload = {"levels": []}
    for level in levels:
        sr = find_roots(level.ep)
        direct_sorted = np.sort(np.linalg.eigvalsh(level.operator))
        report = compare_spectra(np.sort(sr.roots), direct_sorted,
                                 EP_EXACTNESS_TOL)
        payload["levels"].append({
            "depth": level.depth,
            "roots": list(sr.roots),
            "n_poles": int(level.ep.poles.size),
            "operator_spectrum_match": report.to_dict(),
        })
    write_json(runner.path("hierarchy.json"), payload)
    runner.checks["hierarchy_depth2"] = (
        "pass" if all(l["operator_spectrum_match"]["passed"]
                      for l in payload["levels"]) else "fail")
    runner.finish("hierarchy", run["seed"])
    if runner.checks["hierarchy_depth2"] != "pass":
        raise VerificationError("hierarchy: level roots do not reproduce the "
                                "operator spectrum")
    return EXIT_OK


def cmd_report(out_dir: str) -> int:
    out_dir = Path(out_dir)
    summary = {}
    for name in ("manifest.json", "spectrum.json", "realizations.json",
                 "beat_summary.json", "verify_report.json",
                 "hierarchy.json"):
        p = out_dir / name
        if p.exists():
            summary[name] = json.loads(p.read_text(encoding="utf-8"))
    if not summary:
        raise NumericalError(f"report: no artifacts found in {out_dir}")
    lines = []
    if "spectrum.json" in summary:
        c = summary["spectrum.json"]["counts"]
        lines.append(f"roots: {c['n_roots']} (rank accounting "
                     f"{c['n_g'] + c['rank_sum']}, degree bound "
                     f"{c['degree_bound']}, full-degree count "
                     f"{c['full_degree_count']}, linear {c['linear_count']})")
    if "realizations.json" in summary:
        r = summary["realizations.json"]
        n_groups = len(r["groups"])
        label = (f"{n_groups} regular group(s)" if n_groups
                 else "intermediate only")
        lines.append(f"realizations: {r['n_realizations']} ({label}), "
                     f"{len(r['intermediate'])} intermediate state(s), "
                     f"complexity {r['complexity']}")
    if "beat_summary.json" in summary:
        b = summary["beat_summary.json"]
        lines.append(f"beat: {b['cycles']} cycles, mode {b['mode']}, "
                     f"empirical {b['empirical']}")
    for line in lines:
        print(line)
    write_json(out_dir / "report.json", summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epbeat",
        description="Effective-potential workbench for two coupled fields")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, brief in (
            ("solve", "compute spectrum, states, and realizations"),
            ("beat", "solve plus a simulated reduction-event stream"),
            ("verify", "oracle comparisons and count accounting"),
            ("hierarchy", "two-level recursive effective potentials"),
            ("report", "aggregate JSON summaries from an output dir")):
        p = sub.add_parser(name, help=brief)
        if name != "report":
            p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: run.out_dir, "
                            "$EPBEAT_OUT_DIR or ./out)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cycles", type=int, default=None)
        p.add_argument("--prob-mode", dest="prob_mode", default=None,
                       choices=PROBABILITY_MODES)
        p.add_argument("--depth", type=int, default=None, choices=(1, 2))
        if name == "verify":
            p.add_argument("--instances", type=int, default=100,
                           help="random instances in the battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "report":
            return cmd_report(_run_settings({}, args)["out_dir"])
        doc = load_config(args.config)
        run = _run_settings(doc, args)
        runner = _Runner(args.config, run["out_dir"])
        if args.subcommand == "solve":
            return cmd_solve(runner, doc, run)
        if args.subcommand == "beat":
            return cmd_beat(runner, doc, run)
        if args.subcommand == "verify":
            return cmd_verify(runner, doc, run, args)
        if args.subcommand == "hierarchy":
            return cmd_hierarchy(runner, doc, run)
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (NumericalError, OSError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
