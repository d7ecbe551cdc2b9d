"""Experiment runner: config in, artifacts and verification reports out.

Subcommands: solve (spectrum + states + realizations), beat (solve
plus a simulated event stream), verify (oracle comparisons and count
accounting), hierarchy (recursive potentials to any depth below
N_tot, each level checked against its operator's spectrum), report
(aggregate existing JSON summaries). Exit codes: 0 success, 2 config
error, 3 numerical/I-O failure or out of memory, 4 verification
failure.

Every floating-point value is written with 17 significant digits so
outputs round-trip exactly; identical config and seed reproduce
byte-identical CSV/JSON files (timestamps live only in the manifest).

JSON layout: two-space indent, one scalar per line; floats as .17g,
non-finite floats as null; Python and numpy bools as true/false. A
file is one template (% doubled in keys and strings, an array's joined
once per axis), filled by % FILL_CHUNK or more array elements at a
time. A density CSV is one fill, and a run formats each distinct
density (bit for bit) once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, rng
from .assembly import complexity_measure, schmidt_ranks
from .beat import simulate_beat
from .blas import threads, threads_for
from .effective import check_depth, recurse_ep
from .errors import ConfigError, NumericalError
from .model import (ProblemSpec, _check_keys, block_operator, build_problem,
                    project_coupling)
from .oracle import compare_spectra, direct_energies
from .pipeline import mean_intermediate_density, solve_problem
from .realizations import (PROBABILITY_MODES, check_pr_threshold,
                           mix_density, realization_densities)
from .spectrum import count_accounting, find_roots
from .verification import check_instance, per_block_reading, run_battery

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

# "00".."99", each two ASCII bytes read as one uint16
_DIGIT_PAIRS = np.array([b"%02d" % i for i in range(100)]).view(np.uint16)


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits)


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g") if math.isfinite(x) else "null"


def _array_template(conversion, shape, pad):
    """Nested-list text of an array of shape, each element conversion;
    built innermost axis first, one join per axis (blocks are equal)."""
    text = conversion
    for axis in reversed(range(len(shape))):
        p = pad + "  " * axis
        text = (f"[\n{p}  " + f",\n{p}  ".join([text] * shape[axis])
                + f"\n{p}]" if shape[axis] else "[]")
    return text


# array elements per % fill (one float object each alive until it ends)
FILL_CHUNK = 1024


def _template(obj, pad, out):
    """Append obj's JSON text, indented by pad, to out = (parts, values,
    done): int and finite float array elements as % conversions, their
    values in values, % doubled elsewhere; filled into done by chunks."""
    parts, values, done = out
    if isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        ends = "{}" if keyed else "[]"
        sep = f"{ends[0]}\n{pad}  "
        for k, v in obj.items() if keyed else enumerate(obj):
            parts.append(f"{sep}{json.dumps(str(k))}: ".replace("%", "%%")
                         if keyed else sep)
            _template(v, pad + "  ", out)
            sep = f",\n{pad}  "
        parts.append(f"\n{pad}{ends[1]}" if obj else ends)
    elif isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        if kind in "iu" or kind == "f" and np.isfinite(obj).all():
            parts.append(_array_template("%.17g" if kind == "f" else "%d",
                                         obj.shape, pad))
            values.extend(obj.ravel().tolist())
            if len(values) >= FILL_CHUNK:
                done.append("".join(parts) % tuple(values))
                del parts[:], values[:]
        else:  # bools, non-finite floats, other dtypes: element by element
            _template(obj.tolist(), pad, out)
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    else:
        parts.append(json.dumps(str(obj)).replace("%", "%%"))


def _to_json(obj) -> str:
    parts, values, done = out = [], [], []
    _template(obj, "", out)
    done.append("".join(parts) % tuple(values))
    return "".join(done)


def write_json(path: Path, obj) -> None:
    path.write_text(_to_json(obj) + "\n", encoding="utf-8")


def write_density_csv(path: Path, rho: np.ndarray, q_points: np.ndarray,
                      xi_points: np.ndarray, text: str | None = None) -> str:
    """Density matrix CSV: rows are xi points, columns q points; writes
    text if given, else formats it with one % fill. Returns the text.

    Header carries the q coordinates; the first column carries xi.
    inf, -inf and nan, which no finite .17g string holds, become null.
    """
    if text is None:
        cells = ",%.17g" * len(q_points) + "\n"
        rows = np.column_stack([xi_points, rho.T]).ravel().tolist()
        text = (f"xi{cells}" + f"%.17g{cells}" * len(xi_points)) % (
            *q_points.tolist(), *rows)
        for word in ("-inf", "inf", "nan"):
            text = text.replace(word, "null")
    path.write_text(text, encoding="utf-8")
    return text


def _write_ticks(rows: np.ndarray, a: int, b: int) -> None:
    """Store ticks a..b-1, all of d digits, as ASCII in rows[:, :d].

    Digits go two at a time through uint16 views. The last pair has
    period 100: the 100 pairs, rotated by a % 100, tiled in one store.
    Higher pairs are encoded for t // 100 only and repeated 100 times;
    an odd leading digit is stored alone. Temporaries are O(b - a).
    """
    d = len(str(a))
    if d == 1:
        rows[:, 0] = np.arange(a, b) + 48
        return
    n, r, odd = b - a, a % 100, d % 2
    pairs = rows[:, odd:d].view(np.uint16)
    pairs[:, -1] = np.tile(np.roll(_DIGIT_PAIRS, -r), n // 100 + 1)[:n]
    high = np.arange(a // 100, (b - 1) // 100 + 1)
    for k in range(d // 2 - 2, -1, -1):
        top = high // 100
        pairs[:, k] = np.repeat(_DIGIT_PAIRS[high - top * 100], 100)[r:r + n]
        high = top
    if odd:
        rows[:, 0] = np.repeat((high + 48).astype(np.uint8), 100)[r:r + n]


def write_events_csv(path: Path, traj) -> None:
    """One row per tick: the tick, then the suffix of the realization drawn.

    Each suffix is encoded once into a NUL-padded byte table. Rows are
    built rng.DRAW_CHUNK ticks at a time, in pieces whose ticks share a
    digit count d, inside one row buffer and one keep mask allocated
    per call for a block at the widest tick. A piece is one take of
    its ids from the table behind a blank d-byte tick field, which
    _write_ticks fills. The NULs are then dropped (the output is
    ASCII, so a NUL is never data) and the compacted piece is written
    as it is; binary mode keeps the newlines exact on every platform.
    """
    suffixes = [(f",{j},{index},"
                 f"{'nan' if coord != coord else _fmt_float(coord)}\n"
                 ).encode("ascii")
                for j, (index, coord) in enumerate(traj.centers)]
    table = np.array(suffixes).view(np.uint8).reshape(len(suffixes), -1)
    chunk = rng.DRAW_CHUNK  # at 20-40 bytes a row, a block stays in L2
    size = min(traj.length, chunk) * (
        len(str(traj.length - 1)) + table.shape[1])
    buffer = np.empty(size, dtype=np.uint8)
    keep = np.empty(size, dtype=bool)
    with path.open("wb") as fh:
        fh.write(b"tick,realization_id,center_index,center_coord\n")
        a = 0
        while a < traj.length:
            d = len(str(a))
            b = min(traj.length, a + chunk, 10 ** d)
            padded = np.pad(table, ((0, 0), (d, 0)))
            flat = buffer[:(b - a) * padded.shape[1]]
            rows = flat.reshape(b - a, -1)
            np.take(padded, traj.ids[a:b], axis=0, out=rows)
            _write_ticks(rows, a, b)
            mask = np.not_equal(flat, 0, out=keep[:flat.size])
            fh.write(flat[mask])
            a = b


# ---------------------------------------------------------------------------
# Config and run plumbing


# run key -> (default, accepts the value, what it must be); out_dir's
# default is a callable, called when the run starts. Values come from
# JSON or argparse, so an exact type() test keeps booleans out.
RUN_KEYS = {
    "seed": (0, lambda x: type(x) is int and 0 <= x < 1 << 64,
             "in [0, 2^64)"),
    "cycles": (10_000, lambda x: type(x) is int and x >= 1,
               "an integer >= 1"),
    "prob_mode": ("uniform", lambda x: x in PROBABILITY_MODES,
                  "one of " + ", ".join(PROBABILITY_MODES)),
    "depth": (2, lambda x: type(x) is int and x >= 1, "an integer >= 1"),
    "pr_threshold": (None, lambda x: x is None or type(x) in (int, float),
                     "a number or null"),
    "out_dir": (lambda: os.environ.get("EPBEAT_OUT_DIR", "out"),
                lambda x: isinstance(x, str), "a path string"),
}


def _finite_float(text: str) -> float:
    """JSON number parser that rejects NaN, Infinity and overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config: non-finite number {text} is not allowed")
    return value


def read_config(path: str) -> tuple[dict, bytes]:
    """The config document at path, and the bytes it was parsed from."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path} is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_finite_float,
                         parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return doc, raw


def load_config(path: str) -> dict:
    """The config document at path."""
    return read_config(path)[0]


def _run_settings(doc: dict, args) -> dict:
    """The config's run block, the only reader of it: each key of
    RUN_KEYS from its command-line flag, else from the block, else
    from its default. Unknown keys and every value are checked here;
    depth and pr_threshold, whose ranges depend on the problem's size,
    again before any eigensolve reads them."""
    block = doc.get("run", {})
    _check_keys(block, RUN_KEYS, "run.")
    run = {}
    for key, (default, accepts, what) in RUN_KEYS.items():
        value = getattr(args, key, None)
        if value is None:
            value = block.get(key, default)
        if callable(value):
            value = value()
        if not accepts(value):
            raise ConfigError(f"run.{key}: must be {what}, got {value!r}")
        run[key] = value
    return run


class _Runner:
    """Collects outputs and writes the manifest last, with the checks
    the command returned.

    config is the bytes the run's config was parsed from; the manifest
    carries their sha256, whatever the file holds by then.
    blas_threads is the OpenBLAS thread count the command's main work
    runs with (None without OpenBLAS controls; see blas.threads_for).
    """

    def __init__(self, config: bytes, out_dir: str, blas_threads: int | None):
        self.config_sha256 = hashlib.sha256(config).hexdigest()
        self.out_dir = Path(out_dir)
        self.blas_threads = blas_threads
        self.outputs: list[str] = []
        self.t0 = time.time()

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self, subcommand: str, seed, checks: dict) -> None:
        manifest = {
            "version": __version__,
            "subcommand": subcommand,
            "config_sha256": self.config_sha256,
            "seed": seed,
            "outputs": self.outputs,
            "checks": checks,
            "blas_threads": self.blas_threads,
            "elapsed_seconds": time.time() - self.t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        write_json(self.out_dir / "manifest.json", manifest)


def _solve_and_write(runner: _Runner, spec: ProblemSpec, run: dict):
    result = solve_problem(spec, run["pr_threshold"])
    mode = run["prob_mode"]
    rs = result.rs
    if mode == "born":
        rs = rs.with_born(mean_intermediate_density(result))
        result = dataclasses.replace(result, rs=rs)
    sr = result.sr
    write_json(runner.path("spectrum.json"), {
        "roots": sr.roots,
        "energies": sr.energies,
        "excluded": [{"value": v, "reason": r} for v, r in sr.excluded],
        "decoupled_poles": sr.decoupled_poles,
        "residual_max": sr.residual_max,
        "poles": result.ep.poles,
        "accounting": count_accounting(result.ep, sr),
    })
    write_json(runner.path("ep.json"), result.ep.to_dict())
    payload = rs.to_dict()
    payload["complexity"] = complexity_measure(rs.n_realizations)
    payload["schmidt_ranks"] = schmidt_ranks(result.states)
    write_json(runner.path("realizations.json"), payload)
    densities = realization_densities(rs, result.states)
    names = [f"density_realization_{j}.csv" for j in range(len(densities))]
    texts = {}  # rho.tobytes() -> its CSV; bitwise, as -0.0 == 0.0
    for name, rho in zip(names + [f"density_mixed_{mode}.csv"],
                         [*densities, mix_density(rs, densities, mode)]):
        key = rho.tobytes()
        texts[key] = write_density_csv(runner.path(name), rho,
                                       spec.modes.q_grid.points,
                                       spec.xi_grid.points, texts.get(key))
    return result


def cmd_solve(runner: _Runner, spec: ProblemSpec, run: dict, args) -> dict:
    _solve_and_write(runner, spec, run)
    return {"beat": "not run"}


def cmd_beat(runner: _Runner, spec: ProblemSpec, run: dict, args) -> dict:
    result = _solve_and_write(runner, spec, run)
    traj = simulate_beat(result.rs, run["cycles"], run["seed"],
                         run["prob_mode"])
    write_events_csv(runner.path("events.csv"), traj)
    write_json(runner.path("beat_summary.json"), {
        "seed": traj.seed,
        "mode": traj.mode,
        "cycles": traj.length,
        "alpha": np.asarray(result.rs.alphas[traj.mode]),
        "empirical": np.asarray(traj.empirical),
    })
    return {"beat": "run"}


def cmd_verify(runner: _Runner, spec: ProblemSpec, run: dict, args) -> dict:
    if args.instances < 1:
        raise ConfigError(
            f"instances: need K >= 1 random instances, got {args.instances}")
    check = check_instance(run["seed"], spec, run["pr_threshold"])
    battery = run_battery(n_instances=args.instances, seed0=run["seed"])
    del battery["instances"]  # keep the report small; flags carry the verdict
    result = check.result
    write_json(runner.path("verify_report.json"), {
        "configured_instance": {
            "ep_exactness": check.exactness.to_dict(),
            "accounting": check.accounting,
            "zero_coupling_path": bool(np.all(result.v == 0.0)),
            "n_realizations": result.rs.n_realizations,
            "per_block_reading": per_block_reading(check),
            "state_residual_max": check.state_residual_max,
            "passed": check.passed,
        },
        "random_battery": battery,
    })
    verdicts = {"ep_exactness": check.exactness.passed,
                "accounting": check.accounting[
                    "measured_equals_rank_accounting"],
                "configured_instance": check.passed,
                "random_battery": battery["all_passed"]}
    return {name: "pass" if ok else "fail" for name, ok in verdicts.items()}


def cmd_hierarchy(runner: _Runner, spec: ProblemSpec, run: dict,
                  args) -> dict:
    check_depth(run["depth"], spec.n_tot, "run.depth")
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    # level 1 against the dense oracle (eta scale), capped before any
    # reduction; level k + 1 reduces level k's L, whose eigenvalues that
    # reduction already computed, behind its checks, as its raw poles
    reference = direct_energies(spec, v) - spec.modes.eps[0]
    levels = recurse_ep(spec, block_operator(spec, v), run["depth"])
    spectra = [reference] + [ep.raw_poles for ep in levels[:-1]]
    payload = {"levels": []}
    for depth, (ep, spectrum) in enumerate(zip(levels, spectra), start=1):
        sr = find_roots(ep)
        report = compare_spectra(sr.eigenvalues(), spectrum)
        payload["levels"].append({
            "depth": depth,
            "roots": sr.roots,
            "n_poles": int(ep.poles.size),
            "operator_spectrum_match": report.to_dict(),
        })
    write_json(runner.path("hierarchy.json"), payload)
    passed = all(level["operator_spectrum_match"]["passed"]
                 for level in payload["levels"])
    return {"hierarchy": "pass" if passed else "fail"}


def cmd_report(out_dir: str) -> int:
    out_dir = Path(out_dir)
    summary = {}
    for name in ("manifest.json", "spectrum.json", "realizations.json",
                 "beat_summary.json", "verify_report.json",
                 "hierarchy.json"):
        p = out_dir / name
        if p.exists():
            summary[name] = json.loads(p.read_text(encoding="utf-8"))
    for key in ("elapsed_seconds", "timestamp"):  # only in manifest.json
        summary.get("manifest.json", {}).pop(key, None)
    if not summary:
        raise NumericalError(f"report: no artifacts found in {out_dir}")
    if "spectrum.json" in summary:
        a = summary["spectrum.json"]["accounting"]
        print(f"roots: {a['measured_roots']} (rank accounting "
              f"{a['rank_accounting']}, degree bound "
              f"{a['degree_bound']}, full-degree count "
              f"{a['full_degree_count']}, linear {a['linear_count']})")
    if "realizations.json" in summary:
        r = summary["realizations.json"]
        n_groups = len(r["groups"])
        label = (f"{n_groups} regular group(s)" if n_groups
                 else "intermediate only")
        print(f"realizations: {r['n_realizations']} ({label}), "
              f"{len(r['intermediate'])} intermediate state(s), "
              f"complexity {r['complexity']}")
    if "beat_summary.json" in summary:
        b = summary["beat_summary.json"]
        print(f"beat: {b['cycles']} cycles, mode {b['mode']}, "
              f"empirical {b['empirical']}")
    write_json(out_dir / "report.json", summary)
    return EXIT_OK


# flag -> its argparse options; a run key's flag is None unless given
FLAGS = {"config": {"required": True, "help": "config JSON path"},
         "out_dir": {"help": "output directory (default: run.out_dir, "
                             "$EPBEAT_OUT_DIR or ./out)"},
         "seed": {"type": int}, "cycles": {"type": int},
         "prob_mode": {"choices": PROBABILITY_MODES},
         "depth": {"type": int},
         "instances": {"type": int, "default": 100,
                       "help": "random instances in the battery"}}
# subcommand -> (the function that runs it, help, the flags it takes).
# Each but report writes its artifacts and returns its checks, name ->
# "pass", "fail" or a note, which main records in the manifest
SUBCOMMANDS = {
    "solve": (cmd_solve, "compute spectrum, states, and realizations",
              ("config", "out_dir", "seed", "prob_mode")),
    "beat": (cmd_beat, "solve plus a simulated reduction-event stream",
             ("config", "out_dir", "seed", "cycles", "prob_mode")),
    "verify": (cmd_verify, "oracle comparisons and count accounting",
               ("config", "out_dir", "seed", "instances")),
    "hierarchy": (cmd_hierarchy, "recursive effective potentials, depth >= 1",
                  ("config", "out_dir", "seed", "depth")),
    "report": (cmd_report, "aggregate JSON summaries from an output dir",
               ("out_dir",)),
}


@functools.cache  # one parser per process; each parse starts afresh
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epbeat",
        description="Effective-potential workbench for two coupled fields")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, brief, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=brief)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = SUBCOMMANDS[args.subcommand][0]
    spec = None
    try:
        if args.subcommand == "report":
            return command(_run_settings({}, args)["out_dir"])
        doc, raw = read_config(args.config)
        run = _run_settings(doc, args)
        spec = build_problem(doc)
        check_pr_threshold(run["pr_threshold"], spec.n_g,
                           "run.pr_threshold")
        with threads_for(spec.dim):
            runner = _Runner(raw, run["out_dir"], threads())
            checks = command(runner, spec, run, args)
        runner.finish(args.subcommand, run["seed"], checks)
        failed = [name for name, verdict in checks.items() if verdict == "fail"]
        if failed:  # the last output is the command's report
            print(f"verification failure: {args.subcommand}: "
                  f"{', '.join(failed)} failed; see {runner.outputs[-1]}",
                  file=sys.stderr)
            return EXIT_VERIFICATION
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, OSError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # spec is None while the config is read
        size = "" if spec is None else (
            f" at N_tot*N_g = {spec.n_tot}*{spec.n_g} = {spec.dim}")
        detail = f" ({exc})" if exc.args else ""
        print(f"numerical failure: {args.subcommand}: out of memory{size}"
              f"{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
