"""Workload definitions: generated inputs, CLI invocations and gates.

Every workload is a list of `epbeat` CLI invocations (items). One pass
runs all items of the workload once. Inputs are written from the
benchmark seed; gates read the artifacts of one pass and return the
list of problems they found (empty when the outputs are correct).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

# The ladder config of the ROADMAP, varying only grid.n and modes.count.
LADDER_POINTS = ((3, 8), (4, 32), (5, 40))

# Relative spectral deviation allowed against the dense oracle. Equal to
# epbeat.verification.EP_EXACTNESS_TOL; the gate uses the smaller of the
# two so that loosening the package tolerance cannot loosen the gate.
EXACTNESS_TOL = 1e-7

# The serialized two-well config must reproduce the library instance's
# roots to this share of the spectral scale (3.6e-15 absolute measured).
TWO_WELL_ROOT_TOL = 1e-12

BEAT_CYCLES = 1_000_000
# Chi-square false-alarm probability for the beat frequencies: with
# p = 1e-9 a correct sampler trips the gate about once in 1e9 runs.
BEAT_CHI2_P = 1e-9

HIERARCHY_DEPTH = 2
VERIFY_INSTANCES = 100


def ladder_config(n_tot: int, n_g: int) -> dict:
    return {"grid": {"n": n_g},
            "modes": {"count": n_tot, "delta_eps": 0.7},
            "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                         "sigma": 0.2},
            "hg": {"stiffness": 0.1,
                   "potential": {"kind": "double_well", "depth": 1,
                                 "width": 0.08, "centers": [0.3, 0.7]}}}


def two_well_config() -> dict:
    """Config document equal to verification.two_well_instance()."""
    from epbeat.verification import two_well_instance
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


@dataclass(frozen=True)
class Item:
    """One CLI invocation; `argv` holds no --out-dir (the runner adds it)."""

    name: str
    argv: tuple
    config: str  # config file name inside the input directory


@dataclass
class Workload:
    name: str
    items: tuple
    gate: object  # gate(item, out_dir: Path, in_dir: Path) -> list[str]
    configs: dict  # file name -> config document
    input_problems: list = field(default_factory=list)  # found at build


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _exactness_tol() -> float:
    from epbeat import verification
    return min(EXACTNESS_TOL, getattr(verification, "EP_EXACTNESS_TOL",
                                      EXACTNESS_TOL))


def _oracle_energies(config: dict):
    import numpy as np
    from epbeat.model import build_problem, project_coupling
    from epbeat.oracle import direct_spectrum
    spec = build_problem(config)
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    energies, _ = direct_spectrum(spec, v)
    return np.sort(np.asarray(energies, dtype=float))


def spectra_match(recovered, direct, tol: float) -> str | None:
    """Sorted, equal-length spectra within tol of their common scale."""
    import numpy as np
    a = np.sort(np.asarray(recovered, dtype=float))
    b = np.sort(np.asarray(direct, dtype=float))
    if a.size != b.size:
        return f"{a.size} recovered eigenvalues against {b.size} direct"
    if a.size == 0:
        return None
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-300)
    dev = float(np.abs(a - b).max()) / scale
    if not dev <= tol:
        return f"spectral deviation {dev:.3e} > {tol:.1e}"
    return None


def gate_solve(item: Item, out: Path, in_dir: Path) -> list:
    spectrum = _load(out / "spectrum.json")
    eps0 = float(_load(out / "ep.json")["eps0"])
    recovered = (list(spectrum["energies"])
                 + [p + eps0 for p in spectrum["decoupled_poles"]]
                 + [e["value"] + eps0 for e in spectrum["excluded"]])
    problems = []
    bad = spectra_match(recovered, _oracle_energies(_load(in_dir / item.config)),
                        _exactness_tol())
    if bad:
        problems.append(f"{item.name}: oracle mismatch: {bad}")
    if spectrum["accounting"].get("measured_equals_rank_accounting") is not True:
        problems.append(f"{item.name}: measured root count != rank accounting")
    return problems


def gate_verify(item: Item, out: Path, in_dir: Path) -> list:
    report = _load(out / "verify_report.json")
    battery = report["random_battery"]
    problems = []
    if battery.get("all_passed") is not True:
        problems.append(f"{item.name}: random battery all_passed is false")
    if battery.get("n_instances") != VERIFY_INSTANCES:
        problems.append(f"{item.name}: battery ran {battery.get('n_instances')}"
                        f" instances, expected {VERIFY_INSTANCES}")
    return problems


def gate_hierarchy(item: Item, out: Path, in_dir: Path) -> list:
    levels = _load(out / "hierarchy.json")["levels"]
    problems = []
    if [lv["depth"] for lv in levels] != list(range(1, HIERARCHY_DEPTH + 1)):
        problems.append(f"{item.name}: levels {[lv['depth'] for lv in levels]}")
    for lv in levels:
        if lv["operator_spectrum_match"].get("passed") is not True:
            problems.append(f"{item.name}: level {lv['depth']} roots do not "
                            "reproduce the operator spectrum")
    return problems


def chi2_bound(k: int) -> float:
    from scipy.stats import chi2
    return float(chi2.isf(BEAT_CHI2_P, k - 1))


def beat_problems(events_csv: Path, alpha, empirical, cycles: int) -> list:
    """Line count, frequencies and chi-square of one events.csv."""
    counts = [0] * len(alpha)
    lines = 0
    with events_csv.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        lines += header is not None
        for row in reader:
            lines += 1
            j = int(row[1])
            if not 0 <= j < len(counts):
                return [f"events.csv: realization id {j} out of range"]
            counts[j] += 1
    problems = []
    if lines != cycles + 1:
        problems.append(f"events.csv has {lines} lines, expected {cycles + 1}")
        return problems
    if any(abs(c / cycles - e) > 1e-12 for c, e in zip(counts, empirical)):
        problems.append("beat_summary empirical frequencies differ from "
                        "events.csv counts")
    total = sum(alpha)
    expected = [cycles * a / total for a in alpha]
    stat = sum((c - e) ** 2 / e for c, e in zip(counts, expected) if e > 0)
    if any(c and not a > 0 for c, a in zip(counts, alpha)):
        problems.append("events drawn for a realization with zero weight")
    bound = chi2_bound(sum(1 for a in alpha if a > 0))
    if not stat <= bound:
        problems.append(f"chi-square {stat:.2f} > bound {bound:.2f} "
                        f"(p = {BEAT_CHI2_P:g})")
    return problems


def gate_beat(item: Item, out: Path, in_dir: Path) -> list:
    summary = _load(out / "beat_summary.json")
    problems = []
    if summary["cycles"] != BEAT_CYCLES or summary["mode"] != "born":
        problems.append(f"{item.name}: beat ran {summary['cycles']} cycles in "
                        f"mode {summary['mode']}")
    problems += [f"{item.name}: {p}" for p in beat_problems(
        out / "events.csv", summary["alpha"], summary["empirical"],
        BEAT_CYCLES)]
    return problems


def two_well_problems(config: dict) -> list:
    """The serialized two-well config must solve like the library instance."""
    import numpy as np
    from epbeat.model import build_problem
    from epbeat.pipeline import solve_problem
    from epbeat.verification import two_well_instance
    lib = solve_problem(two_well_instance()).sr.roots
    ser = solve_problem(build_problem(config)).sr.roots
    if lib.size != ser.size:
        return [f"two-well config: {ser.size} roots, library {lib.size}"]
    scale = max(float(np.abs(lib).max(initial=0.0)), 1.0)
    dev = float(np.abs(np.sort(lib) - np.sort(ser)).max(initial=0.0))
    if not dev <= TWO_WELL_ROOT_TOL * scale:
        return [f"two-well config roots deviate by {dev:.3e} from the "
                "library instance"]
    return []


def _item(name: str, subcommand: str, config: str, *extra: str) -> Item:
    return Item(name, (subcommand, "--config", config) + extra, config)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs generated for `seed`."""
    s = ("--seed", str(seed))
    if name == "solve_ladder":
        configs = {f"ladder_{t}x{g}.json": ladder_config(t, g)
                   for t, g in LADDER_POINTS}
        items = tuple(_item(f"{t}x{g}", "solve", f"ladder_{t}x{g}.json", *s)
                      for t, g in LADDER_POINTS)
        return Workload(name, items, gate_solve, configs)
    if name == "verify_battery":
        # The battery is the one `epbeat verify` runs by default
        # (instances 0..99); see NOTES.md for why --seed does not move it.
        return Workload(name, (_item("battery", "verify", "ladder_3x8.json",
                                     "--instances", str(VERIFY_INSTANCES)),),
                        gate_verify, {"ladder_3x8.json": ladder_config(3, 8)})
    if name == "beat_long":
        config = two_well_config()
        return Workload(name, (_item("two_well", "beat", "two_well.json",
                                     "--prob-mode", "born", "--cycles",
                                     str(BEAT_CYCLES), *s),),
                        gate_beat, {"two_well.json": config},
                        two_well_problems(config))
    if name == "hierarchy_depth2":
        return Workload(name, (_item("4x32", "hierarchy", "ladder_4x32.json",
                                     "--depth", str(HIERARCHY_DEPTH), *s),),
                        gate_hierarchy,
                        {"ladder_4x32.json": ladder_config(4, 32)})
    raise KeyError(name)


NAMES = ("solve_ladder", "verify_battery", "beat_long", "hierarchy_depth2")


def write_inputs(workload: Workload, in_dir: Path) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    for fname, doc in workload.configs.items():
        (in_dir / fname).write_text(json.dumps(doc), encoding="utf-8")
