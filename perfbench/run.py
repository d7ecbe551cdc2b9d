"""epbeat benchmark: CLI workloads, end-to-end metrics, traced layers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

NAME is one of solve_ladder, verify_battery, beat_long,
hierarchy_depth2. The runner writes the workload's inputs from the
seed and times `setup_s` in fresh interpreters. It then runs timed
passes for about S seconds, each in a worker process of its own
(perfbench/worker.py), gates the outputs and prints the metrics.
Timings are rescaled to a reference host speed sampled while they run
(perfbench/hostspeed.py); the raw seconds are in the details. The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 1 it runs an untraced and a traced pass, and
the metrics are the per-layer ones of tracing.PER_LAYER. See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import rescale  # noqa: E402

SETUP_PROBES = 5  # set-up samples per run; the median is reported
MIN_PASSES = 2  # byte-identity needs two passes in one run
PASS_BUDGET_S = 110.0  # no pass starts that would end later than this
RUN_DEADLINE_S = 170.0  # a pass still running then is killed
PROBE_TIMEOUT_S = 30.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


def _fatal(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env(src: Path) -> dict:
    """Environment of the probes and workers: epbeat from `src`. Thread
    pools keep the size the program gets by default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONHOME", None)
    return env


def provenance(root: Path) -> dict:
    import numpy
    import scipy
    pkg = root / "src" / "epbeat"
    files = sorted(pkg.rglob("*.py"))
    tree = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        tree.update(f.relative_to(pkg).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "src_loc": loc,
        "src_files": len(files),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def time_setup(root: Path, config: Path) -> list:
    """Wall seconds of fresh interpreters importing and building, each
    as (raw, rescaled to the reference host speed)."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(config)]
    env = _child_env(root / "src")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            _fatal(f"set-up probe failed ({proc.returncode}): "
                   f"{proc.stderr.strip()[-2000:]}")
        host = json.loads(proc.stdout.splitlines()[-1])
        samples.append((elapsed, rescale(elapsed, host)))
    return samples


def run_pass(root: Path, work: Path, wl, k: int, deadline: float,
             trace: bool = False) -> dict:
    """Pass k of the workload in a fresh worker process."""
    spec = {
        "src": str(root / "src"),
        "in_dir": str(work / "in"),
        "out_dir": str(work / "out" / f"pass{k}"),
        "items": [{"name": it.name, "argv": list(it.argv)} for it in wl.items],
        "trace": trace,
        "result": str(work / f"pass{k}.json"),
    }
    spec_path = work / f"pass{k}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=_child_env(root / "src"), cwd=root,
            stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        _fatal(f"pass {k} did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        _fatal(f"worker for pass {k} exited {proc.returncode}")
    result = json.loads((work / f"pass{k}.json").read_text(encoding="utf-8"))
    if k:
        shutil.rmtree(work / "out" / f"pass{k}", ignore_errors=True)
    return result


def run_passes(root: Path, work: Path, wl, seconds: int,
               deadline: float) -> list:
    """Timed untraced passes, each in a fresh worker process.

    Passes start while `seconds` last, at least MIN_PASSES, none that
    would likely end past PASS_BUDGET_S.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(root, work, wl, len(passes), deadline))
        elapsed = time.perf_counter() - start
        wanted = elapsed < seconds or len(passes) < MIN_PASSES
        if not wanted or elapsed + elapsed / len(passes) > PASS_BUDGET_S:
            return passes


def run_traced(root: Path, work: Path, wl, deadline: float) -> list:
    """An untraced pass and a traced pass."""
    return [run_pass(root, work, wl, 0, deadline),
            run_pass(root, work, wl, 1, deadline, trace=True)]


def tail_percentile(samples: list):
    """Highest whole percentile (>= 50) with at least 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return {"percentile": p, "value": cut}


def gate(root: Path, work: Path, wl, passes: list, seed: int,
         src_sha: str) -> tuple:
    """(attempted, failed, problems) over every invocation of the run.

    Artifacts must be byte-identical across the passes of the run and
    across runs with the same seed of the same sources (`src_sha`).
    """
    first = {run["name"]: run for run in passes[0]["items"]}
    item_problems = {}
    for item in wl.items:
        run = first[item.name]
        probs = list(wl.input_problems)
        if run["rc"] != 0:
            probs.append(f"{item.name}: exit code {run['rc']}")
            if run.get("error"):
                probs.append(run["error"].strip().splitlines()[-1])
        else:
            try:
                probs += wl.gate(item, work / "out" / "pass0" / item.name,
                                 work / "in")
            except (OSError, KeyError, ValueError, TypeError) as exc:
                probs.append(f"{item.name}: artifacts unreadable: {exc!r}")
        item_problems[item.name] = probs

    store = root / ".bench_work" / "digests"
    store.mkdir(parents=True, exist_ok=True)
    ref_path = store / f"{wl.name}-seed{seed}-{src_sha}.json"
    reference = {name: run["digests"] for name, run in first.items()}
    if ref_path.exists():
        earlier = json.loads(ref_path.read_text(encoding="utf-8"))
        for name, dig in reference.items():
            if name in earlier and earlier[name] != dig:
                item_problems[name].append(
                    f"{name}: artifacts differ from an earlier run with "
                    f"seed {seed}")
    elif not any(item_problems.values()):
        ref_path.write_text(json.dumps(reference), encoding="utf-8")

    attempted = failed = 0
    problems = []
    for k, p in enumerate(passes):
        for run in p["items"]:
            attempted += 1
            probs = list(item_problems[run["name"]]) if k == 0 else []
            if k:
                if run["rc"] != 0:
                    probs.append(f"pass {k}: {run['name']}: exit code "
                                 f"{run['rc']}")
                elif run["digests"] != reference[run["name"]]:
                    probs.append(f"pass {k}: {run['name']}: artifacts not "
                                 "byte-identical to pass 0")
                elif item_problems[run["name"]]:
                    probs.append(f"pass {k}: {run['name']}: same artifacts "
                                 "as the failed pass 0")
            failed += bool(probs)
            problems += probs
    return attempted, failed, problems


def run_workload(root: Path, name: str, seed: int, seconds: int,
                 trace: bool, src_sha: str) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    wl = workloads.build(name, seed)
    work = root / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.write_inputs(wl, work / "in")
        setup = [] if trace else time_setup(
            root, work / "in" / wl.items[0].config)
        passes = (run_traced(root, work, wl, deadline) if trace
                  else run_passes(root, work, wl, seconds, deadline))
        attempted, failed, problems = gate(root, work, wl, passes, seed,
                                          src_sha)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    if trace:
        metrics = tracing.layer_metrics(*passes)
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    details = {
        "workload": name, "seed": seed, "trace": trace,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_raw_cpu_s": [p["raw_cpu_s"] for p in passes],
        "pass_host_speed": [p["host"]["speed"] for p in passes],
        "item_raw_wall_s": {it.name: [r["raw_wall_s"] for p in passes
                                  for r in p["items"] if r["name"] == it.name]
                        for it in wl.items},
        "wall_tail": tail_percentile(walls),
        "setup_samples_s": [s for _, s in setup],
        "setup_raw_samples_s": [raw for raw, _ in setup],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "pass_blas_threads": [p["blas_threads"] for p in passes],
        "fail_ratio": failed / attempted,
        "problems": problems,
    }
    if trace:
        details["probe_errors"] = passes[1]["probe_errors"]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details}


def _print_table(name: str, out: dict) -> None:
    d = out["details"]
    print(f"workload {name}: seed {d['seed']}, trace {int(d['trace'])}, "
          f"{d['passes']} pass(es), {out['attempted']} invocations, "
          f"{out['failed']} failed (fail_ratio {d['fail_ratio']:g})")
    for key, m in out["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    tail = d["wall_tail"]
    print("  wall_s tail: " + (f"p{tail['percentile']} = {tail['value']:.4f} s"
                               if tail else
                               f"none (needs >= 20 passes, have "
                               f"{d['passes']})"))
    for p in d["problems"]:
        print(f"  FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "epbeat" / "__init__.py").is_file():
        _fatal(f"no epbeat sources under {root / 'src'}; run from the root "
               "of an epbeat checkout")
    sys.path.insert(0, str(root / "src"))
    import epbeat
    if not Path(epbeat.__file__).resolve().is_relative_to(root / "src"):
        _fatal(f"epbeat imported from {epbeat.__file__}, not this checkout")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    prov = provenance(root)
    outs = {n: run_workload(root, n, args.seed, args.seconds,
                            bool(args.trace), prov["src_sha256"])
            for n in names}
    prov["blas_threads"] = sorted({
        t for o in outs.values() for t in o["details"]["pass_blas_threads"]
        if t is not None})
    for n, out in outs.items():
        _print_table(n, out)
    print(json.dumps({"provenance": prov,
                      "details": {n: o["details"] for n, o in outs.items()}}))
    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, o in outs.items()
                   for k, m in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
