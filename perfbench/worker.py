"""One timed pass of a workload, in a process of its own.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the checkout's `src` directory, the input and output
directories, the items (CLI argument lists) and whether to trace. The
process imports epbeat, then calls `epbeat.cli.main` once per item,
in-process, so the pass is timed without interpreter start-up and
import, the way a CLI user waits for it after set-up. The pass's wall
and CPU seconds (raw, and rescaled to the reference host speed by
hostspeed.py), exit codes, artifact digests and peak RSS (and, when
traced, the spans) go to the file named by the spec's `result` key.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(cli, argv: list) -> tuple:
    """Exit code of one CLI invocation, and a traceback if it raised."""
    try:
        return int(cli.main(argv) or 0), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # reported as a failed operation, never hidden
        return 1, traceback.format_exc()


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def digests(out_dir: Path) -> dict:
    """sha256 of every artifact except manifest.json (it holds timings)."""
    out = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h = hashlib.sha256()
            with path.open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = os.path.realpath(spec["src"])
    import epbeat
    import epbeat.cli as cli
    from hostspeed import SpeedProbe, rescale
    if not os.path.realpath(epbeat.__file__).startswith(src + os.sep):
        print(f"worker: epbeat imported from {epbeat.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    os.chdir(spec["in_dir"])  # configs are named relative to it
    out_dir = Path(spec["out_dir"])

    runs = []
    probe = SpeedProbe()
    probe.start()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for item in spec["items"]:
        if tracer is not None:
            tracer.op = len(runs)
        start = time.perf_counter()
        rc, err = _invoke(cli, list(item["argv"])
                          + ["--out-dir", str(out_dir / item["name"])])
        runs.append({"name": item["name"], "rc": rc, "error": err,
                     "raw_wall_s": time.perf_counter() - start})
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    host = probe.stop()

    for run in runs:
        out = out_dir / run["name"]
        run["digests"] = digests(out) if out.is_dir() else {}
    result = {"wall_s": rescale(wall, host), "cpu_s": rescale(cpu, host),
              "raw_wall_s": wall, "raw_cpu_s": cpu, "host": host,
              "items": runs,
              "blas_threads": blas_threads(),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result.update(spans=tracer.spans, counters=tracer.counters,
                      probe_errors=tracer.probe_errors)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
