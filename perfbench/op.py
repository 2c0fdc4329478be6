"""One benchmark operation in a fresh process.

Usage (``run.py`` starts it with ``src`` on PYTHONPATH):

    python3 perfbench/op.py WORKLOAD SPEC_JSON

SPEC_JSON holds the workload parameters, seed, operation index, mode
(``full``; ``setup`` to stop at the first fixed-point iteration; or
``import``, which imports pdsplit once and reports the machine), whether
to trace, the work directory and the run id.
Prints one JSON object: monotonic timestamps (comparable with the
parent's on Linux), per-item facts for the checks, peak RSS and, when
traced, the span summary.  Spans go to ``spans.csv`` in the work
directory.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import numpy

import workloads
from tracer import Tracer, install


def machine_facts() -> dict:
    """nproc, CPU model, data cache sizes, Python, numpy and BLAS."""
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__}
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        facts["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                             if line.startswith("model name")), "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if (index / "type").read_text().strip() != "Instruction":
            level = (index / "level").read_text().strip()
            facts[f"L{level}"] = (index / "size").read_text().strip()
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas['name']} {blas['version']}"
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower()})
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def main(workload: str, spec: dict) -> dict:
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    if spec["mode"] == "import":
        import pdsplit  # compiles the package once before timing

        return {"pdsplit": pdsplit.__file__,
                "machine": machine_facts()}
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        install(tracer)
    marker = workloads.Marker(setup_only=spec["mode"] == "setup")
    result = {"items": [], "error": None}
    try:
        items, info = workloads.OPS[workload](
            spec["params"], spec["seed"], spec["index"], marker, workdir
        )
        result.update(items=items, info=info)
    except workloads.SetupDone:
        pass
    except Exception:  # the parent counts the operation as failed
        result["error"] = traceback.format_exc(limit=8)
    result.update(
        t_setup_end=marker.t_setup_end,
        t_iter_end=marker.t_iter_end,
        t_op_end=marker.t_op_end,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(workdir / "spans.csv")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
