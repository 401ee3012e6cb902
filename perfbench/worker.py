"""One workload in a fresh interpreter: `python3 worker.py <request.json>`.

run.py starts this script for every measurement so that memory peaks and
import costs never carry over from another workload.  The request names a
mode:

- setup:  import the package, parse the config and integrate one step.
- timed:  repeat the workload for the requested seconds with tracing off.
- traced: one untraced pass, one traced serial pass, one allocation-traced
          integrate, then the per-layer metrics.

The result is written as JSON to the path named in the request.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

MIN_REPS = 3


class WarningCounter:
    """Counts RuntimeWarnings, including those raised in forked pool workers.

    The count lives in shared memory that forked children inherit, together
    with the filter and the showwarning hook installed here.
    """

    def __init__(self):
        self._count = multiprocessing.Value("q", 0)
        self.messages = []

    def install(self):
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._show

    def _show(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            with self._count.get_lock():
                self._count.value += 1
            text = f"{filename}:{lineno}: {category.__name__}: {message}"
            if text not in self.messages and len(self.messages) < 5:
                self.messages.append(text)

    @property
    def count(self) -> int:
        return self._count.value


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _pass(workloads, name, raw, out_dir, workers, counter):
    """One untraced or traced execution of a workload with its wall time."""
    before = counter.count
    t0 = time.perf_counter()
    outcome = workloads.run(name, raw, out_dir, workers)
    outcome["wall_s"] = time.perf_counter() - t0
    outcome["warnings"] = counter.count - before
    return outcome


def do_setup(req, workloads):
    from fracspde import dynamics, io

    for raw in workloads.one_step_configs(req["workload"], req["seed"]):
        dynamics.integrate(io.parse_config_dict(raw))


def do_timed(req, workloads, counter):
    name, seconds = req["workload"], req["seconds"]
    raw = workloads.config(name, req["seed"])
    out = Path(req["out"])
    reps = []
    t_start = time.perf_counter()
    # at least MIN_REPS repetitions, so the median is not a mean of two and
    # outputs can be compared byte for byte; no more than fit in --seconds
    while len(reps) < MIN_REPS or (
        time.perf_counter() - t_start + statistics.median(r["wall_s"] for r in reps) <= seconds
    ):
        reps.append(_pass(workloads, name, raw, _fresh_dir(out / f"rep{len(reps)}"),
                          req["workers"], counter))
    probe = workloads.run_probe(name, _fresh_dir(out / "probe"))
    return {"reps": reps, "probe": probe,
            "result_dev": workloads.result_dev(name, probe)}


def do_traced(req, workloads, counter):
    import numpy as np

    from fracspde import dynamics
    from tracing import Tracer

    name = req["workload"]
    raw = workloads.config(name, req["seed"])
    out = Path(req["out"])
    passes = [_pass(workloads, name, raw, _fresh_dir(out / "untraced"), req["workers"], counter)]
    untraced_serial = passes[0]["wall_s"]
    if req["workers"] > 1 and name == "delay_ensemble":
        passes.append(_pass(workloads, name, raw, _fresh_dir(out / "serial"), 1, counter))
        untraced_serial = passes[-1]["wall_s"]

    tracer = Tracer()
    runs = []  # (integrate seconds, self seconds, steps) per trajectory
    levels = {}
    tracer.on_exit["dynamics.integrate"] = lambda a, rec, ns, self_ns: runs.append(
        (ns / 1e9, self_ns / 1e9, len(rec.times) - 1))
    tracer.on_exit["experiments.level"] = lambda a, curve, ns, self_ns: levels.__setitem__(
        curve.noise_N, ns / 1e9)
    io_bytes = []
    tracer.on_exit["io.write"] = lambda a, paths, ns, self_ns: io_bytes.extend(
        Path(p).stat().st_size for p in paths.values())
    tracer.install()
    try:
        traced = _pass(workloads, name, raw, _fresh_dir(out / "traced"), 1, counter)
    finally:
        tracer.uninstall()
    passes.append(traced)

    cfg = workloads.alloc_probe_config(name, req["seed"])
    tracemalloc.start()
    try:
        dynamics.integrate(cfg)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    probe = workloads.run_probe(name, _fresh_dir(out / "probe"))
    wall = traced["wall_s"]
    int_s = [r[0] for r in runs]
    step_us = [r[0] / max(r[2], 1) * 1e6 for r in runs]
    steps = sum(r[2] for r in runs)
    overhead = wall - untraced_serial
    wrapped = tracer.wrapped_calls()
    metrics = {
        "dynamics.step_us.median": (statistics.median(step_us), "us"),
        "dynamics.step_us.p90": (float(np.percentile(step_us, 90)), "us"),
        "dynamics.integrate_s.median": (statistics.median(int_s), "s"),
        "dynamics.integrate_s.p90": (float(np.percentile(int_s, 90)), "s"),
        "dynamics.self_us_per_step": (sum(r[1] for r in runs) / steps * 1e6, "us"),
        "dynamics.nonlinear_us": (tracer.mean_us("dynamics.nonlinear"), "us"),
        "dynamics.nonlinear_calls": (tracer.calls("dynamics.nonlinear"), "count"),
        "dynamics.grid_transform_us": (tracer.mean_us("dynamics.grid_transform"), "us"),
        "dynamics.grid_transform_calls": (tracer.calls("dynamics.grid_transform"), "count"),
        "dynamics.engine_setup_s": (tracer.mean_us("dynamics.engine_setup") / 1e6, "s"),
        "dynamics.alloc_peak_mb": (alloc_peak / 2**20, "MB"),
        "noise.transport_us": (tracer.mean_us("noise.transport"), "us"),
        "noise.transport_calls": (tracer.calls("noise.transport"), "count"),
        "noise.draw_us": (tracer.mean_us("noise.draw"), "us"),
        "noise.draw_calls": (tracer.calls("noise.draw"), "count"),
        "noise.plan_build_s": (tracer.mean_us("noise.plan_build") / 1e6, "s"),
        "spectral.hermitianize_us": (tracer.mean_us("spectral.hermitianize"), "us"),
        "spectral.hermitianize_calls": (tracer.calls("spectral.hermitianize"), "count"),
        "fractional.kernel_calls": (tracer.calls("fractional.kernel_increments"), "count"),
        "io.write_s": (tracer.total_s("io.write"), "s"),
        "io.bytes_written": (sum(io_bytes), "B"),
        "trace.coverage": (tracer.top_level_s() / wall, "frac"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_us_per_call": (overhead / max(wrapped, 1) * 1e6, "us"),
        "trace.wrapped_calls": (wrapped, "count"),
    }
    absent = dict(tracer.absent)
    for n in workloads.DELAY_LEVELS:
        metrics[f"experiments.level_share.N{n}"] = (levels.get(n, 0.0) / wall, "frac")
        metrics[f"experiments.blown_up_runs.N{n}"] = (
            traced.get("blown_up", {}).get(f"N{n}", 0), "count")
    if name == "delay_ensemble":
        metrics["experiments.parallel_efficiency"] = (
            untraced_serial / (req["workers"] * passes[0]["wall_s"]), "ratio")
    else:
        metrics["experiments.parallel_efficiency"] = (0.0, "ratio")
        absent["experiments.parallel_efficiency"] = "workload runs no ensemble"
    tracer.write(out / "spans.json", {"workload": name, "seed": req["seed"],
                                       "traced_wall_s": wall})
    return {
        "passes": passes,
        "probe": probe,
        "result_dev": workloads.result_dev(name, probe),
        "metrics": metrics,
        "absent": absent,
        "levels_s": {f"N{n}": s for n, s in sorted(levels.items())},
        "breakdown": {k: v for k, v in sorted(tracer.totals.items()) if v[0]},
        "not_called": sorted(k for k, v in tracer.totals.items() if not v[0]),
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob(
            "*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv):
    req = json.loads(Path(argv[1]).read_text())
    counter = WarningCounter()
    counter.install()
    result = {"ok": False}
    try:
        import fracspde
        import numpy
        import workloads

        want = Path(req["root"]) / "src" / "fracspde"
        if Path(fracspde.__file__).resolve().parent != want.resolve():
            raise RuntimeError(f"imported fracspde from {fracspde.__file__}, not {want}")
        mode = req["mode"]
        if mode == "setup":
            do_setup(req, workloads)
        else:
            result["numpy"] = numpy.__version__
            result["openblas_threads"] = _openblas_threads()
            run = do_timed if mode == "timed" else do_traced
            result.update(run(req, workloads, counter))
        result["ok"] = True
    except Exception:  # the boundary: report the failure to run.py
        result["error"] = traceback.format_exc()
    result["warning_messages"] = counter.messages
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(req["result"]).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
