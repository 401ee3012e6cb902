"""fracspde benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload delay_ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see workloads.py): delay_ensemble, fractional_simulate,
transport_3d.

--trace 0 measures with tracing off: set-up time over several fresh
interpreters, then the workload repeated for --seconds in one more fresh
interpreter while this process samples the memory of it and its pool
workers.  --trace 1 runs the workload serially with every call into the
package's layers wrapped (tracing.py) and reports the per-layer metrics.
Both check every output.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
environment, per-check results, absent layers and the extra metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("delay_ensemble", "fractional_simulate", "transport_3d")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # every run must end within 180 s
POLL_S = 0.1
RESULT_TOL = 1e-9  # largest result_dev that still counts as the recorded result
PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024


def _tree_rss_kb(root_pid: int) -> float:
    """Resident set size of a process and all its descendants, in KiB."""
    parent = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parent[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parent.items() if pp == pid and p not in tree]
        tree.update(kids)
        frontier.extend(kids)
    total = 0.0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except OSError:
            continue
    return total


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_worker(req: dict, env: dict, deadline: float, sample_rss: bool = False):
    """Start worker.py on a request; return (result, wall seconds, peak tree RSS in MB)."""
    req_path = Path(req["result"]).with_suffix(".request.json")
    req_path.write_text(json.dumps(req))
    Path(req["result"]).unlink(missing_ok=True)
    peak_kb = 0.0
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(req_path)],
        env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    # a blocking wait, so a set-up probe's wall time is not rounded to a poll tick
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
    killer.start()
    try:
        while sample_rss and proc.poll() is None:
            peak_kb = max(peak_kb, _tree_rss_kb(proc.pid))
            time.sleep(POLL_S)
        proc.wait()
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        _kill_group(proc.pid)  # pool workers left behind, if any
        proc.wait()
    if time.monotonic() >= deadline:
        raise TimeoutError(f"{req['mode']} worker exceeded the run deadline")
    result = json.loads(Path(req["result"]).read_text())
    if not result.get("ok"):
        raise RuntimeError(f"{req['mode']} worker failed:\n{result.get('error')}")
    return result, wall, max(peak_kb / 1024, result["maxrss_mb"])


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "fracspde").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _environment(seed: int, workers: int, res: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "openblas_threads": res["openblas_threads"],
        "workers": workers,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


class Checks:
    """Pass/fail tally of every trajectory and output check of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_name = {}  # check -> [attempts, failures]

    def add(self, name: str, ok: bool):
        self.attempted += 1
        self.failed += not ok
        tally = self.by_name.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += not ok

    def add_passes(self, passes):
        """Each pass's trajectories and checks, plus byte-identical outputs across passes."""
        for p in passes:
            self.attempted += p["trajectories"]
            for name, ok in p["checks"].items():
                self.add(name, ok)
        self.add("outputs_identical_across_passes", len({p["digest"] for p in passes}) == 1)

    def lines(self):
        return [f"check {name}: " + (f"FAILED {f}/{n}" if f else f"pass {n}/{n}")
                for name, (n, f) in self.by_name.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fracspde" / "__init__.py").is_file():
        print(f"perfbench: no fracspde sources under {ROOT / 'src'}; "
              "run from the root of a fracspde checkout", file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread: a multi-threaded OpenBLAS spins on every core between
    # calls, so load on any core stalls each history matvec; single-threaded
    # runs of fractional_simulate spread about half as much on a 2-CPU host.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)

    def request(mode, tag):
        return {"mode": mode, "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "workers": workers, "root": str(ROOT),
                "out": str(out / tag), "result": str(out / f"{tag}.result.json")}

    try:
        if args.trace:
            res, _, _ = _run_worker(request("traced", "traced"), env, deadline)
        else:
            def setup_probe(i):
                return _run_worker(request("setup", f"setup{i}"), env, deadline)[1]

            # probes on both sides of the timed phase, so one slow spell of a
            # shared host moves fewer of them
            setups = [setup_probe(i) for i in range(SETUP_PROBES // 2)]
            res, _, peak_mb = _run_worker(request("timed", "timed"), env, deadline,
                                          sample_rss=True)
            setups += [setup_probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = Checks()
    passes = res["passes"] if args.trace else res["reps"]
    checks.add_passes(passes)
    checks.add("result_matches_reference", res["result_dev"] <= RESULT_TOL)
    lines = [f"env {json.dumps(_environment(args.seed, workers, res))}"]
    extra = {
        "result_dev": (res["result_dev"], "rel"),
        "warnings": (statistics.median(p["warnings"] for p in passes), "count"),
    }
    if args.trace:
        metrics = {k: tuple(v) for k, v in res["metrics"].items()}
        cov = metrics["trace.coverage"][0]
        checks.add("top_level_spans_cover_wall_within_10pct", 0.9 <= cov <= 1.1)
        for layer, reason in sorted(res["absent"].items()):
            lines.append(f"absent {layer}: {reason}")
        for name in res["not_called"]:
            lines.append(f"absent {name}: not on this workload's path")
        for n, secs in res["levels_s"].items():
            lines.append(f"metric experiments.level_s.{n} = {secs!r} s")
        for name, (calls, tot, slf) in res["breakdown"].items():
            lines.append(f"span {name}: calls={calls} total_s={tot / 1e9:.6f} "
                         f"self_s={slf / 1e9:.6f}")
        lines.append(f"spans written to {out / 'traced' / 'spans.json'}")
    else:
        walls = [r["wall_s"] for r in passes]
        rates = [r["steps"] / r["wall_s"] for r in passes]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "run_steps_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        lines.append(f"reps {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls)
                     + f"; steps per rep {passes[0]['steps']}")
        lines.append("setup_s probes " + " ".join(f"{s:.4f}" for s in setups))
    extra["failed_frac"] = (checks.failed / checks.attempted, "frac")
    lines.extend(checks.lines())
    lines.extend(f"warning {msg}" for msg in res["warning_messages"])
    if args.trace:
        metrics.update(extra)
    else:
        lines.extend(f"metric {k} = {v!r} {u}" for k, (v, u) in extra.items())
    lines.extend(f"metric {k} = {v!r} {u}" for k, (v, u) in metrics.items())
    print("\n".join(lines))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
