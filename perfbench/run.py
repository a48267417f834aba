"""Benchmark of the estimation lab: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload small_n_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads and metrics are declared in
``perfbench/spec.py`` (which also writes ``BENCHMARK.json``). With
``--trace 0`` the last line carries the end-to-end metrics, with ``--trace 1``
the per-layer ones, timed around the library calls by ``perfbench/spans.py``.

Every workload reports every end-to-end metric. A "fit" fits every method
once on one sample: on ``fit_dataset`` it is one ``fit --methods all``
invocation (cold: empty weight cache), on the grids it is one replication
(cold: the first-call fill at every grid n, WMLE weights and regression
operators included, redone in-process with the regression caches emptied
after every pass; warm: pass time per replication). ``reps_per_s`` counts
such fitted samples per second.
The failure ratio is printed as a line and carried by ``attempted``/``failed``.

Every workload process is a fresh interpreter (``perfbench/lab.py``) with
workers=1, BLAS pinned to one thread and the WMLE weight cache pointed at a
file in this run's own work directory under ``.perfbench_work/``, which is
removed at exit. ``setup_s`` is the median, over several fresh processes, of
the time from spawning the process to its "ready" line (imports plus the
first-call cache fill). Every end-to-end time is reported at reference host
speed (``perfbench/speed.py``), since the shared host's own speed drifts by
more than the bounds: set-up times are scaled by a calibration kernel run
before the spawn and after the ready line, the timed loop by kernel slices
sampled all through it. The unscaled rate and the median scale factors are
printed as ``counts``. Outputs are checked against ``perfbench/reference.json``
(recorded at the reference seed) and by seed-independent invariants; a
mismatch prints ``"correct": false`` and exits 1.

``--record-reference`` rewrites reference.json from the current code.
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
import threading
import time
from pathlib import Path

import spec
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAB = Path(__file__).with_name("lab.py")
SETUP_SAMPLES = 7     # fresh processes timed to ready, the measuring one included
BUDGET_S = 170.0      # the whole run, all processes included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WEIBULL_ESTLAB_WEIGHTS"] = str(work / "weights.txt")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(mode: str, args, work: Path, deadline: float) -> tuple[float, dict]:
    """Run lab.py once; return (seconds from spawn to its ready line at reference
    speed, its result). The host speed is calibrated here before the spawn and by
    the process after its ready line."""
    argv = [sys.executable, str(LAB), mode, "--work", str(work), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload:
        argv += ["--workload", args.workload]
    cal = speed.calibrate() if mode != "record" else 0.0
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(work), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"lab.py {mode} exited with {proc.returncode}")
    if mode == "record":
        return ready, {}
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or not lines:
        raise RuntimeError(f"lab.py {mode} printed no result")
    result = json.loads(lines[-1])
    return ready * speed.factor(cal, result["ready_cal_s"]), result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weibull_estlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return out.stdout.strip() or "unavailable"


def machine() -> dict:
    info: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(processes: list[tuple[float, dict]], result: dict) -> dict[str, float]:
    """End-to-end metrics from the (ready seconds, result) of every process."""
    cold = result["cold_ms"]
    warm = result["warm_ms"]
    return {
        "setup_s": statistics.median(ready for ready, _ in processes),
        "reps_per_s": result["reps_per_s"],
        "fit_cold_ms_p50": statistics.median(cold),
        "fit_cold_ms_p90": percentile(cold, 90),
        "fit_warm_ms_p50": statistics.median(warm),
        "fit_warm_ms_p90": percentile(warm, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run(args, work: Path) -> int:
    deadline = time.perf_counter() + BUDGET_S
    speed.calibrate()  # warm-up, so the first spawn's calibration is like the rest
    # probes on both sides of the measuring process, so set-up samples span the run
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    processes = [spawn("probe", args, work, deadline) for _ in range(probes // 2)]
    processes.append(spawn("measure", args, work, deadline))
    result = processes[-1][1]
    processes += [spawn("probe", args, work, deadline) for _ in range(probes - probes // 2)]
    problems = [p for _, r in processes for p in r["problems"]]

    if args.trace:
        declared = spec.per_layer()
        values = result.get("per_layer", {})
    else:
        declared = spec.END_TO_END
        values = end_to_end(processes, result) if "reps_per_s" in result else {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    if len(metrics) != len(declared):
        problems.append("some metrics could not be measured")

    env = dict(result.get("env", {}), git_sha=git_sha(), src_sha256=source_digest(),
               workload=args.workload, argv=sys.argv[1:], **machine())
    counts = {"setup_samples": len(processes),
              "fit_cold_samples": len(result.get("cold_ms", [])),
              "fit_warm_samples": len(result.get("warm_ms", [])),
              "units": result.get("units"), "failed_units": result.get("failed_units"),
              "attempted": result["attempted"], "failed": result["failed"]}
    if "weight_cache_mismatch" in result:
        counts["weight_cache_mismatch"] = result["weight_cache_mismatch"]
    if "speed" in result:
        counts["speed_factors_median"] = result["speed"]
        counts["reps_per_s_unscaled"] = result["raw_reps_per_s"]
    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(counts))
    print(f"fail_ratio {result['failed'] / max(result['attempted'], 1)!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"CHECK FAILED: ... {len(problems) - 20} more", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(result["attempted"], 1),
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "weibull_estlab" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload or 'record'}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            spawn("record", args, work, time.perf_counter() + BUDGET_S)
            return 0
        return run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
