"""avgmix benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them, one after another) in a fresh
worker process each, checks every output, and prints the metrics.  The
last stdout line is one JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  Lines before it give the run's
metadata (machine, versions, load, sample counts) and a readable table.

Children run with BLAS and OpenMP pools limited to one thread, so that
no process uses more threads than there are cores, and with a fixed hash
seed.  Nothing here touches the machine's settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
COLD_STARTS = 10
WORKER_TIMEOUT = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd: list[str], timeout: float, env: dict | None = None) -> str:
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env or child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_worker(workload: str, seed: int, seconds: float, trace: int, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    return json.loads(_run(cmd, WORKER_TIMEOUT).strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import avgmix, build the inputs.

    Each is scaled, like every timing, by the speed probes run just
    before and just after it."""
    return [
        run_worker(workload, seed, 0, 0, ("--setup-only",))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


def cold_start_ms() -> list[float]:
    """Wall time of fresh ``python -m avgmix.cli compute`` launches,
    after one discarded warm-up launch."""
    env = child_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, "-m", "avgmix.cli", "compute", "--family", "path:3"]
    times = []
    for _ in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        _run(cmd, 30, env)
        times.append((time.perf_counter() - t0) * 1e3)
    return times[1:]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end values of one run.

    Other tenants of a shared machine slow it by up to 2x, for seconds
    to minutes at a time, and process CPU time slows with it.  So every
    timing is scaled by the speed probe run just before and just after
    it, to seconds at the reference machine's unloaded speed.  Wall and
    CPU time sum each operation's median scaled timing over the passes;
    latency percentiles are over the scaled timings of every operation
    of every pass.
    """
    passes = raw["passes"]
    wall = sum(worker.scaled_medians(passes))
    lat = [x * 1e3 for p in passes for x in worker.scaled(p)]
    p99 = quantile(lat, 99)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": sum(worker.scaled_medians(passes, "cpu")),
        "ops_per_s": len(passes[0]["lat"]) / wall,
        "lat_p50_ms": quantile(lat, 50),
        "lat_p99_ms": p99,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    probes = [x for p in passes for x in p["probe"]]
    extra = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0]["lat"]),
        "unscaled_wall_s": sum(statistics.median(col) for col in zip(*(p["lat"] for p in passes))),
        "probe_median_ms": statistics.median(probes) * 1e3,
        "slowdown": statistics.median(probes) / worker.PROBE_REF_S,
        "lat_samples": len(lat),
        "lat_beyond_p99": sum(x > p99 for x in lat),
        "setup_probes": len(setups),
        "pass_walls_s": [p["wall"] for p in passes],
        "median_pass_wall_s": statistics.median(p["wall"] for p in passes),
    }
    return values, extra


def layer_value(layers: dict, name: str) -> float:
    """A per-layer metric; 0 for a traced layer this workload never called."""
    if name in layers:
        return layers[name]
    if name.rpartition(".")[0] in {layer for layer, _, _ in worker.tracing.BOUNDARIES}:
        return 0
    raise KeyError(f"per-layer metric {name!r} is not measured")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    raw = run_worker(workload, seed, seconds, trace)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "inputs": raw["meta"], "numpy": raw["numpy"]}
    if trace:
        layers = raw["trace"]["layers"]
        starts = cold_start_ms() if workload == "families_cli" else []
        layers["cli.cold_start_ms"] = statistics.median(starts) if starts else 0
        declared = worker.spec()["per_layer"]
        values = {m["name"]: layer_value(layers, m["name"]) for m in declared}
        meta.update(absent_layers=raw["trace"]["absent"], missing_targets=raw["trace"]["missing"],
                    cold_start_launches=len(starts))
    else:
        values, extra = end_to_end(raw, setup_seconds(workload, seed))
        declared = worker.spec()["end_to_end"]
        meta.update(extra)
    meta["fail_frac"] = raw["failed"] / raw["attempted"]
    meta["problems"] = raw["problems"]
    return {
        "correct": raw["failed"] == 0 and raw["selftest_ok"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "meta": meta,
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=worker.workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "avgmix" / "__init__.py").is_file():
        print(f"error: no avgmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = machine()
    names = worker.workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(json.dumps({"machine": host, **res["meta"]}))
        for metric, v in res["metrics"].items():
            print(f"  {name:14s} {metric:36s} {v['value']:>16.6g} {v['unit']}")
        print(f"  {name:14s} {'fail_frac':36s} {res['meta']['fail_frac']:>16.6g} "
              f"({res['failed']}/{res['attempted']})")
    if len(results) == 1:
        res = next(iter(results.values()))
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
