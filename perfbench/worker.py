"""Runs one workload in a fresh process and prints its raw measurements.

The launcher (run.py) starts this file once per workload and once per
set-up probe.  The worker imports avgmix from the checkout's src/ only,
builds the seeded inputs, then runs passes over the fixed input set in
a closed loop: one caller, the next operation issued when the previous
one returns.  Output checks, the oracle and digests run between passes,
outside the timed region.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_DIR = HERE / "golden"
OUT_DIR = HERE / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

def spec() -> dict:
    """BENCHMARK.json, which names every metric and its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_avgmix():
    """Import avgmix from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import avgmix
    import avgmix.cli  # noqa: F401  (not imported by the package itself)

    if not Path(avgmix.__file__).resolve().is_relative_to(src):
        raise ImportError(f"avgmix was imported from {avgmix.__file__}, not {src}")
    return avgmix


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# The speed probe: a fixed computation that uses nothing from avgmix, in
# the proportions of the library's own work: about half bytecode, a
# third Fraction sums, a fifth bigint products.  Other tenants of a
# shared host slow the machine by up to 2x, for seconds to minutes at a
# time, and the probe slows with it.  Of the mixes tried, this one
# tracked the slowdown of the workloads' operations best; a bytecode
# loop alone slowed less than most of them.  PROBE_REF_S is its fastest
# time on the 2-core reference VM (Xeon, 2.1 GHz, CPython 3.11).
PROBE_REF_S = 0.99e-3
PROBE_LOOPS = 9000
PROBE_FRACTIONS = 160
PROBE_POLY = [3 ** (200 + 37 * i) for i in range(16)]


def speed_probe() -> float:
    """Seconds the fixed probe computation takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, PROBE_FRACTIONS):
        f += Fraction(i % 7 + 1, i)
    prod = [0] * (2 * len(PROBE_POLY) - 1)
    for i, x in enumerate(PROBE_POLY):
        for j, y in enumerate(PROBE_POLY):
            prod[i + j] += x * y
    return time.perf_counter() - t0


def run_pass(ops, tracer=None) -> dict:
    """One closed-loop pass over the fixed input set, timing each operation.

    The speed probe runs before the first operation and after each one,
    outside the operations' timings, so probe[i] and probe[i + 1]
    bracket operation i.
    """
    outputs, errors, lat, cpu = [], [], [], []
    probe = [speed_probe()]
    clock = time.perf_counter
    t0 = clock()
    for i, op in enumerate(ops):
        start, cpu_start = clock(), _cpu()
        try:
            out = tracer.run_op(i, op.run) if tracer else op.run()
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{op.key}: {type(exc).__name__}: {exc}"
        lat.append(clock() - start)
        cpu.append(_cpu() - cpu_start)
        probe.append(speed_probe())
        outputs.append(out)
        errors.append(err)
    return {"wall": clock() - t0, "lat": lat, "cpu": cpu, "probe": probe,
            "outputs": outputs, "errors": errors}


class Verdicts:
    """Failure count against the first pass's checked outputs.

    The first pass is checked in full (invariants, closed forms, the
    oracle, golden digests); every later pass must reproduce its
    digests exactly.
    """

    def __init__(self, av, wl, golden: dict | None):
        self.av, self.wl, self.golden = av, wl, golden
        self.first: list[str] | None = None
        self.bad: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, p: dict) -> None:
        ops = self.wl.ops
        digests = [
            checks.digest(op.kind, out) if out is not None else None
            for op, out in zip(ops, p["outputs"])
        ]
        if self.first is None:
            self.first = digests
            found = checks.check_outputs(self.av, ops, p["outputs"])
            for op, d, probs in zip(ops, digests, found):
                want = (self.golden or {}).get(op.key)
                if self.golden is not None and op.kind not in checks.FLOAT_KINDS and want != d:
                    probs = probs + [f"digest {d} differs from golden {want}"]
                self.bad.append(bool(probs))
                self.problems += [f"{op.key}: {x}" for x in probs]
        for i, (d, err) in enumerate(zip(digests, p["errors"])):
            self.attempted += 1
            if err or self.bad[i] or d != self.first[i]:
                self.failed += 1
                if err:
                    self.problems.append(err)
                elif d != self.first[i]:
                    self.problems.append(f"{ops[i].key}: output changed between passes")


def to_reference(x: float, before: float, after: float) -> float:
    """A timing in reference seconds: x times PROBE_REF_S over the mean
    of the two probes that bracket it."""
    return 2 * PROBE_REF_S * x / (before + after)


def scaled(p: dict, key: str = "lat") -> list[float]:
    """A pass's timings in reference seconds."""
    return [to_reference(*xab) for xab in zip(p[key], p["probe"], p["probe"][1:])]


def scaled_medians(passes: list[dict], key: str = "lat") -> list[float]:
    """Each operation's median scaled timing over the passes."""
    return [statistics.median(col) for col in zip(*(scaled(p, key) for p in passes))]


def run_loop(ops, budget: float, min_passes: int, verdicts: Verdicts, traced=False):
    """Passes until another would overrun the budget; at least min_passes.

    A traced pass runs with the boundaries wrapped and keeps its tracer.
    """
    passes, spent = [], 0.0
    while True:
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            p = run_pass(ops, tracer)
        finally:
            if tracer:
                tracer.remove()
        verdicts.add(p)
        kept = {k: p[k] for k in ("wall", "cpu", "lat", "probe")}
        if tracer:
            tracing.size_attrs(tracer.spans)
            kept["tracer"] = tracer
            kept["stdout_bytes"] = sum(
                len(out[1].encode())
                for op, out in zip(ops, p["outputs"])
                if op.kind == "cli" and out is not None
            )
        passes.append(kept)
        spent += p["wall"]
        if len(passes) >= min_passes and spent + statistics.median(q["wall"] for q in passes) > budget:
            return passes


def layer_metrics(spans: list[list], stdout_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in BENCHMARK.json."""
    values = {
        f"{layer}.{field}": v
        for layer, row in tracing.layer_table(spans).items()
        for field, v in row.items()
    }
    sized = [s[tracing.DATA] for s in spans if isinstance(s[tracing.DATA], dict)]
    inputs = {a["input"]: a for a in sized}
    values["mixing.calls_per_input"] = len(sized) / len(inputs) if inputs else 0
    values["mixing.deg_sum"] = sum(a["deg_psi"] for a in inputs.values())
    values["mixing.bits_D_max"] = max((a["bits_D"] for a in sized), default=0)
    values["mixing.bits_denom_max"] = max((a["bits_denom"] for a in sized), default=0)
    values["cli.stdout_bytes"] = stdout_bytes
    return values


def trace_report(plain: list[dict], traced: list[dict], tag: str) -> dict:
    """Per-layer medians over the traced passes; spans written to out/."""
    per_pass = [layer_metrics(p["tracer"].spans, p["stdout_bytes"]) for p in traced]
    names = set().union(*per_pass)
    layers = {name: statistics.median(v.get(name, 0) for v in per_pass) for name in names}
    layers["trace.overhead_frac"] = sum(scaled_medians(traced)) / sum(scaled_medians(plain)) - 1
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(OUT_DIR / f"spans_{tag}.jsonl.gz", "wt") as fh:
        for k, p in enumerate(traced):
            for i, s in enumerate(p["tracer"].spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3], "op": s[4],
                                     "sizes": s[5]}) + "\n")
    last = traced[-1]["tracer"]
    return {
        "layers": layers,
        "balance": max(tracing.op_balance(p["tracer"].spans) for p in traced),
        "absent": last.absent_layers(),
        "missing": last.missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    speed_probe()  # warm-up: the first loop of a fresh process runs cold
    before = speed_probe()
    t0 = time.perf_counter()
    av = import_avgmix()
    wl = workloads.build(av, args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        scaled_s = to_reference(setup_s, before, speed_probe())
        print(json.dumps({"setup_s": scaled_s, "unscaled_setup_s": setup_s}))
        return 0

    import numpy

    golden_path = GOLDEN_DIR / f"{args.workload}.json"
    golden = None
    if golden_path.is_file() and not args.write_golden:
        data = json.loads(golden_path.read_text())
        if data["seed"] == args.seed:
            golden = data["digests"]
    verdicts = Verdicts(av, wl, golden)
    self_problems = selftest.run(av)
    result = {"setup_s": setup_s, "meta": wl.meta, "numpy": numpy.__version__}
    if args.trace:
        plain = run_loop(wl.ops, args.seconds / 2, MIN_TRACED_PASSES, verdicts)
        traced = run_loop(wl.ops, args.seconds / 2, MIN_TRACED_PASSES, verdicts, traced=True)
        report = trace_report(plain, traced, f"{args.workload}_s{args.seed}")
        if report["balance"] > 1e-6:
            self_problems.append(f"self times miss an operation's time by {report['balance']}")
        result["trace"] = report
    else:
        result["passes"] = run_loop(wl.ops, args.seconds, MIN_PASSES, verdicts)
    if args.write_golden and not verdicts.problems:
        digests = {op.key: d for op, d in zip(wl.ops, verdicts.first)
                   if op.kind not in checks.FLOAT_KINDS}
        golden_path.write_text(json.dumps({"seed": args.seed, "digests": digests}, indent=0) + "\n")
    result.update(
        attempted=verdicts.attempted,
        failed=verdicts.failed,
        problems=(self_problems + verdicts.problems)[:20],
        selftest_ok=not self_problems,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
