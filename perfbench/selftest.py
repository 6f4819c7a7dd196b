"""Self-test of the benchmark's checker and tracer.

A deliberately corrupted output must count as a failure, a correct one
must pass, span self time must equal busy time minus child time, and
the speed-probe scaling must divide by the bracketing probes.
The worker runs ``run`` before every measurement (it takes
milliseconds); run this file directly to test the checker alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, family_weights  # noqa: E402


def _checker_problems(av) -> list[str]:
    problems = []
    rows = family_weights("path:5")
    report = av.mixing.average_mixing(av.exact.ExactMatrix(rows))
    op = Op("path:5", "report", None, {"matrix": rows})
    if checks.check_outputs(av, [op], [report]) != [[]]:
        problems.append("the checker rejects a correct report")
    entries = report.mixing.to_lists()
    entries[0][1] += Fraction(1, 7)
    entries[1][0] += Fraction(1, 7)
    bad = dataclasses.replace(report, mixing=av.exact.ExactMatrix(entries))
    if not checks.check_outputs(av, [op], [bad])[0]:
        problems.append("the checker accepts a corrupted report")
    if checks.digest("report", bad) == checks.digest("report", report):
        problems.append("a corrupted report keeps its digest")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = av.cli.main(["compute", "--family", "path:5"])
    info = {"command": "compute", "family": "path:5", "basis": "adjacency", "matrix": rows}
    op = Op("compute path:5", "cli", None, info)
    if checks.check_outputs(av, [op], [(code, out.getvalue())]) != [[]]:
        problems.append("the checker rejects a correct CLI payload")
    payload = json.loads(out.getvalue())
    payload["avg_mixing"][2][2] = "1/4"
    if not checks.check_outputs(av, [op], [(code, json.dumps(payload, indent=2))])[0]:
        problems.append("the checker accepts a corrupted CLI payload")
    return problems


def _tracer_problems() -> list[str]:
    problems = []
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("b", lambda: None)
    outer = tracer.wrap("a", lambda: (inner(), inner()))
    tracer.run_op(0, outer)
    # clock: root 0..7, a 1..6, b 2..3 and 4..5
    table = tracing.layer_table(tracer.spans)
    want = {
        tracing.ROOT: {"busy_s": 7.0, "self_s": 2.0, "calls": 1},
        "a": {"busy_s": 5.0, "self_s": 3.0, "calls": 1},
        "b": {"busy_s": 2.0, "self_s": 2.0, "calls": 2},
    }
    if table != want:
        problems.append(f"span arithmetic gives {table}, expected {want}")
    if tracing.op_balance(tracer.spans) != 0.0:
        problems.append("self times do not add up to the operation's time")
    gone = tracing.Tracer()
    gone.install((("x.gone", "avgmix.mixing", "no_such_function"),))
    gone.remove()
    if gone.absent_layers((("x.gone", "avgmix.mixing", "no_such_function"),)) != ["x.gone"]:
        problems.append("a deleted boundary is not reported absent")
    return problems


def _scaling_problems() -> list[str]:
    """A timing bracketed by probes twice as slow as the reference must
    read half as long in reference seconds."""
    import worker  # imports this module, so only at run time

    ref = worker.PROBE_REF_S
    got = worker.scaled({"lat": [0.5, 0.25], "probe": [ref, 3 * ref, ref]})
    if not all(math.isclose(g, w) for g, w in zip(got, [0.25, 0.125])):
        return [f"probe scaling gives {got}, expected [0.25, 0.125]"]
    return []


def run(av) -> list[str]:
    """Problems found; empty when the checker, tracer and scaling behave."""
    return _checker_problems(av) + _tracer_problems() + _scaling_problems()


def main() -> int:
    import worker

    problems = run(worker.import_avgmix())
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
