"""Record reference.json: every workload's certified outputs on the default
seed, with status and iteration counts beside them.

    python3 bench/record_reference.py

Run this only when a change is meant to move the certified values, and say
so in the change.
"""

from __future__ import annotations

import json
import sys

import run
import spans
import workloads


def main() -> int:
    run.pin_blas()
    dm = run.load_dmrate()
    env = run.environment()
    out = {"seed": workloads.DEFAULT_SEED, "env": env, "workloads": {}}
    for name in workloads.WORKLOADS:
        points = workloads.generate(name, workloads.DEFAULT_SEED)
        run.cold_build(dm, points)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            _, records = run.run_pass(dm, points, tracer)
        ipm = run.ipm_iters_by_point(tracer.spans)
        rows = []
        for p, rec in zip(points, records):
            if rec["problems"]:
                print(f"{name} point {p.index}: {rec['problems']}", file=sys.stderr)
                return 1
            rows.append({
                "distance_km": p.distance_km, "alpha": p.alpha, "delta_a": p.delta_a, "cutoff": p.cutoff,
                "lower_bound": rec["lower_bound"], "rate": rec["rate"], "status": rec["status"],
                "fw_iters": rec["fw_iters"], "ipm_iters": ipm.get(p.index, 0),
            })
            print(f"{name} {p.index}: {rows[-1]}")
        out["workloads"][name] = rows
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
