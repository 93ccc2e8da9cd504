"""Benchmark of dmrate's certified key-rate points.

    python3 bench/run.py --workload curve-trusted-n10 --seed 0 --seconds 10 --trace 0

Runs one workload of workloads.py as a closed loop: one process, one
client, one point at a time, with BLAS pinned to one thread.  The timed
phase repeats whole passes over the workload's points until --seconds have
elapsed (at least one pass), with the artifact cache already warm.  Every
point's output is checked; on the default seed it is also compared with
reference.json.  With --trace 1 the run times one untraced and one traced
pass and reports the per-layer metrics of spans.py instead of the
end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details (environment, inputs, every point, spans) go to
.bench_out/ at the repository root.  Exit status: 0 when every check
passed, 1 when a point failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 3
ALLOWED_STATUS = {"converged", "converged_bound", "converged_approx", "rate_zero"}
RESIDUAL_TOL = 1e-7  # max |Tr(rho Gamma_i) - c_i| of a returned state
ORDER_TOL = 1e-10  # slack on lower_bound <= primal_value for rounding
# Certified values on the default seed may move this far (bits) from
# reference.json.  Rounding-level input changes (1e-12 in alpha) already
# move a bound by up to 1.5e-5 bits, because they change where Frank-Wolfe
# stops, so a tighter check would fail on a CPU whose BLAS kernels round
# differently.
REFERENCE_TOL = 1e-4

# The gated end-to-end metrics (BENCHMARK.json).  Run time is printed but
# not gated: on a shared 2-core box the same pass runs up to 35% slower a few
# minutes later, and where Frank-Wolfe stops moves a point's iteration count
# by +-30% under any input change, so across ten seeds wall_s spreads by
# 20-33% (IQR/median) and even time per iteration by 11-25%, beyond the
# largest bound the benchmark may set.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "bound_sum_bits": "bits",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dmrate.pipeline; print(time.perf_counter() - t)"
)


class SetupError(RuntimeError):
    """The run cannot start: no package source, or BLAS is not pinned."""


def pin_blas():
    """Call before anything loads numpy: the matrices are small, and
    multithreaded OpenBLAS makes each solve several times slower."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def load_dmrate():
    """Import dmrate from this checkout's src/ and nowhere else."""
    if not (SRC / "dmrate" / "__init__.py").is_file():
        raise SetupError(f"package source not found at {SRC / 'dmrate'}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"dmrate.{name}") for name in ("channel", "constraints", "detector", "pipeline", "solver")}
    origin = Path(mods["pipeline"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"dmrate was imported from {origin}, not from {SRC}")
    return argparse.Namespace(**mods)


def blas_threads() -> dict[str, int]:
    """Thread count of the OpenBLAS bundled with numpy and with scipy, read
    back through each copy's own getter (numpy's is the 64-bit-integer build)."""
    import numpy
    import scipy

    out = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        libs = sorted(libdir.glob("*openblas*"))
        if not libs:
            raise SetupError(f"no bundled OpenBLAS found in {libdir}")
        getter = getattr(ctypes.CDLL(str(libs[0])), symbol)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        out[pkg.__name__] = int(getter())
    if any(n != 1 for n in out.values()):
        raise SetupError(f"BLAS is not pinned to one thread: {out}")
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def model_inputs(dm, p: workloads.Point):
    ch = dm.channel.ChannelModel.from_distance(p.distance_km, workloads.XI)
    det = dm.detector.DetectorModel(*p.detector)
    pp = dm.channel.ProtocolParams(alpha=p.alpha, delta_a=p.delta_a, cutoff=p.cutoff)
    return ch, det, pp


def clear_artifact_cache(dm):
    for obj in vars(dm.pipeline).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def cold_build(dm, points) -> float:
    """Seconds to build every distinct artifact key of the workload from an
    empty cache; leaves the cache warm."""
    clear_artifact_cache(dm)
    seen = set()
    t0 = time.perf_counter()
    for p in points:
        if (p.delta_a, p.cutoff) not in seen:
            seen.add((p.delta_a, p.cutoff))
            _, det, pp = model_inputs(dm, p)
            dm.pipeline.point_artifacts(det, pp, p.mode)
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def solve_point(dm, p: workloads.Point):
    ch, det, pp = model_inputs(dm, p)
    if p.rates:
        return dm.pipeline.evaluate_point(ch, det, pp, p.mode)
    obs, maps = dm.pipeline.point_artifacts(det, pp, p.mode)
    stats = dm.channel.simulate_statistics(ch, det, pp)
    cs = dm.constraints.build_constraints(stats, obs, pp, p.mode)
    return dm.solver.solve(cs, maps)


def check_result(res) -> list[str]:
    """Invariants every certified point must satisfy."""
    problems = []
    if not res.certified:
        problems.append("not certified")
    if res.status not in ALLOWED_STATUS:
        problems.append(f"status {res.status}")
    if not (math.isfinite(res.lower_bound) and math.isfinite(res.rate) and res.rate >= 0.0):
        problems.append(f"non-finite or negative output (lower_bound {res.lower_bound}, rate {res.rate})")
    elif not res.lower_bound <= res.primal_value + ORDER_TOL:
        problems.append(f"lower_bound {res.lower_bound!r} > primal_value {res.primal_value!r}")
    if not res.constraint_residual <= RESIDUAL_TOL:
        problems.append(f"constraint residual {res.constraint_residual:.3e} > {RESIDUAL_TOL:g}")
    return problems


def run_pass(dm, points, tracer=None) -> tuple[float, list[dict]]:
    """One closed-loop pass: each point starts after the previous one ends."""
    records = []
    t_pass = time.perf_counter()
    for p in points:
        rec = {"index": p.index}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = solve_point(dm, p)
            else:
                tracer.point = p.index
                with tracer.span("point"):
                    res = solve_point(dm, p)
        except Exception:  # a point that raises is a failed point; keep going
            rec.update(seconds=time.perf_counter() - t0, problems=["raised: " + traceback.format_exc(limit=3)])
            records.append(rec)
            continue
        rec["seconds"] = time.perf_counter() - t0
        rec.update(
            status=str(res.status),
            fw_iters=int(res.iterations),
            lower_bound=float(res.lower_bound),
            rate=float(res.rate),
            primal_value=float(res.primal_value),
            constraint_residual=float(res.constraint_residual),
            certified=bool(res.certified),
            problems=check_result(res),
        )
        records.append(rec)
    if tracer is not None:
        tracer.point = None
    return time.perf_counter() - t_pass, records


def compare_reference(name: str, points, records, notes: list[str]):
    """Default seed only: certified values must match reference.json.
    Status and iteration counts differing is reported, never a failure."""
    ref = json.loads(REFERENCE.read_text())["workloads"][name]
    for p, rec, r in zip(points, records, ref):
        if "status" not in rec:
            continue
        if (p.distance_km, p.alpha, p.delta_a, p.cutoff) != (r["distance_km"], r["alpha"], r["delta_a"], r["cutoff"]):
            rec["problems"].append("inputs differ from reference.json")
            continue
        # An early rate_zero exit leaves a loose bound by design; only its
        # rate (zero) is compared.
        if "rate_zero" not in (rec["status"], r["status"]) and abs(rec["lower_bound"] - r["lower_bound"]) > REFERENCE_TOL:
            rec["problems"].append(f"lower_bound {rec['lower_bound']!r} vs reference {r['lower_bound']!r}")
        if abs(rec["rate"] - r["rate"]) > REFERENCE_TOL:
            rec["problems"].append(f"rate {rec['rate']!r} vs reference {r['rate']!r}")
        for key in ("status", "fw_iters", "ipm_iters"):
            if key in rec and rec[key] != r[key]:
                notes.append(f"point {p.index}: {key} {rec[key]} (reference {r[key]})")


def ipm_iters_by_point(spans_list) -> dict[int, int]:
    out: dict[int, int] = {}
    for s in spans_list:
        if s.name == "sdp.solve_sdp" and s.point is not None:
            out[s.point] = out.get(s.point, 0) + s.attrs.get("iterations", 0)
    return out


def timed_passes(dm, points, seconds: float) -> tuple[list[float], list[list[dict]]]:
    walls, passes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        wall, records = run_pass(dm, points)
        walls.append(wall)
        passes.append(records)
    return walls, passes


def end_to_end_metrics(passes, setup_s) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_sum_bits": sum(
            r["lower_bound"] for r in passes[0] if not r["problems"] and r["status"] != "rate_zero"
        ),
    }


def printed_metrics(w, walls, passes, failed, attempted) -> list[tuple[str, float, str]]:
    """Metrics printed for reading but not gated: run time (see END_TO_END),
    failed_frac (0 on a correct run; the result line carries failed and
    attempted) and rate_sum_bits (not defined on every workload)."""
    per_point = [statistics.median(pas[i]["seconds"] for pas in passes) for i in range(len(passes[0]))]
    fw_iters = sum(r.get("fw_iters", 0) for r in passes[0])
    out = [
        ("wall_s", statistics.median(walls), "s"),
        ("point_s_p50", statistics.median(per_point), "s"),
        ("fw_iters", fw_iters, "count"),
        ("fw_iter_ms", 1000.0 * statistics.median(walls) / max(fw_iters, 1), "ms"),
        ("failed_frac", failed / attempted, "ratio"),
    ]
    if w.rates:
        out.append(("rate_sum_bits", sum(r["rate"] for r in passes[0] if not r["problems"]), "bits"))
    return out


def same_outputs(a: dict, b: dict) -> bool:
    keys = ("status", "fw_iters", "lower_bound", "rate", "primal_value", "constraint_residual")
    return all(a.get(k) == b.get(k) for k in keys)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_blas()
    try:
        t0 = time.perf_counter()
        dm = load_dmrate()
        first_import_s = time.perf_counter() - t0
        env = environment()
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    points = workloads.generate(args.workload, args.seed)
    w = workloads.WORKLOADS[args.workload]
    print(f"workload {w.name}: {len(points)} points, closed loop, 1 client; seed {args.seed}")
    print("env " + json.dumps(env))
    for p in points:
        print(f"  input {p.index}: {p.mode} d={p.distance_km:.4f} km alpha={p.alpha:.5f} delta_a={p.delta_a} cutoff={p.cutoff}")

    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env,
              "first_import_s": first_import_s, "inputs": [p.as_dict() for p in points]}
    notes: list[str] = []
    if args.trace:
        cold_build(dm, points)
        walls, passes = timed_passes(dm, points, args.seconds)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            with tracer.span("setup"):
                cold_build(dm, points)
            traced_wall, traced = run_pass(dm, points, tracer)
        for rec, untraced in zip(traced, passes[0]):
            if not same_outputs(rec, untraced):
                rec["problems"].append("traced output differs from untraced")
        for i, n in ipm_iters_by_point(tracer.spans).items():
            traced[i]["ipm_iters"] = n
        passes.append(traced)
        metrics = spans.layer_metrics(tracer.spans, traced_wall - statistics.median(walls))
        units = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{w.name}-seed{args.seed}.json").write_text(
            json.dumps([s.as_dict() for s in tracer.spans])
        )
    else:
        # Set-up as a user pays it: a fresh import plus cold artifacts,
        # repeated and reported as the median.
        setups = [import_seconds() + cold_build(dm, points) for _ in range(SETUP_REPEATS)]
        walls, passes = timed_passes(dm, points, args.seconds)
        metrics = end_to_end_metrics(passes, statistics.median(setups))
        units = END_TO_END
        detail["setup_samples_s"] = setups

    if args.seed == workloads.DEFAULT_SEED:
        for records in passes:
            compare_reference(w.name, points, records, notes)

    attempted = sum(len(r) for r in passes)
    failed = sum(bool(rec["problems"]) for r in passes for rec in r)
    detail.update(pass_walls_s=walls, passes=passes, notes=notes, metrics=metrics)

    for rec in passes[-1]:
        if "status" in rec:
            rate = f" rate={rec['rate']:.9f}" if w.rates else ""
            print(f"  point {rec['index']}: {rec['status']} fw={rec['fw_iters']} "
                  f"lower_bound={rec['lower_bound']:.9f}{rate} {rec['seconds']:.3f} s")
    for records in passes:
        for rec in records:
            for problem in rec["problems"]:
                print(f"  FAILED point {rec['index']}: {problem}")
    for note in sorted(set(notes)):
        print(f"  note: {note}")
    print(f"passes {len(walls)} untraced" + (" + 1 traced" if args.trace else ""))
    shown = [(name, value, units[name]) for name, value in metrics.items()]
    shown += printed_metrics(w, walls, passes[: len(walls)], failed, attempted)
    for name, value, unit in shown:
        print(f"{name} {value:.9g} {unit}")
    detail["printed_metrics"] = {name: value for name, value, _ in shown}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
