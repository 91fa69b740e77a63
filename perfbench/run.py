"""hecke2d benchmark: checked products per second, per-op latency, set-up cost.

Usage (from the repository root):

    python3 perfbench/run.py --workload oracle_count --seed 0 --seconds 30 --trace 0

Each run starts sessions (fresh interpreters, see session.py) one after
another: a few that only set up, then whole passes over seeded op lists
until ``--seconds`` is used up, at least three passes.  Pass k draws its
inputs from (seed, k), so a run samples several input sets of one shape.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced passes and prints the per-layer metrics, the tracing overhead,
whether the traced and untraced outputs hash the same, the negative control
and the layer baselines.  The last line of standard output is one JSON
object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
WORKLOADS = ("oracle_count", "algebra_products", "cli_session")

MIN_PASSES = 3
SETUP_SESSIONS = 3
SESSION_TIMEOUT_S = 150
RUN_LIMIT_S = 120  # no new session starts after this, so a run ends within 180 s

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: per-layer units, by the last part of the metric name
LAYER_UNITS = {"calls": "count", "count": "count", "self_s": "s", "busy_s": "s", "s": "s",
               "hits": "count", "misses": "count", "spans": "count", "digest_match": "count",
               "hit_ratio": "ratio", "error_rate": "ratio", "share": "ratio", "overhead_s": "s",
               "nonassoc_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def session(mode: str, workload: str, seed: int, index: int = 0) -> dict:
    """Run one session; pass number index of a run draws its inputs from (seed, index)."""
    spec = json.dumps({"mode": mode, "workload": workload, "seed": f"{seed}:{index}"})
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(SESSION), spec],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} session ran past {SESSION_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} session exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(modes: tuple[str, ...], workload: str, seed: int, seconds: float, minimum: int) -> list[list[dict]]:
    """Run the sessions in modes, as a group, until seconds are used up."""
    groups: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        groups.append([session(m, workload, seed, len(groups)) for m in modes])
        now, last = time.perf_counter(), time.perf_counter() - t
        if now - start + last > RUN_LIMIT_S:
            break
        if len(groups) >= minimum and now - start + last > seconds:
            break
    return groups


def _summed(passes: list[dict], key: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for p in passes:
        for kind, n in p[key].items():
            out[kind] = out.get(kind, 0) + n
    return out


def tally(passes: list[dict]) -> tuple[int, dict[str, int], list[str]]:
    """Attempted ops, failures by kind, and reasons the run is not correct."""
    attempted = sum(p["attempted"] for p in passes)
    failures = _summed(passes, "failures")
    problems = [f"{n} failed {kind} ops" for kind, n in failures.items()]
    return attempted, failures, problems


def nonassoc(passes: list[dict]) -> tuple[int, int]:
    """Triples that did not associate (acceptance criterion 3), and all triples."""
    return (sum(p["defects"].get("assoc", 0) for p in passes),
            sum(p["kinds"].get("assoc", 0) for p in passes))


def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    """Times are at the reference speed (see session.run_ops), except peak RSS."""
    times = [t for p in passes for t in p["ref_times"]]
    return {
        "setup_s": statistics.median(s["setup_s"] / s["setup_slowdown"] for s in setups + passes),
        "wall_s": statistics.median(p["wall_s"] / p["slowdown"] for p in passes),
        "checks_per_s": statistics.median(p["attempted"] * p["slowdown"] / p["wall_s"] for p in passes),
        "check_p50_ms": 1e3 * statistics.median(times),
        "check_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    setups = [session("setup", workload, seed, k) for k in range(SETUP_SESSIONS)]
    passes = [g[0] for g in repeat(("pass",), workload, seed, seconds, MIN_PASSES)]
    attempted, failures, problems = tally(passes)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(setups, passes).items()}
    failed = sum(failures.values())
    print(f"{workload} seed {seed}: {len(passes)} passes of {passes[0]['attempted']} ops,"
          f" {attempted} samples, sessions {len(setups) + len(passes)}")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    raw = ", ".join(f"{p['wall_s']:.3f}/{p['slowdown']:.3f}" for p in passes)
    print(f"  passes' raw wall_s / slowdown: {raw}")
    cache = ", ".join(f"{p['basis_cache']['hits']}/{p['basis_cache']['misses']}" for p in passes)
    print(f"  passes' _basis_product cache hits / misses: {cache}")
    by_kind = ", ".join(f"{k} {n} of {sum(p['kinds'][k] for p in passes)}" for k, n in failures.items())
    print(f"  {'error_rate':<14} {failed / attempted:.6g} ratio ({failed} of {attempted};"
          f" failed by kind: {by_kind or 'none'})")
    bad, triples = nonassoc(passes)
    if triples:
        print(f"  known defect: {bad} of {triples} associativity triples do not associate"
              f" (acceptance criterion 3); they are not failed ops")
    return _result(problems, attempted, failed, metrics)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    pairs = repeat(("traced", "pass"), workload, seed, seconds, 1)
    traced, plain = [p[0] for p in pairs], [p[1] for p in pairs]
    attempted, failures, problems = tally(traced + plain)
    control = session("control", workload, seed)
    baseline = session("baseline", workload, seed)["metrics"]
    layers = {k: statistics.mean(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] / t["slowdown"] - p["wall_s"] / p["slowdown"] for t, p in pairs
    )
    matched = all(t["digest"] == p["digest"] for t, p in zip(traced, plain))
    layers["trace.digest_match"] = int(matched)
    if not matched:
        problems.append("traced and untraced passes over the same inputs gave different outputs")
    control_failed = sum(control["failures"].values())
    layers["control.error_rate"] = control_failed / control["attempted"]
    bad, triples = nonassoc(traced)
    layers["product.assoc.nonassoc_ratio"] = bad / triples if triples else 0.0
    layers.update(baseline)
    if not control_failed:
        problems.append("the perturbed table passed every check: the checks are not live")
    metrics = {k: {"value": v, "unit": LAYER_UNITS[_unit_key(k)]} for k, v in layers.items()}
    failed = sum(failures.values())
    print(f"{workload} seed {seed}: {len(pairs)} traced and untraced pass pairs of"
          f" {traced[0]['attempted']} ops; spans written to .perfbench_out/{workload}.spans")
    print(f"  trace overhead {layers['trace.overhead_s']:.4g} s, digests match:"
          f" {bool(layers['trace.digest_match'])}, control error_rate"
          f" {layers['control.error_rate']:.4g} ({control_failed} of {control['attempted']})")
    shares = ", ".join(f"{k[6:]} {100 * v:.1f}%" for k, v in layers.items() if k.startswith("share."))
    print(f"  self-time shares of the loop: {shares}")
    return _result(problems, attempted, failed, metrics)


def _unit_key(name: str) -> str:
    return "share" if name.startswith("share.") else name.rsplit(".", 1)[1]


def _result(problems, attempted, failed, metrics) -> dict:
    for p in problems:
        print(f"  NOT CORRECT: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hecke2d" / "__init__.py").is_file():
        print(f"error: no hecke2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    try:
        result = run(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
