"""Run perfbench on a parent commit and on this checkout, seed by seed, and
write the paired result as a BENCH_<n>.json file.

    python3 tools/bench_pair.py --parent HEAD --change "what changed" --out BENCH_22.json

Both sides run from sibling directories of one temporary directory, so that
neither runs from a different place than the other: the parent unpacked
from `git archive` of the parent revision, and the change from `git archive`
of `git stash create`, which snapshots the checkout's tracked files with
their uncommitted edits (of HEAD when there are none; untracked files are
left out).  This leaves the repository's worktree list and stash untouched.
The change's perfbench/ is copied over the parent's, so both sides run the
same harness on their own src/.  For each workload and each of the
seeds 1 to 10 the two sides run back to back, one run at a time, the change
first on odd seeds, for BENCHMARK.json's run_seconds (30):

    python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0

The last line of each run's standard output is its JSON result.  Each
end-to-end metric of BENCHMARK.json gets the per-seed values, the medians
and quartiles of both sides (inclusive method), the pairs the change won
(strictly better by the metric's direction), the change of the medians
in percent, and `past_bound`: true when the change's median is worse than
the parent's by more than the metric's `bound`, a fraction of the parent's
median, so the file says by itself whether anything regressed.  A change
that claims a gain names its workload and metric with
`--claim WORKLOAD/METRIC` (say `--claim oracle_count/wall_s`), which the file
records as its claim, `{"workload": ..., "metric": ...}`; without it the
claim is null.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unpack(revision: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarise(runs: dict[str, list[dict]], name: str, better: str, bound: float) -> dict:
    parent = [r["metrics"][name]["value"] for r in runs["parent"]]
    change = [r["metrics"][name]["value"] for r in runs["change"]]
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med if better == "lower" else p_med - c_med) / p_med
    return {
        "parent_median": round(p_med, 4), "parent_quartiles": quartiles(parent),
        "change_median": round(c_med, 4), "change_quartiles": quartiles(change),
        "pairs_won": won, "change_pct": round(100 * (c_med - p_med) / p_med, 1),
        "past_bound": worse > bound,
        "per_seed": [[round(p, 4), round(c, 4)] for p, c in zip(parent, change)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent, e.g. HEAD or HEAD~1")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="the workload and end-to-end metric on which the change claims a gain")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in {w["name"] for w in spec["workloads"]} or \
                metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim must name a workload and an end-to-end metric of BENCHMARK.json,"
                         f" got {args.claim!r}")
        claim = {"workload": workload, "metric": metric}
    seconds = spec["run_seconds"]
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seeds = list(range(1, SEEDS + 1))
    workloads = {}
    snapshot = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip() or "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        unpack(args.parent, parent)
        unpack(snapshot, change)
        shutil.rmtree(parent / "perfbench", ignore_errors=True)
        shutil.copytree(change / "perfbench", parent / "perfbench")
        for w in spec["workloads"]:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed in seeds:
                order = ("change", "parent") if seed % 2 else ("parent", "change")
                for side in order:
                    runs[side].append(run(change if side == "change" else parent, w["name"], seed, seconds))
                    print(f"{w['name']} seed {seed} {side} done", file=sys.stderr)
            workloads[w["name"]] = {
                "seeds": seeds,
                "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                "metrics": {name: summarise(runs, name, *rule) for name, rule in rules.items()},
            }
    out = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
        "pairing": "parent and change run back to back per seed, the change first on odd seeds and the"
                   " parent first on even seeds; each side unpacked by git archive into a sibling temporary"
                   " directory (the change from git stash create), the parent with the change's perfbench/",
        "machine": f"{os.cpu_count()} vCPU, Python {platform.python_version()};"
                   " times are seconds at perfbench's reference speed",
        "quartiles": "inclusive method over the per-seed values; pairs_won counts seeds where the change"
                     " is better, ties for neither; per_seed lists [parent, change]",
        "claim": claim,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
