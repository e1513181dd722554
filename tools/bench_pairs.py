"""Alternating benchmark pairs of two checkouts, summarised as JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json

PARENT and CHANGE are source checkouts (e.g. `git archive` copies).  For each
seed N in SEEDS, and each workload in turn, one pair runs
`python3 bench/run.py --workload W --seed N --seconds SECONDS` in both trees:
odd seeds run PARENT first, even seeds CHANGE first.  The output gives each
end-to-end metric's by-seed values, median and quartiles per side, the pairs
where CHANGE read lower, and the median change in percent, with the
conditions of the runs: CPU count, Python version, PYTHONDONTWRITEBYTECODE,
and whether each tree held compiled bytecode before the runs began.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("jacobi_levels", "closure_probe", "maps_iso")
SEEDS = range(1, 11)
SECONDS = 30
METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def has_bytecode(tree: Path) -> bool:
    return any((tree / "src" / "blockalg" / "__pycache__").glob("*.pyc"))


def side(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "by_seed": [round(v, 5) for v in values]}


def summary(runs: dict) -> dict:
    parent, change = runs["parent"], runs["change"]
    out = {
        "correct_all": all(r["correct"] for r in parent + change),
        "failed_total": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted_total": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "runs": len(parent) + len(change),
    }
    for m in METRICS:
        a = [r["metrics"][m]["value"] for r in parent]
        b = [r["metrics"][m]["value"] for r in change]
        pa, pb = side(a), side(b)
        out[m] = {
            "unit": parent[0]["metrics"][m]["unit"],
            "parent": pa,
            "change": pb,
            "pairs_better": sum(y < x for x, y in zip(a, b)),
            "pairs": len(a),
            "median_change_pct": round(100 * (pb["median"] / pa["median"] - 1), 1),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args(argv)
    trees = {"parent": a.parent, "change": a.change}
    conditions = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_before_runs": {s: has_bytecode(t) for s, t in trees.items()},
    }
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for seed in SEEDS:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for w in WORKLOADS:
            for s in order:
                runs[w][s].append(run(trees[s], w, seed))
                print(f"seed {seed} {w} {s}: {runs[w][s][-1]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr, flush=True)
    result = {
        "what": "End-to-end benchmark metrics, parent commit -> this change",
        "script": "python3 tools/bench_pairs.py PARENT CHANGE --out FILE",
        "command": f"python3 bench/run.py --workload W --seed N --seconds {SECONDS}",
        "seeds": list(SEEDS),
        "order": "one pair per seed, run one after the other; odd seeds run the parent "
                 "first, even seeds the change first; seeds outer, workloads inner",
        "conditions": conditions,
        "stats": "median and quartiles (statistics.quantiles, n=4) over the seeds; "
                 "pairs_better counts seeds where the change is lower",
        "workloads": {w: summary(runs[w]) for w in WORKLOADS},
    }
    a.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
