"""valknaf benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  `--trace 0` measures the end-to-end metrics:

- setup_s: time of a fresh `python3 -c "... import valknaf"` (sympy
  included) from its spawn, median of SETUP_RUNS after one untimed import
  that compiles the bytecode;
- items_per_s, item_p50_ms, item_p90_ms: a closed loop, in a fresh
  interpreter, over the whole blocks of the workload's problem stream that
  take S seconds on the reference machine (see worker.py);
- peak_rss_mb: ru_maxrss of that interpreter.

Times are wall times scaled to the reference machine by calibrate.py, which
divides out the host's speed measured next to each timed interval; the
readable lines also give the unscaled figures and the host time factor.

`--trace 1` reports the per-layer metrics of tracer.py instead.  Failed
items are reported as `failed` over `attempted` (failed_ratio on the
readable lines; it is 0 at the seed commit, so it is not a metric with a
relative bound); every line before the last is for people.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from generate import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
# reference samples a child takes before and after its import
SETUP_SAMPLES = 40
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}
WORKER_TIMEOUT_S = 150


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_seconds() -> tuple:
    """Median scaled and unscaled seconds of a fresh `import valknaf`.

    Each child samples the reference computation right before and right
    after the import (see calibrate.py); the time measured is from the
    spawn to the child's first statement plus the import itself.
    """
    child = (calibrate.sampler_source()
             + "entered = time.perf_counter()\n"
             + f"before = samples({SETUP_SAMPLES})\n"
             + "start = time.perf_counter()\n"
             + "import valknaf\n"
             + "end = time.perf_counter()\n"
             + f"print(repr((entered, start, end, before + samples({SETUP_SAMPLES}))))\n")
    command = [sys.executable, "-c", child]
    subprocess.run(command, cwd=ROOT, env=_env(), check=True, timeout=20,
                   stdout=subprocess.DEVNULL)
    scaled, unscaled = [], []
    for _ in range(SETUP_RUNS):
        spawned = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=_env(), check=True,
                              timeout=20, stdout=subprocess.PIPE, text=True)
        entered, start, end, durations = ast.literal_eval(done.stdout.strip())
        seconds = (entered - spawned) + (end - start)
        unscaled.append(seconds)
        scaled.append(seconds / calibrate.speed_of(durations))
    return statistics.median(scaled), statistics.median(unscaled)


def run_worker(workload, seed, seconds, trace) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, env=_env(), check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace) -> dict:
    """The result object for one workload, after printing a readable report."""
    setup, setup_raw = (None, None) if trace else setup_seconds()
    result = run_worker(workload, seed, seconds, trace)
    failed, attempted = result["failed"], result["attempted"]
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["metrics"].items()}
        notes = {}
    else:
        result["setup_s"] = setup
        result["unscaled"]["setup_s"] = setup_raw
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        notes = {"setup_s": f"median of {SETUP_RUNS} imports",
                 "item_p50_ms": f"{attempted} calls",
                 "item_p90_ms": f"{attempted} calls"}
        for name, value in result["unscaled"].items():
            notes[name] = "; ".join(filter(None, (notes.get(name),
                                                  f"unscaled {value:.6g}")))
    print(f"# {workload} seed={seed} trace={trace}: {attempted} items, "
          f"{result['golden_items']} with a golden record")
    for name, metric in metrics.items():
        print(f"#   {name:34s} {metric['value']:>14.6g} {metric['unit']:5s} "
              f"{notes.get(name, '')}".rstrip())
    if not trace:
        speed = result["speed"]
        print(f"#   {'host time factor':34s} {speed['median']:>14.6g} ratio "
              f"median of {speed['samples']} reference samples")
    print(f"#   {'failed_ratio':34s} {failed / attempted:>14.6g} ratio "
          f"{failed}/{attempted}")
    for failure in result["failures"]:
        print(f"#   FAILED {json.dumps(failure)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_factor", "_per_extend")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valknaf" / "__init__.py").is_file():
        print(f"error: no valknaf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 args.trace)), flush=True)
        return 0
    results = {w: measure(w, args.seed, args.seconds, args.trace)
               for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
