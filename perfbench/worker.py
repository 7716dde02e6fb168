"""One workload in a fresh interpreter: a closed loop over cli.main.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

One caller sends the next problem only after the previous call returned.
Each problem file is written before its call and fed to
`valknaf.cli.main([mode, "--file", path, "--porcelain", ...])`; only that
call is timed, and reference samples (calibrate.py) are taken between
calls to scale its time to the reference machine.  An item fails when an exception escapes the call, when its
answer breaks the invariants of `check`, or, for seeds with a golden
record, when its exit code or stdout differs from the record.  Prints one
JSON object on stdout.

With --trace 0 the loop runs the first whole blocks of the stream (see
generate.py), as many as take S seconds on the reference machine
(BLOCK_SECONDS), so every run does the same work with the same mix.  With
--trace 1 it runs a fixed prefix of the stream four times, caches cold
each time: untraced to warm up, untraced, with timing spans, and with
operation counters.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from itertools import chain, islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import generate  # noqa: E402

# Seconds one block takes on the reference machine (perfbench/record.json).
# A run of --seconds S does round(S / BLOCK_SECONDS) whole blocks, so every
# run, on every seed and every commit, does the same amount of work.
BLOCK_SECONDS = {"qp_split": 0.65, "ft_split": 5.0, "wide_residue": 2.9,
                 "lex_decide": 0.09}
# Blocks per traced run: each untraced pass takes a few seconds.
TRACE_BLOCKS = {"qp_split": 7, "ft_split": 2, "wide_residue": 2,
                "lex_decide": 30}


def import_program():
    """Import valknaf from this checkout and return (cli, cold_caches)."""
    import sympy.core.cache
    from valknaf import cli, funcfield, gf
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise ImportError(f"valknaf imported from {cli.__file__}, not {ROOT}")
    caches = (gf.GF, gf._embedding_root)

    def cold_caches():
        for cached in caches:
            cached.cache_clear()
        funcfield.FunctionField._cache.clear()
        sympy.core.cache.clear_cache()

    return cli, cold_caches


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def record(item, rc, out) -> list:
    """Golden entry: problem digest, mode, exit code, stdout digest."""
    return [digest(item.text), item.mode, rc, digest(out)]


def golden_path(workload: str, seed: int) -> Path:
    return HERE / "golden" / f"{workload}-seed{seed}.json"


def load_golden(workload: str, seed: int) -> list:
    path = golden_path(workload, seed)
    if not path.exists():
        return []
    return json.loads(path.read_text())["items"]


def _rows(out: str) -> list:
    return [dict(field.split("=", 1) for field in line.split("\t"))
            for line in out.splitlines()]


def check(item, rc, out) -> bool:
    """Checks that need no golden record.

    Rejections must carry the expected exit code and print nothing.  On
    success: split rows are defectless and their e*f*d sum to deg g;
    binomial rows sum to n; group and decide rows have eps <= e with e the
    generated lattice index, and decide rows e*f*d = local_degree.
    """
    expect = item.expect
    if rc != expect["exit"]:
        return False
    if rc != 0:
        return out == ""
    rows = _rows(out)
    if not rows:
        return False
    if any(int(r["eps"]) > int(r["e"]) for r in rows):
        return False
    if item.mode == "group":
        return all(int(r["e"]) == expect["index"] for r in rows)
    degrees = [int(r["e"]) * int(r["f"]) * int(r["d"]) for r in rows]
    if item.mode == "decide":
        return (all(int(r["e"]) == expect["index"] for r in rows)
                and degrees == [expect["local_degree"]] * len(rows))
    if item.mode == "split" and any(r["d"] != "1" for r in rows):
        return False
    return sum(degrees) == expect["degree"]


def call(cli, item, path):
    """Run one item; returns ((start, end), exit code or None, stdout, error)."""
    Path(path).write_text(item.text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(item.argv(path))
            finally:
                span = (start, time.perf_counter())
    except Exception as exc:  # an escaping exception fails the item
        return span, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return span, rc, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over items; collects latencies, records and failures.

    With a `calibrate.Clock`, reference samples are taken between items
    (never inside a timed call) and around the whole loop.
    """

    def __init__(self, cli, path, clock=None):
        self.cli, self.path, self.clock = cli, path, clock
        self.spans, self.latencies, self.records, self.failures = [], [], [], []

    def run(self, numbered_items, on_item=None):
        if self.clock:
            self.clock.sample(calibrate.MIN_SAMPLES)
        for index, item in numbered_items:
            if on_item:
                on_item(index)
            if self.clock:
                self.clock.tick()
            span, rc, out, err = call(self.cli, item, self.path)
            self.spans.append(span)
            self.latencies.append(span[1] - span[0])
            self.records.append(record(item, rc, out))
            if rc is None or not check(item, rc, out):
                self.failures.append({"index": index, "family": item.family,
                                      "exit": rc, "stderr": err.strip()[:300]})
        if self.clock:
            self.clock.sample(calibrate.MIN_SAMPLES)

    def compare(self, golden) -> None:
        """Fail every item whose record differs from the golden one."""
        for index, (got, want) in enumerate(zip(self.records, golden)):
            if got != want:
                self.failures.append({"index": index, "golden": want,
                                      "got": got})

    def failed(self) -> set:
        return {f["index"] for f in self.failures}


def first_blocks(workload, seed, count) -> list:
    """(index, item) pairs of the first count blocks of the stream."""
    blocks = islice(generate.blocks(workload, seed), count)
    return list(enumerate(chain.from_iterable(blocks)))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, cli, cold_caches, path) -> dict:
    count = max(1, round(args.seconds / BLOCK_SECONDS[args.workload]))
    clock = calibrate.Clock()
    loop = Loop(cli, path, clock)
    cold_caches()
    loop.run(first_blocks(args.workload, args.seed, count))
    # read before the golden record is loaded, which would add to it
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    golden = load_golden(args.workload, args.seed)
    loop.compare(golden)
    lat = [clock.scaled(*span) for span in loop.spans]
    raw = loop.latencies
    return {
        "golden_items": len(golden),
        "attempted": len(lat),
        "failed": len(loop.failed()),
        "failures": loop.failures[:10],
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * percentile(lat, 90),
        "peak_rss_mb": rss / 1024,
        "unscaled": {"items_per_s": len(raw) / sum(raw),
                     "item_p50_ms": 1000 * statistics.median(raw),
                     "item_p90_ms": 1000 * percentile(raw, 90)},
        "speed": {"samples": len(clock.durations),
                  "median": statistics.median(clock.durations) / calibrate.REFERENCE_S},
    }


def traced(args, cli, cold_caches, path) -> dict:
    import tracer
    items = first_blocks(args.workload, args.seed, TRACE_BLOCKS[args.workload])
    passes = {}
    # the first pass in a process runs slower; it only warms up
    for mode in ("warm-up", None, "time", "count"):
        loop = Loop(cli, path)
        cold_caches()
        with tracer.Tracer(None if mode == "warm-up" else mode) as tr:
            loop.run(items, on_item=tr.set_item)
        passes[mode] = (loop, tr)
    metrics = tracer.layer_metrics(passes["time"][1], passes["count"][1])
    metrics["trace.overhead_ratio"] = (sum(passes["time"][0].latencies)
                                       / sum(passes[None][0].latencies))
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    passes["time"][1].write_spans(
        out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    golden = load_golden(args.workload, args.seed)
    for loop, _ in passes.values():
        loop.compare(golden)
    failed = set().union(*(loop.failed() for loop, _ in passes.values()))
    return {"golden_items": len(golden), "attempted": len(items),
            "failed": len(failed),
            "failures": [f for loop, _ in passes.values()
                         for f in loop.failures][:10],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli, cold_caches = import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = str(Path(tmp) / "problem.txt")
        run = traced if args.trace else end_to_end
        result = run(args, cli, cold_caches, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
