"""Record the golden outputs of a workload's first items for one seed.

    python3 perfbench/record_golden.py --workload NAME --seed N --count C

Runs each item once through valknaf.cli.main and writes
perfbench/golden/NAME-seedN.json: one entry per item, [problem digest,
mode, exit code, stdout digest], digests being the first 12 hex digits of
SHA-256.  Record only from a commit whose answers are trusted.  Items that
raise or break the invariant checks are recorded as they are, reported on
stderr, and fail every benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import generate
import worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    cli, cold_caches = worker.import_program()
    cold_caches()
    entries = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=worker.ROOT) as tmp:
        path = str(Path(tmp) / "problem.txt")
        for item in generate.items(args.workload, args.seed, args.count):
            _, rc, out, err = worker.call(cli, item, path)
            if rc is None or not worker.check(item, rc, out):
                print(f"warning: item {len(entries)} ({item.family}) fails "
                      f"its checks: exit {rc}, {err.strip()}", file=sys.stderr)
            entries.append(worker.record(item, rc, out))
    target = worker.golden_path(args.workload, args.seed)
    target.parent.mkdir(exist_ok=True)
    header = json.dumps({"workload": args.workload, "seed": args.seed,
                         "entry": ["problem", "mode", "exit", "stdout"]})
    body = ",\n".join(json.dumps(e) for e in entries)
    target.write_text(f"{header[:-1]}, \"items\": [\n{body}\n]}}\n")
    print(f"{target}: {len(entries)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
