"""CLI tour: every shipped problem file, plus the error exit codes.

Runs `python3 -m valknaf.cli` on each file in demos/problems, echoing the
command, its output and the exit code, then demonstrates the three nonzero
exit codes on crafted inputs (usage/syntax -> 1, inconsistent data or
unsupported input -> 2, unresolved depth -> 3).
"""

import subprocess
import sys
import tempfile
from pathlib import Path

PROBLEMS = Path(__file__).parent / "problems"

MODE_BY_PREFIX = {"split": "split", "group": "group", "binomial": "binomial",
                  "decide": "decide"}


def run(args):
    cmd = [sys.executable, "-m", "valknaf.cli"] + args
    print(f"$ valknaf {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for stream in (proc.stdout, proc.stderr):
        for line in stream.rstrip().splitlines():
            print(f"  {line}")
    print(f"  (exit {proc.returncode})")
    print()
    return proc.returncode


for prob in sorted(PROBLEMS.glob("*.prob")):
    mode = MODE_BY_PREFIX[prob.name.split("-", 1)[0]]
    run([mode, "--file", str(prob)])

print("== the fixtures catalog, by name ==")
run(["fixtures", "monomial-sqrt-xy"])
run(["decide", "frobenius-abhyankar", "--porcelain"])

print("== exit codes on bad inputs ==")
with tempfile.NamedTemporaryFile("w", suffix=".prob", delete=False) as handle:
    handle.write("version = 1\nmode = split\n\n[base]\nfield = Q\n"
                 "p = 1//2\n\n[polynomial]\ncoeffs = [1, 0, 1]\n")
    bad = handle.name
assert run(["split", "--file", bad]) == 1
assert run(["decide", "no-such-fixture"]) == 1
wild = PROBLEMS / "binomial-sqrt-x.prob"
text = wild.read_text().replace("n = 2", "n = 5")
with tempfile.NamedTemporaryFile("w", suffix=".prob", delete=False) as handle:
    handle.write(text)
assert run(["binomial", "--file", handle.name]) == 2
assert run(["split", "--file",
            str(PROBLEMS / "split-wild-quartic.prob"), "--depth", "1"]) == 3
print("all exit codes as documented")
