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
    assert run([mode, "--file", str(prob)]) == 0

print("== the fixtures catalog, by name ==")
assert run(["fixtures", "monomial-sqrt-xy"]) == 0
assert run(["decide", "frobenius-abhyankar", "--porcelain"]) == 0

print("== exit codes on bad inputs ==")


def write(name, text):
    path = Path(scratch) / name
    path.write_text(text)
    return str(path)


with tempfile.TemporaryDirectory() as scratch:
    bad = write("bad.prob", "version = 1\nmode = split\n\n[base]\n"
                "field = Q\np = 1//2\n\n[polynomial]\ncoeffs = [1, 0, 1]\n")
    assert run(["split", "--file", bad]) == 1
    assert run(["decide", "no-such-fixture"]) == 1
    sqrt_x = (PROBLEMS / "binomial-sqrt-x.prob").read_text()
    # z^5 = x over GF(5): char k divides n, and the binomial is still answered
    wild = write("wild.prob", sqrt_x.replace("n = 2", "n = 5"))
    assert run(["binomial", "--file", wild, "--porcelain"]) == 0
    # z^2 = 4 x^2 = (2x)^2 is reducible: inconsistent data
    square = write("square.prob", sqrt_x.replace("a = 1", "a = 2")
                   .replace("c = 1", "c = 4"))
    assert run(["binomial", "--file", square]) == 2
assert run(["split", "--file",
            str(PROBLEMS / "split-wild-quartic.prob"), "--depth", "1"]) == 3
print("all exit codes as documented")
