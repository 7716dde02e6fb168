"""CLI tour: every shipped problem file, plus the error exit codes.

Runs `python3 -m valknaf.cli` from the repository root on each file in
demos/problems, echoing the command, its output and the exit code, then
demonstrates the three nonzero exit codes on crafted inputs (usage/syntax
-> 1, inconsistent data or unsupported input -> 2, unresolved depth -> 3).
A crafted problem is fed on stdin (`--file -`), so the tour writes no file
and prints the same text on every run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = Path("demos") / "problems"

MODE_BY_PREFIX = {"split": "split", "group": "group", "binomial": "binomial",
                  "decide": "decide"}


def run(args, stdin=None, note=""):
    cmd = [sys.executable, "-m", "valknaf.cli"] + args
    stdin_note = f"  # stdin: {note}" if note else ""
    print(f"$ valknaf {' '.join(args)}{stdin_note}")
    proc = subprocess.run(cmd, cwd=ROOT, input=stdin, capture_output=True,
                          text=True)
    for stream in (proc.stdout, proc.stderr):
        for line in stream.rstrip().splitlines():
            print(f"  {line}")
    print(f"  (exit {proc.returncode})")
    print()
    return proc.returncode


for prob in sorted((ROOT / PROBLEMS).glob("*.prob")):
    mode = MODE_BY_PREFIX[prob.name.split("-", 1)[0]]
    assert run([mode, "--file", str(PROBLEMS / prob.name)]) == 0

print("== the fixtures catalog, by name ==")
assert run(["fixtures", "monomial-sqrt-xy"]) == 0
assert run(["decide", "frobenius-abhyankar", "--porcelain"]) == 0

print("== exit codes on bad inputs ==")
bad = ("version = 1\nmode = split\n\n[base]\nfield = Q\np = 1//2\n\n"
       "[polynomial]\ncoeffs = [1, 0, 1]\n")
assert run(["split", "--file", "-"], bad, "x^2 + 1 with p = 1//2") == 1
assert run(["decide", "no-such-fixture"]) == 1
sqrt_x = (ROOT / PROBLEMS / "binomial-sqrt-x.prob").read_text()
# z^5 = x over GF(5): char k divides n, and the binomial is still answered
assert run(["binomial", "--file", "-", "--porcelain"],
           sqrt_x.replace("n = 2", "n = 5"), "binomial-sqrt-x with n = 5") == 0
# z^2 = 4 x^2 = (2x)^2 is reducible: inconsistent data
assert run(["binomial", "--file", "-"],
           sqrt_x.replace("a = 1", "a = 2").replace("c = 1", "c = 4"),
           "binomial-sqrt-x with a = 2, c = 4") == 2
assert run(["split", "--file", str(PROBLEMS / "split-wild-quartic.prob"),
            "--depth", "1"]) == 3
print("all exit codes as documented")
