"""Porcelain output of every shipped demo problem and fixture, byte for byte.

`golden/porcelain.json` maps each run of `porcelain_runs()` to its exit code
and stdout.  It was recorded before the integral rationals of `poly.QQ`
became `int`, and is compared exactly, so an arithmetic change that moves a
row or a certificate character fails here.
"""

import contextlib
import io
import json
from pathlib import Path

from valknaf import cli
from valknaf.fixtures import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "porcelain.json"


def porcelain_runs() -> dict:
    """name -> {"exit": code, "stdout": text} for every demo problem file
    and for `decide` of every fixture."""
    runs = {}
    for path in sorted((ROOT / "demos" / "problems").glob("*.prob")):
        mode = path.name.split("-", 1)[0]
        runs[path.name] = [mode, "--file", str(path), "--porcelain"]
    for fx in FIXTURES:
        runs[f"decide {fx.name}"] = ["decide", fx.name, "--porcelain"]
    results = {}
    for name, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results[name] = {"exit": code, "stdout": out.getvalue()}
    return results


def test_demo_and_fixture_porcelain_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert porcelain_runs() == golden


if __name__ == "__main__":
    # python tests/test_porcelain_golden.py > tests/golden/porcelain.json
    print(json.dumps(porcelain_runs(), indent=1, sort_keys=True))
