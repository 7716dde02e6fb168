"""Design guards: the checks that read the repository rather than run it.

`GUARDS` holds one row per pattern that must not appear in the library
source: its regex (Python `re`, searched line by line), the files it
scans (a glob from the repository root, less one file name it exempts) and
the design fact it pins.  A new guard is one more row.  The tests after it
pin that the fixture catalog is data, that every name the benchmark tracer
and worker look up resolves, that every committed `BENCH_*.json` holds
every end-to-end metric, and that both demos run and clean up after
themselves.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "valknaf"


class Guard(NamedTuple):
    name: str
    pattern: str
    files: str
    exclude: Optional[str]
    reason: str


LIBRARY = "src/valknaf/*.py"

GUARDS = (
    Guard("one-residue-extension",
          r"row_reduce|embed_prev|resfield|def z_up", LIBRARY, None,
          "a level keeps one ResidueExtension and the images of z_1..z_i; "
          "linear_decomposer inverts its basis by Gauss-Jordan mod p, and "
          "the general row echelon form lives on only in tests/oracles.py"),
    Guard("lift-key-builds-no-rho",
          r"power\(F, ext\.root", "src/valknaf/inductive.py", None,
          "lift_key lifts u * psi_t from the level's psi; building "
          "rho = -u * z^f would send it back through decompose"),
    Guard("walk-sorts-nothing",
          r"\.sort\(|sort_key\(", "src/valknaf/localsplit.py", None,
          "_explore appends each factor as it finds it; the walk sorts "
          "nothing, and one Tower.line_residual serves segments and classes"),
    Guard("one-newton-polygon",
          r"mu_units|canonical_exps|line_residual|\.levels|\.grade\("
          r"|def _lower_hull|def _segment_residual",
          "src/valknaf/localsplit.py", None,
          "Tower.edges grades the digits once and gives each edge with its "
          "residual polynomial to the MacLane walk and to newton_polygon and "
          "residual_polynomial; localsplit reads no tower value units"),
    Guard("tables-tabulate-linear-maps",
          r"for a in range\(lo\)|range\(q // lo\)", "src/valknaf/gf.py", None,
          "gf._log_tables builds x -> x^p and x -> x g from the images of a "
          "basis; tables filled by one kernel product per entry live on "
          "only as the reference in tests/oracles.py"),
    Guard("one-remainder-loop",
          r"divmod\(f, phi\)", "src/valknaf/inductive.py", None,
          "poly._preduce is the one division loop, reducing in place; "
          "phi_expansion divides coefficient lists, not Polys"),
    Guard("no-berlekamp-kernel",
          r"_frobenius_kernel|_equal_degree_split", LIBRARY, None,
          "gf factors by distinct degrees and one equal-degree splitter; "
          "Berlekamp's kernel lives on only as the oracle in "
          "tests/oracles.py"),
    Guard("wild-binomials-answered",
          r"WildBinomialError", LIBRARY, None,
          "an irreducible binomial with char k | n has e = n/g, f = g and "
          "d = 1 by the same code path as a tame one; there is no refusal"),
    Guard("no-argparse",
          r"argparse", LIBRARY, None,
          "cli reads its command line from its own table; the argparse "
          "parser it replaced lives on as the reference in tests/oracles.py"),
    Guard("gfelement-stays-in-gf",
          r"\b(GFElement|_element\()", LIBRARY, "gf.py",
          "the engine computes on element codes; the printable wrapper and "
          "its constructor belong to src/valknaf/gf.py alone"),
    Guard("power-and-printer-in-poly",
          r'e >>= 1|" \+ "\.join', LIBRARY, "poly.py",
          "poly._power and poly.render_terms serve every field adapter"),
    Guard("one-gfelement-constructor",
          r"object\.__new__|\.__set__\b", "src/valknaf/gf.py", None,
          "a GFElement, also an operator's result, builds through "
          "__init__"),
    Guard("one-horner-in-poly",
          r"acc = add\(mul\(acc", LIBRARY, "poly.py",
          "Poly.__call__ is the one Horner loop, which gf.embed calls"),
    Guard("one-polynomial-arithmetic",
          r"elem_key|sort_key|from_coeff_lists|def (x|t)_derivative",
          LIBRARY, None,
          "a field adapter is its ops, coerce and render: factors sort by "
          "(degree, coefficients), d/dx is poly._derivative, and coerce is "
          "the one way into k(t)"),
)


def scope(guard: Guard) -> list:
    return sorted(p for p in ROOT.glob(guard.files) if p.name != guard.exclude)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_guard(guard):
    regex = re.compile(guard.pattern)
    hits = [f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
            for path in scope(guard)
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)]
    assert not hits, "\n".join(hits + [guard.reason])


def test_guards_are_not_vacuous():
    # a pattern that does not compile or a scope that matches no file would
    # let its guard pass without reading anything
    for guard in GUARDS:
        re.compile(guard.pattern)
        assert scope(guard), f"{guard.name}: no file matches {guard.files}"


def test_fixture_catalog_is_data():
    # a fixture is decided by reading its problem file through
    # problemfile.problem_invariants, never by engine calls of its own
    engines = {"localsplit", "monoval", "gf", "raminv"}
    tree = ast.parse((SRC / "fixtures.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(p for a in node.names for p in a.name.split("."))
    assert not names & engines, (
        f"src/valknaf/fixtures.py imports {sorted(names & engines)}")


def test_benchmark_lookups_resolve():
    # perfbench/tracer.py wraps these names and perfbench/worker.py clears
    # these caches; the tracer is loaded by path and only read
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, qualname, *_ in tracer.CALLS + tracer.ELEMENT_OPS:
        tracer._resolve(layer, qualname)
    from valknaf import funcfield, gf
    assert callable(gf.GF.cache_clear)
    assert callable(gf._embedding_root.cache_clear)
    assert isinstance(funcfield.FunctionField._cache, dict)


def test_committed_benchmark_results_are_complete():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_*.json at the repository root"
    workloads = ("qp_split", "ft_split", "wide_residue", "lex_decide")
    metrics = ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms",
               "peak_rss_mb")
    missing = []
    for path in files:
        runs = json.loads(path.read_text()).get("runs", {})
        for side in ("parent", "change"):
            if not runs.get(side):
                missing.append(f"{path.name}: no {side} runs")
            for i, run in enumerate(runs.get(side) or []):
                missing += [f"{path.name}: {side} run {i} lacks {w}.{m}"
                            for w in workloads for m in metrics
                            if f"{w}.{m}" not in run.get("metrics", {})]
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs_and_leaves_tmpdir_empty(demo, tmp_path):
    # the CLI tour writes its problem files in one temporary directory and
    # removes it; a fresh TMPDIR must be left empty
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())
