"""The package namespace: each public name loads its module on first use.

Each check runs in a fresh interpreter, since the test session has long
since imported every module.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

# public name -> defining module
OWNERS = {name: module for module, names in {
    "ordgroup": ("LexGroup", "RationalVector", "initial_index", "initial_set",
                 "subgroup_index"),
    "raminv": ("ExtensionInvariants", "KnafVerdict", "defect",
               "frobenius_defect", "knaf_decide", "ramification_index",
               "validate"),
    "localsplit": ("BaseValuation", "LocalFactor", "UnresolvedBranchError",
                   "split_extensions", "to_extension_invariants"),
    "monoval": ("BinomialExtensionSpec", "MonomialValuation",
                "ResidualDegreeError", "extend_binomial"),
    "problemfile": ("ProblemFile", "ProblemFileError", "parse_problem",
                    "serialize"),
    "fixtures": ("FIXTURES", "Fixture", "fixture"),
}.items() for name in names}


def run_child(script):
    """Run `script` in a fresh interpreter with src/ on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule():
    out = run_child("""
        import sys
        import valknaf
        print(sorted(m for m in sys.modules if m.startswith("valknaf.")))
        """)
    assert out == "[]\n"


def test_all_names_are_their_modules_attributes():
    run_child(f"""
        import importlib
        import valknaf
        owners = {OWNERS!r}
        assert len(owners) == 28
        assert set(valknaf.__all__) == set(owners), valknaf.__all__
        for name, module in owners.items():
            defining = importlib.import_module("valknaf." + module)
            assert getattr(valknaf, name) is getattr(defining, name), name
        """)


def test_dir_and_star_import_list_every_name():
    run_child(f"""
        import valknaf
        owners = {OWNERS!r}
        assert set(owners) <= set(dir(valknaf)), dir(valknaf)
        namespace = {{}}
        exec("from valknaf import *", namespace)
        assert set(namespace) - {{"__builtins__"}} == set(owners)
        """)


def test_submodules_resolve_and_unknown_names_raise():
    run_child("""
        import sys
        import valknaf
        assert valknaf.gf is sys.modules["valknaf.gf"]
        from valknaf import cli, funcfield
        assert cli is sys.modules["valknaf.cli"]
        assert funcfield is sys.modules["valknaf.funcfield"]
        try:
            valknaf.nope
        except AttributeError as exc:
            assert "'nope'" in str(exc), exc
        else:
            raise AssertionError("valknaf.nope resolved")
        """)


def test_names_read_the_module_attribute_each_time():
    # a wrapper installed on the defining module and then removed (as the
    # benchmark tracer does through vars(module)) shows through the package
    # while installed and leaves no copy behind
    run_child("""
        import valknaf
        from valknaf import raminv
        original = valknaf.knaf_decide
        raminv.knaf_decide = wrapper = lambda inv: None
        assert valknaf.knaf_decide is wrapper
        raminv.knaf_decide = original
        assert valknaf.knaf_decide is original
        assert "knaf_decide" not in vars(valknaf)
        """)
