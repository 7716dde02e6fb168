"""Steadiness self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Checks that one seed always yields the same problem files, that the traced
counters repeat exactly, that the golden records still match the program,
that times are scaled by the reference samples next to them, and that the
benchmark refuses to run without the program's sources.
"""

import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import generate  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

GOLDEN_SEEDS = (0, 1)
# blocks checked against the golden record per seed (a benchmark run checks
# every item it runs)
GOLDEN_BLOCKS = {"qp_split": 2, "ft_split": 1, "wide_residue": 1,
                 "lex_decide": 4}


@pytest.fixture(scope="module")
def program():
    return worker.import_program()


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_byte_identical(workload):
    texts = [i.text for i in generate.items(workload, 7, 80)]
    assert texts == [i.text for i in generate.items(workload, 7, 80)]
    assert texts != [i.text for i in generate.items(workload, 8, 80)]
    for seed in GOLDEN_SEEDS:
        golden = worker.load_golden(workload, seed)
        assert golden, f"no golden record for {workload} seed {seed}"
        items = generate.items(workload, seed, len(golden))
        assert [worker.digest(i.text) for i in items] == [g[0] for g in golden]
        assert [i.mode for i in items] == [g[1] for g in golden]


def test_roadmap_inputs_are_reproducible():
    first, second = generate.roadmap_inputs(0), generate.roadmap_inputs(0)
    assert {k: [i.text for i in v] for k, v in first.items()} == \
        {k: [i.text for i in v] for k, v in second.items()}
    assert len(first["q_batch"]) == 180
    assert len(first["f3t_batch"]) == 30
    assert all("pi = [1, 0, 1]" in i.text for i in first["f3t_batch"])
    assert [i.expect["degree"] for i in first["phi_squared"]] == [24, 28, 32, 36]


def _loop(program, items, mode):
    cli, cold_caches = program
    loop = worker.Loop(cli, str(Path(worker.ROOT, ".perfbench-test.txt")))
    cold_caches()
    with tracer.Tracer(mode) as tr:
        loop.run(enumerate(items), on_item=tr.set_item)
    Path(loop.path).unlink()
    return loop, tr


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_traced_counters_repeat(program, workload):
    items = generate.items(workload, 3, 12)
    first = _loop(program, items, "count")[1]
    second = _loop(program, items, "count")[1]
    assert first.counts["cli.calls"] == len(items)
    assert first.counts == second.counts
    assert first.max_field_q == second.max_field_q
    loop, timed = _loop(program, items, "time")
    assert not loop.failures
    metrics = tracer.layer_metrics(timed, first)
    assert set(metrics) == set(tracer.PER_LAYER) - {"trace.overhead_ratio"}
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == \
        pytest.approx(sum(loop.latencies), rel=0.1)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_golden_record_matches(program, workload, seed):
    cli, cold_caches = program
    golden = worker.load_golden(workload, seed)
    blocks = islice(generate.blocks(workload, seed), GOLDEN_BLOCKS[workload])
    items = [item for block in blocks for item in block]
    loop = worker.Loop(cli, str(Path(worker.ROOT, ".perfbench-test.txt")))
    cold_caches()
    loop.run(enumerate(items))
    loop.compare(golden)
    Path(loop.path).unlink()
    assert len(items) <= len(golden)
    assert loop.failures == []


def test_clock_scales_by_nearby_samples():
    clock = calibrate.Clock()
    clock.mids = [i / 10 for i in range(30)]
    clock.durations = [calibrate.REFERENCE_S * (2 if i < 15 else 1)
                       for i in range(30)]
    assert clock.scaled(0.5, 0.6) == pytest.approx(0.05)
    assert clock.scaled(2.5, 2.6) == pytest.approx(0.1)


def test_sampler_source_runs_the_reference_work():
    namespace = {}
    exec(calibrate.sampler_source(), namespace)
    assert namespace["reference_work"]() == calibrate.reference_work()
    assert len(namespace["samples"](3)) == 3


def test_check_rejects_wrong_answers():
    item = next(i for i in generate.items("qp_split", 0, 42)
                if i.expect["exit"] == 0)
    row = "label=factor 1\te={e}\tf=1\teps={e}\td=1\tdefectless=true\t" \
          "initial=true\teft=true\tcertificate=x\n"
    degree = item.expect["degree"]
    assert worker.check(item, 0, row.format(e=degree))
    assert not worker.check(item, 0, row.format(e=degree + 1))
    assert not worker.check(item, 2, "")


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=worker.ROOT) as tmp:
        shutil.copytree(BENCH, Path(tmp, BENCH.name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(Path(tmp, BENCH.name, "run.py")),
             "--workload", "qp_split", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
