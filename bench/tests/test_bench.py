"""The benchmark's own checks: every workload at a twentieth of its size,
declared names against emitted names, digests, attribution, layer table."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import suite

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SCALE = "0.05"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(workload, trace, out, cwd=ROOT, extra=()):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "11", "--seconds", "0",
        "--trace", str(trace), *extra]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="session")
def results(tmp_path_factory):
    """One timed and one traced run per workload, run on first use."""
    cache = {}
    directory = tmp_path_factory.mktemp("bench")

    def get(workload, trace):
        key = (workload, trace)
        if key not in cache:
            out = directory / f"{workload}.{trace}.json"
            done = run_benchmark(workload, trace, out,
                                 extra=("--scale", SCALE))
            assert done.returncode == 0, done.stderr
            with open(out) as handle:
                detail = json.load(handle)
            last_line = done.stdout.strip().splitlines()[-1]
            assert json.loads(last_line) == detail["line"]
            cache[key] = detail
        return cache[key]
    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_the_declared_end_to_end_metrics(results, workload):
    line = results(workload, 0)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == declared
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0, \
        results(workload, 0)["failures"]
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_declared_per_layer_metrics(results, workload):
    detail = results(workload, 1)
    line = detail["line"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == declared
    assert line["correct"] and line["failed"] == 0, detail["failures"]
    assert line["metrics"]["trace.attributed_share"]["value"] >= 0.95
    assert line["metrics"]["trace.samples"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_across_processes_and_under_tracing(results,
                                                          workload):
    assert results(workload, 0)["digest"] == results(workload, 1)["digest"]


def test_packet_workloads_show_the_deployed_fallback_rate(results):
    batch = results("pkt_batch_defended", 1)["metrics"]
    scalar = results("pkt_scalar_defended", 1)["metrics"]
    assert batch["switch.fallback_per_pkt"] > 0
    assert batch["switch.batch_packets"] > 0
    assert scalar["switch.batch_packets"] == 0
    for metrics in (batch, scalar):
        assert metrics["boosters.detections"] >= 1
        assert metrics["modes.transitions"] >= 16   # 8 switches, in and out
        assert metrics["boosters.packets_dropped"] > 0


def test_declared_workloads_are_the_implemented_ones():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    implemented = [w.name for w in workloads.WORKLOADS]
    assert implemented == WORKLOADS
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        assert set(json.load(handle)["digests"]) == set(implemented)
    assert len(BENCHMARK["per_layer"]) <= 128
    assert BENCHMARK["paths"] == ["bench"]


def test_every_module_has_a_layer():
    package = os.path.join(ROOT, "src", "repro")
    missing = []
    for directory, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                rel = layers.repro_relpath(
                    os.path.join(directory, name), package)
                if layers.layer_of(rel) not in layers.LAYERS:
                    missing.append(rel)
    assert not missing, f"no layer for {missing}: add them to bench/layers.py"
    assert layers.layer_of("netsim/brand_new.py") is None
    assert layers.bucket_of("boosters/reroute.py") == "boosters.reroute"
    assert layers.bucket_of("boosters/poise.py") is None


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and bench/ there is nothing
    to measure: no result line, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    ([1.00, 1.01, 0.99, 1.00], [1.00, 1.02, 0.99, 1.01], "lower", "same"),
    ([1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], "lower", "worse"),
    ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "lower", "better"),
    ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "higher", "worse"),
    ([1.00, 1.01, 0.99, 1.00], [1.05, 1.06, 1.04, 1.05], "lower",
     "worse<bound"),
    ([1.00, 1.01, 0.99, 1.00], [0.97, 0.98, 0.96, 0.97], "lower", "better"),
    ([1.0, 1.3, 0.8, 1.1], [1.1, 1.4, 0.7, 1.2], "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(suite.summarize(parent), suite.summarize(change),
                           better, bound=0.08) == expected


def test_suite_twice_then_compare(tmp_path, capsys):
    """Two sets of runs of the same tree agree: no ``worse``, and the
    digests and exact counts are identical.  Then compare.py is shown a
    moved count, a slowdown, and a result recorded differently."""
    size = dict(runs=2, seconds=0.0, scale=float(SCALE),
                workloads=["fig3_rolling"])
    paths = [str(tmp_path / name) for name in ("A.json", "B.json")]
    for path in paths:
        assert suite.main(["--seed", "11", "--out", path], **size) == 0
    assert compare.main(paths) in (0, 1)
    table = capsys.readouterr().out
    assert "differs" not in table and "failed" not in table

    with open(paths[1]) as handle:
        change = json.load(handle)

    def compare_with(edit):
        edited = json.loads(json.dumps(change))
        edit(edited, edited["workloads"]["fig3_rolling"])
        path = str(tmp_path / "edited.json")
        with open(path, "w") as handle:
            json.dump(edited, handle)
        code = compare.main([paths[1], path])
        return code, capsys.readouterr().out

    assert compare_with(lambda result, w: None)[0] == 0

    def one_more_event(result, w):
        w["per_layer"]["engine.events"] += 1
    code, out = compare_with(one_more_event)
    assert code == 1 and "engine.events differs" in out

    def another_digest(result, w):
        w["traced_digest"] = "0" * 64
    code, out = compare_with(another_digest)
    assert code == 1 and "traced run's sim_digest differs" in out

    def half_as_fast(result, w):
        w["end_to_end"]["wall_s"] = suite.summarize(
            [2 * v for v in w["end_to_end"]["wall_s"]["values"]])
    code, out = compare_with(half_as_fast)
    assert code == 1 and " worse " in out

    def other_seed(result, w):
        result["seed"] = 12
    code, out = compare_with(other_seed)
    assert code == 2 and "seed: A 11, B 12" in out
