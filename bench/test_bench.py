"""Smoke tests for the benchmark: output schema, reference gate, traced run,
seeded determinism, and refusal to run without the sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference as ref
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, seed, trace, root=ROOT, hashseed="0"):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload, seed, trace):
    path = os.path.join(ROOT, ".bench_out",
                        "%s-seed%d-trace%d-smoke.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_layout():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_schema(workload, trace):
    proc = bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert "job_p50_s" in proc.stdout and "failed_ratio" in proc.stdout


def test_frontend_probes_count_as_failures():
    proc = bench("frontend", 4, 0)
    rows = report("frontend", 4, 0)["rows"][0]
    probes = [r for r in rows if r["name"].startswith("probe.")]
    assert len(probes) == 6
    assert last_json(proc)["failed"] == sum(1 for r in rows if "failure" in r)


def test_seeded_runs_agree_on_verdicts_and_counts():
    signatures = []
    for hashseed in ("1", "2"):
        proc = bench("residual", 5, 1, hashseed=hashseed)
        assert proc.returncode == 0, proc.stderr
        rows = report("residual", 5, 1)["rows"][1]
        assert all(r["counts"]["calls"] for r in rows)
        signatures.append([{k: v for k, v in r.items() if k != "seconds"} for r in rows])
    assert signatures[0] == signatures[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = bench("growth", 1, 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_evaluators():
    assert ref.combination_value(workloads.COUNT_A, "abab") == 2
    assert ref.combination_value(workloads.I_TIMES_J, "aabbb") == 6
    assert ref.combination_value(workloads.I_TIMES_J, "aba") == 0
    assert ref.combination_value(workloads.WA_TIMES_WB, "abab") == 4
    assert ref.combination_value(workloads.SIGNED_LENGTH, "aaa") == -3
    phi = ("and", ("letter", "a", "x"), ("letter", "b", "y"))
    assert ref.count_valuations(phi, ("x", "y"), "aabbb") == 6
    so = ("forall", "x", ("or", ("not", ("in", "x", "X")), ("letter", "a", "x")))
    assert ref.count_valuations(so, ("X",), "abab") == 4


def test_wrong_answers_are_caught():
    job = workloads.growth_job("g", "alphabet = a\ncount[x] a(x)\n", 1)
    assert job.check({"degree": 2, "budget_exhausted": False})
    assert job.check({"degree": 2, "budget_exhausted": True})
    assert not job.check({"degree": 1, "budget_exhausted": True})
    assert not job.check({"degree": 0, "budget_exhausted": True})
    ev = workloads.cli_job("e", ["eval"], 0, lambda row: [] if row["_stdout"] == "2\n"
                           else ["wrong"])
    assert ev.check({"exit": 0, "_stdout": "3\n"})
    assert not ev.check({"exit": 0, "_stdout": "2\n"})
    eq = workloads.cli_job("q", ["equiv"], 1)
    assert eq.check({"exit": 0, "_stdout": "equivalent\n"})
