"""zpoly benchmark: time to verdict, end to end and per module.

    python3 bench/run.py --workload {frontend,growth,residual,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Each workload runs in this one process as a single client in a closed loop:
the seeded jobs run in sequence, and whole passes over them repeat while
another pass still fits in --seconds (at least one pass always runs).

With --trace 0 the last stdout line carries the end-to-end metrics:
  wall_s        median seconds for one pass over the jobs
  job_p50_s     median seconds from job start to verdict, over every job run
                (printed and recorded; not in the result line, see below)
  setup_s       median of nine set-ups (fresh import of zpoly, seeded job
                list, input files written): five before the first pass
                and four after the last, so that the median samples the
                machine at both ends of the run
  peak_rss_mb   ru_maxrss of this process
  decided_ratio definite answers / questions asked
`attempted` and `failed` count job runs; failed / attempted is the failed
ratio (a job fails on an undocumented exception, an exit code outside
0/1/2/3, or a missed expected exit code).  BENCHMARK.json gates only what
is steady enough to gate: the median of a few sub-second jobs moves by up
to a third between runs on a shared machine, so job_p50_s and the failed
ratio (zero on two workloads) are reported but carry no bound.

With --trace 1 one untraced pass is followed by one traced pass (wrappers
from tracer.py), and the last line carries per-module counts and self
times, plus the tracing overhead (traced minus untraced pass seconds).

Rows of the traced pass add exact per-job counts: calls of each wrapped
function, minimize dimensions in and out, the largest monoid, patterns
tried, transducer states.

Every answer is checked outside the timed region against reference.py; a
wrong decided answer, or two passes disagreeing on verdicts or counts,
sets "correct" to false and the exit code to 1.  Full per-job rows, run
metadata and (traced) spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (bench directory is on sys.path)
from tracer import Tracer  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 5, 4
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


class SetupError(RuntimeError):
    pass


def import_zpoly():
    """A fresh import of the zpoly package under src/ of this checkout."""
    for name in [n for n in sys.modules if n == "zpoly" or n.startswith("zpoly.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("zpoly")
        cli = importlib.import_module("zpoly.cli")
    except ImportError as exc:
        raise SetupError("cannot import zpoly from %s: %s" % (SRC, exc)) from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError("zpoly imported from %s, not from %s" % (pkg.__file__, SRC))
    return types.SimpleNamespace(cli=cli, mso=sys.modules["zpoly.mso"],
                                 cplc=sys.modules["zpoly.cplc"],
                                 analysis=sys.modules["zpoly.analysis"],
                                 canon=sys.modules["zpoly.canon"])


def setup(name, seed, smoke, workdir):
    lib = import_zpoly()
    workload = workloads.WORKLOADS[name](seed, smoke)
    workload.write_files(workdir)
    lib.workdir = os.path.relpath(workdir, os.getcwd())
    return lib, workload


def run_pass(jobs, lib, tracer=None):
    """Run every job once; returns (rows, seconds for the whole pass)."""
    begin = time.perf_counter()
    rows = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = time.perf_counter()
        try:
            row = job.run(lib)
        except Exception as exc:   # undocumented exception: the job fails
            row = {"verdict": "error", "definite": 0,
                   "failure": "%s: %s" % (type(exc).__name__, str(exc)[:120])}
        row["seconds"] = time.perf_counter() - start
        row["name"] = job.name
        rows.append(row)
    return rows, time.perf_counter() - begin


def signature(rows):
    """Everything in the rows except timings and private objects."""
    return [{k: v for k, v in r.items() if k != "seconds" and not k.startswith("_")}
            for r in rows]


def check_rows(jobs, rows):
    wrong = []
    for job, row in zip(jobs, rows):
        if row["verdict"] != "error":
            wrong.extend(job.check(row))
    return wrong


def metadata():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "zpoly")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_commit": git_commit(),
            "src_zpoly_lines": src_lines}


def git_commit():
    """HEAD from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(git, ref_name)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def declared_metrics(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def per_layer_metrics(tracer, overhead_s, traced_wall_s):
    funcs = tracer.per_function()
    values = {"trace.overhead_s": overhead_s, "trace.wall_s": traced_wall_s,
              "trace.spans": len(tracer.spans)}
    for name, stats in funcs.items():
        for key, value in stats.items():
            values["%s.%s" % (name, key)] = value
    eq = funcs["analysis.equiv_mod_k"]
    values["analysis.equiv_mod_k.merge_ratio"] = (
        eq.get("true", 0) / eq["calls"] if eq["calls"] else 0.0)
    return values


def print_rows(rows):
    for r in rows:
        extra = r.get("failure", "")
        print("  %-34s %9.4f s  %-32s %s" % (r["name"], r["seconds"], r["verdict"], extra))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="'all' runs each workload in a process of its own")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        return measure(args, out_dir, workdir)
    except SetupError as exc:
        print("setup failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(argv):
    """Each workload in turn, in its own process; then one summary table."""
    status = 0
    results = {}
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__)] + [
            a.replace("all", name) if a in ("all", "--workload=all") else a for a in argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print("\n%-10s %-8s %-16s %s" % ("workload", "correct", "failed/attempted", "metrics"))
    for name, res in results.items():
        if res is None:
            print("%-10s did not finish" % name)
            continue
        print("%-10s %-8s %-16s %s" % (
            name, res["correct"], "%d/%d" % (res["failed"], res["attempted"]),
            "  ".join("%s=%.4g %s" % (k, v["value"], v["unit"])
                      for k, v in res["metrics"].items())))
    return status


def measure(args, out_dir, workdir):
    if not os.path.isfile(BENCHMARK_JSON):
        raise SetupError("%s is missing" % BENCHMARK_JSON)
    if not os.path.isdir(os.path.join(SRC, "zpoly")):
        raise SetupError("no zpoly sources under %s" % SRC)
    setup_times = []

    def timed_setup():
        start = time.perf_counter()
        result = setup(args.workload, args.seed, args.smoke, workdir)
        setup_times.append(time.perf_counter() - start)
        return result

    for _ in range(1 if args.trace else SETUP_BEFORE):
        lib, workload = timed_setup()
    jobs = workload.jobs

    passes = []
    pass_walls = []
    tracer = None
    if args.trace:
        untraced, wall_u = run_pass(jobs, lib)
        tracer = Tracer()
        tracer.install()
        try:
            traced, wall_t = run_pass(jobs, lib, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        for row in traced:
            row["counts"] = tracer.per_job(row["name"])
    else:
        begin = time.perf_counter()
        while True:
            rows, wall = run_pass(jobs, lib)
            passes.append(rows)
            pass_walls.append(wall)
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(pass_walls) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(SETUP_AFTER):
            timed_setup()

    wrong = []

    for rows in passes:
        wrong.extend(check_rows(jobs, rows))
    first = signature(passes[0])
    for i, rows in enumerate(passes[1:], start=2):
        sig = [{k: v for k, v in r.items() if k != "counts"} for r in signature(rows)]
        if sig != first:
            wrong.append("pass %d disagrees with pass 1 on verdicts or counts" % i)

    all_rows = [r for rows in passes for r in rows]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if "failure" in r)
    questions = sum(j.questions for j in jobs) * len(passes)
    definite = sum(r.get("definite", 0) for r in all_rows)

    if args.trace:
        declared = declared_metrics("per_layer")
        values = per_layer_metrics(tracer, wall_t - wall_u, wall_t)
    else:
        declared = declared_metrics("end_to_end")
        durations = [r["seconds"] for r in all_rows]
        values = {
            "wall_s": statistics.median(pass_walls),
            "job_p50_s": statistics.median(durations),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "decided_ratio": definite / questions if questions else 1.0,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    meta = metadata()
    print("workload %s, seed %d, trace %d: %d jobs x %d passes"
          % (args.workload, args.seed, args.trace, len(jobs), len(passes)))
    print("machine: %s" % json.dumps(meta))
    print_rows(passes[-1])
    print("%-44s %14.6g ratio (%d of %d job runs)"
          % ("failed_ratio", failed / attempted, failed, attempted))
    if not args.trace:
        print("%-44s %14.6g s (median of %d job runs; not gated)"
              % ("job_p50_s", values["job_p50_s"], attempted))
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    for msg in wrong:
        print("WRONG: %s" % msg, file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                                        "-smoke" if args.smoke else ""))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "metadata": meta, "metrics": metrics,
              "job_p50_s": values.get("job_p50_s"),
              "failed_ratio": failed / attempted, "setup_times": setup_times,
              "wrong": wrong,
              "rows": [[{k: v for k, v in r.items() if not k.startswith("_")} for r in rows]
                       for rows in passes]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
