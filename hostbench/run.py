#!/usr/bin/env python3
"""Host-time benchmark of the DaxVM simulator (README.md in this directory).

Run from the repository root:

  python3 hostbench/run.py --workload aged_churn --seed 1 --seconds 20 --trace 0
  python3 hostbench/run.py compare PARENT CHANGE
  python3 hostbench/run.py selfcheck
  python3 hostbench/run.py record-digest --workload aged_churn --seed 1

A run builds the driver (CMake, Release) into .bench_build/hostbench,
clears every DAXVM_* knob, runs one workload, checks its simulated
results against the digest recorded for the seed, appends the full
result with its provenance to .bench_build/hostbench/results/ and prints
one JSON object as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. PARENT and CHANGE of `compare` are
results directories or .jsonl files of such runs.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "hostbench"
RESULTS = BUILD / "results"
TRACES = BUILD / "traces"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import compare  # noqa: E402


class BenchError(Exception):
    pass


def hermetic_env():
    """The environment minus every DAXVM_* knob, and the knobs cleared."""
    cleared = sorted(k for k in os.environ if k.startswith("DAXVM_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAXVM_")}
    return env, cleared


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found under %s" % (ROOT / "src"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "hostbench"])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def driver(args, env, timeout=RUN_TIMEOUT_S):
    """Run the built driver; return its JSON output."""
    done = subprocess.run([str(BINARY)] + args, env=env, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError("driver exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_sha256():
    """Content hash of the simulator sources and this benchmark."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(result, cleared, args):
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": result.get("compiler"),
        "cxx_flags": result.get("cxx_flags"),
        "build_type": "Release",
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cleared_env": cleared,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_outputs(result, workload, seed):
    """Output errors of a run; any error fails every op of the run."""
    errors = list(result["check_errors"])
    recorded = load_json(DIGESTS)["digests"].get(workload, {}).get(str(seed))
    if recorded is not None and recorded != result["digest"]:
        errors.append("digest %s differs from the one recorded for seed %d (%s)"
                      % (result["digest"], seed, recorded))
    return errors


def run(args):
    spec = load_json(SPEC)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    env, cleared = hermetic_env()
    build(env)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(TRACES / ("%s.spans.tsv" % args.workload))]
    result = driver(cmd, env)

    errors = check_outputs(result, args.workload, args.seed)
    attempted = result["ops_attempted"]
    failed = attempted if errors else result["ops_failed"]
    if args.trace:
        wanted = spec["per_layer"]
        source = {k: v["value"] for k, v in result["layers"].items()}
    else:
        wanted, source = spec["end_to_end"], result
    values = {m["name"]: source[m["name"]]
              for m in wanted if m["name"] in source}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("driver did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": values,
        "provenance": provenance(result, cleared, args),
        "driver": result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / ("%s.jsonl" % args.workload), "a") as f:
        f.write(json.dumps(record) + "\n")
    for e in errors:
        print("output check failed: " + e, file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "digest": result["digest"], "rounds": result["rounds"]}))
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def read_results(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return [r for r in records if r["trace"] == 0]


def run_compare(args):
    spec = load_json(SPEC)
    rows = compare.compare(read_results(args.parent),
                           read_results(args.change), spec)
    if not rows:
        raise BenchError("no workload has untraced runs on both sides")
    print(compare.format_rows(rows))
    return 0


def run_selfcheck(args):
    failures = compare.selfcheck()
    env, _ = hermetic_env()
    build(env)
    done = subprocess.run([str(BINARY), "--selfcheck"], env=env)
    if failures or done.returncode != 0:
        print("selfcheck FAILED", file=sys.stderr)
        return 1
    print("selfcheck ok")
    return 0


def run_record_digest(args):
    env, _ = hermetic_env()
    build(env)
    result = driver(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", "1", "--trace", "0"], env)
    if result["check_errors"] or result["ops_failed"]:
        raise BenchError("not recording a run that fails its checks: %s"
                         % result["check_errors"])
    digests = load_json(DIGESTS)
    digests["digests"].setdefault(args.workload, {})[str(args.seed)] = \
        result["digest"]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("%s seed %d: %s" % (args.workload, args.seed, result["digest"]))
    return 0


def main(argv):
    if argv and argv[0] in ("compare", "selfcheck", "record-digest"):
        command, argv = argv[0], argv[1:]
    else:
        command = "run"
    p = argparse.ArgumentParser(
        prog="run.py" if command == "run" else "run.py " + command)
    if command == "compare":
        p.add_argument("parent")
        p.add_argument("change")
    if command in ("run", "record-digest"):
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, default=1)
    if command == "run":
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    handler = {"run": run, "compare": run_compare, "selfcheck": run_selfcheck,
               "record-digest": run_record_digest}[command]
    try:
        return handler(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print("hostbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
