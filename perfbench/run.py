"""toricstacks benchmark: one workload, checked outputs, named metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

The inputs of the workload are generated from --seed, validated against
schemas/input.schema.json and written to .perfbench_work/. A worker process
(worker.py, with src/ on PYTHONPATH as in the test suite) then runs ops, each
one call of toricstacks.cli.main on one generated file, one after another.
Every op's output is checked (checks.py) after the worker has ended.

--trace 0 cycles the ops for --seconds of op time and reports the end-to-end
metrics listed in BENCHMARK.json; --trace 1 runs each op once untraced and
once traced (spans.py) and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans
from checks import Checker
from worker import CRASH, OVERRUN, reference_work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 20.0  # per op; an overrun is a failed op
SETUP_LAUNCHES = 7  # fresh interpreters timed for setup_s, after one warm-up
SETUP_PROBE = "import toricstacks.cli, time; print(repr(time.time()))"
# Timings are scaled to a machine on which worker.reference_work takes this
# long: time * REFERENCE_S / (median reference_work time measured in the run).
# The machine's speed drifts by 10-20% over minutes, and the reference work,
# timed between ops, drifts with it.
REFERENCE_S = 0.012


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env) -> tuple[float, float]:
    """Median time from launching an interpreter until toricstacks.cli is
    imported, and the speed factor measured between the launches."""
    times, reference = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import toricstacks.cli: {proc.stderr.strip()[-500:]}")
        if launch:  # the first launch also compiles bytecode
            times.append(float(proc.stdout.split()[-1]) - start)
        reference += [reference_work() for _ in range(5)]
    return statistics.median(times), speed(reference)


def speed(reference_s) -> float:
    """Factor that scales a timing to the reference machine."""
    return REFERENCE_S / statistics.median(reference_s)


def run_worker(ops, seconds, trace, env, work: Path) -> dict:
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"ops": ops, "seconds": seconds, "deadline": DEADLINE_S,
                                "trace": trace}), encoding="utf-8")
    # traced runs do at least one untraced and one traced round
    limit = 3 * seconds + 2 * DEADLINE_S + 120
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan), str(result)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=limit)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def judge(record: dict, cases, checker) -> list:
    """Verdict (None when the op is right) for every op of a worker record."""
    verdicts = []
    for case, code, out, err in record["outputs"]:
        if code == OVERRUN:
            verdicts.append(f"overran the {DEADLINE_S:g} s deadline")
        elif code == CRASH:
            verdicts.append(f"crashed: {err.strip().splitlines()[-1] if err.strip() else '?'}")
        else:
            verdicts.append(checker.check(cases[case], code, out, err))
    return [verdicts[idx] for _, _, _, idx in record["ops"]]


def end_to_end(result: dict, verdicts, setup) -> tuple[dict, str]:
    setup_s, setup_speed = setup
    run_speed = speed(result["reference_s"])
    raw = [seconds for _, _, seconds, _ in result["timed"]["ops"]]
    times = [seconds * run_speed for seconds in raw]
    tail_s, pct, beyond = spans.tail(times)
    failed = sum(v is not None for v in verdicts)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ok_frac": 1.0 - failed / len(times),
        "peak_rss_mb": result["rss_kb"] / 1024.0,
        "setup_s": setup_s * setup_speed,
    }
    note = (f"op_tail_s is the p{pct:.1f} of {len(times)} ops ({beyond} beyond it); "
            f"timings scaled by {run_speed:.3f} (setup by {setup_speed:.3f}); unscaled: "
            f"ops_per_s {len(raw) / sum(raw):.4g}, op_p50_s {statistics.median(raw):.4g}, "
            f"setup_s {setup_s:.4g}")
    return metrics, note


def per_layer(result: dict, ops: int) -> tuple[dict, str]:
    rounds = result["rounds"]
    summaries = [spans.summarize(r["spans"], ops) for r in rounds]
    metrics = dict(summaries[0])  # counts repeat exactly from round to round
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(s[name] for s in summaries)
    metrics["trace.overhead_s"] = statistics.median(r["traced_s"] - r["untraced_s"] for r in rounds)
    return metrics, f"{len(rounds)} traced round(s) of {ops} ops"


def main(argv=None) -> int:
    # turn a termination request into an exception, so the worker is killed
    # and the work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "toricstacks" / "cli.py").is_file():
            raise BenchError(f"no toricstacks source under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        checker = Checker(ROOT / "schemas")
        cases = inputs.WORKLOADS[args.workload](args.seed)
        for case in cases:
            problem = checker.check_input(case["doc"])
            if problem:
                raise BenchError(f"generated {case['name']}: {problem}")

        env = child_env()
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            ops = []
            for i, case in enumerate(cases):
                path = work / f"case-{i:03d}.json"
                path.write_text(json.dumps(case["doc"]), encoding="utf-8")
                ops.append([i, [case["command"], str(path), *case["args"]]])
            setup = None if args.trace else measure_setup(env)
            result = run_worker(ops, args.seconds, bool(args.trace), env, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if WORK.is_dir() and not any(WORK.iterdir()):
                WORK.rmdir()

        if args.trace:
            records = [result["untraced"], result["traced"]]
            metrics, note = per_layer(result, len(ops))
            wanted = spec["per_layer"]
        else:
            records = [result["timed"]]
            wanted = spec["end_to_end"]
        judged = [(cases[op[0]]["name"], verdict) for record in records
                  for op, verdict in zip(record["ops"], judge(record, cases, checker))]
        if not args.trace:
            metrics, note = end_to_end(result, [v for _, v in judged], setup)
        values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [(name, v) for name, v in judged if v is not None]
    for name, reason in sorted(set(failures))[:20]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    overruns = sum(v.startswith("overran") for _, v in failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(judged)} ops, "
          f"{len(failures)} failed ({overruns} overran); {note}")
    for name, entry in values.items():
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}")
    # an overrun is a failed op but not a wrong output
    print(json.dumps({"correct": len(failures) == overruns, "attempted": len(judged),
                      "failed": len(failures), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
