"""Runs benchmark ops in one process, one after another (a closed loop).

Usage: python3 worker.py PLAN.json RESULT.json

An op is one call of `toricstacks.cli.main(argv)`. Its standard output and
error are captured, and a per-op deadline is enforced with an interval
timer: an overrunning op is interrupted and recorded with code OVERRUN.
The plan is {"ops": [[case, argv], ...], "seconds": s, "deadline": s,
"trace": bool}. Untraced, the ops are cycled until `seconds` of op time
have been spent, with `reference_work` timed after each. Traced, each round runs every op once untraced and then
once under the tracer, and rounds repeat while another fits in `seconds`.
"""

from __future__ import annotations

import io
import json
import re
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from spans import Tracer

OVERRUN = -1
CRASH = -2
TIMING = re.compile(r'"timing_seconds": [-+.0-9eE]+')


def reference_work() -> float:
    """Seconds taken by a fixed pure-int loop.

    It is timed after every op, so timings can be scaled by the machine's
    speed at that moment (see REFERENCE_S in run.py).
    """
    start = perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i % 7
    return perf_counter() - start


class Overrun(BaseException):
    """Raised into an op that passed its deadline."""


def _interrupt(signum, frame):
    raise Overrun


def run_op(cli, argv, deadline):
    """One op: (exit code, wall seconds, stdout, stderr).

    `cli.main` is looked up on every call so a tracer's wrapper is seen.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        code = OVERRUN
    except Exception:  # a crash of the program is a failed op, not a harness error
        code = CRASH
        err.write(traceback.format_exc())
    return code, perf_counter() - start, out.getvalue(), err.getvalue()


class Recorder:
    """Op records [case, code, seconds, output index] with outputs deduplicated.

    Reports differ between repeats only in `timing_seconds`, which is zeroed
    before comparison, so each distinct output is stored (and checked) once.
    """

    def __init__(self):
        self.ops: list[list] = []
        self.outputs: list[list] = []
        self._index: dict[tuple, int] = {}

    def add(self, case, code, seconds, out, err):
        key = (case, code, TIMING.sub('"timing_seconds": 0', out), err)
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.outputs)
            self.outputs.append(list(key))
        self.ops.append([case, code, seconds, idx])
        return seconds


def main(plan_path, result_path):
    import toricstacks.cli as cli

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    ops, seconds, deadline = plan["ops"], plan["seconds"], plan["deadline"]
    signal.signal(signal.SIGALRM, _interrupt)
    result = {}
    if not plan["trace"]:
        timed, reference = Recorder(), []
        busy, i = 0.0, 0
        while busy < seconds:
            case, argv = ops[i % len(ops)]
            busy += timed.add(case, *run_op(cli, argv, deadline))
            reference.append(reference_work())
            i += 1
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["timed"] = {"ops": timed.ops, "outputs": timed.outputs}
        result["reference_s"] = reference
    else:
        untraced, traced, rounds = Recorder(), Recorder(), []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            tracer, plain, with_trace = Tracer(), 0.0, 0.0
            for op_id, (case, argv) in enumerate(ops):
                # the same op untraced, then traced, so drift hits both alike
                plain += untraced.add(case, *run_op(cli, argv, deadline))
                tracer.op = op_id
                tracer.install()
                try:
                    with_trace += traced.add(case, *run_op(cli, argv, deadline))
                finally:
                    tracer.uninstall()
            rounds.append({"untraced_s": plain, "traced_s": with_trace, "spans": tracer.spans})
            spent, last = perf_counter() - start, perf_counter() - round_start
            if spent + last > seconds:
                break
        result["untraced"] = {"ops": untraced.ops, "outputs": untraced.outputs}
        result["traced"] = {"ops": traced.ops, "outputs": traced.outputs}
        result["rounds"] = rounds
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
