"""One measured iteration: a fresh process that runs one workload input.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR \
        --result FILE --t0 T [--trace]

The outputs go to DIR/run. Every iteration names its output directory
`run`, relative to its own DIR, so the echoed config of a traced and an
untraced iteration is the same and their directories can be compared byte
for byte.

`--t0` is the parent's `time.perf_counter()` just before it started this
process (CLOCK_MONOTONIC on Linux, shared by all processes), so set-up time
includes interpreter start and imports. The library is driven through
`voteloop.cli.main`, exactly as the `voteloop` command runs it. Untraced,
only the first `engine.run` call and each eval-hook call are timestamped
(at most a few dozen calls); with `--trace` every traced function records a
span and the spans are saved next to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import time

from workloads import WORKLOADS

RUN_DIR = "run"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import voteloop
    from voteloop import cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, voteloop)

    clock = time.perf_counter
    marks: dict[str, list[float]] = {"run": [], "hook": []}

    def mark_calls(key, fn):
        @functools.wraps(fn)
        def marked(*a, **kw):
            marks[key].append(clock())
            return fn(*a, **kw)
        return marked

    cli.run = mark_calls("run", cli.run)
    make_hook = cli.make_eval_hook
    cli.make_eval_hook = lambda *a, **kw: mark_calls("hook", make_hook(*a, **kw))

    os.chdir(args.dir)
    os.makedirs(RUN_DIR, exist_ok=True)
    commands = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for label, argv in workload.commands(args.seed, RUN_DIR):
            started = clock()
            rc = cli.main(argv)
            commands.append({"label": label, "rc": rc, "start": started, "end": clock()})
    end = clock()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    if workload.kind == "run":
        begin = marks["run"][0] if marks["run"] else commands[0]["end"]
        hooks = marks["hook"]
        steps = [b - a for a, b in zip(hooks, hooks[1:])]
    else:
        begin = commands[0]["start"]
        steps = [c["end"] - c["start"] for c in commands]
    result = {
        "setup_s": begin - args.t0,
        "wall_s": end - begin,
        "steps": steps,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": [{"label": c["label"], "rc": c["rc"]} for c in commands],
    }
    if tracer is not None:
        result["counters"] = tracer.counters
        result["spans"] = args.result[: -len(".json")] + "-spans.npz"
        tracer.save(result["spans"])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
