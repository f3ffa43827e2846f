"""voteloop benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the library is imported from `src/`). One
iteration is one fresh single-threaded process (perfbench/worker.py) that
drives `voteloop.cli.main` on one input; iterations run one at a time. The
workload seed fans out into the workload's sub-seeds (workloads.py), which
are run in turn until `--seconds` have passed and each has run once.

--trace 0 reports the `end_to_end` metrics of BENCHMARK.json; --trace 1
runs untraced/traced pairs on the first sub-seed and reports the `per_layer`
metrics. Every iteration's output is checked (checks.py); one that fails,
or a worker that exits non-zero, counts as a failed operation. The last
line of stdout is the JSON result; the exit code is 0 only when every
check passed. Everything is written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 165  # the whole run must end within 180 s


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": model,
        "loadavg_start": _loadavg(),
        "host_loop_ms_start": host_loop_ms(),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, a gauge of how fast this host
    runs interpreter code right now. The load average cannot see other
    tenants of a shared host; this can."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t) * 1000.0)
    return statistics.median(times)


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


class Runner:
    """Starts iterations one at a time and checks what each one wrote."""

    def __init__(self, workload, out: Path, deadline: float):
        self.workload = workload
        self.out = out
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self.quality: dict[int, float] = {}
        self.artifacts: dict[str, dict] = {}
        self.env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        self.env.pop("VOTELOOP_OUT_ROOT", None)
        self.count = 0

    def iterate(self, seed: int, trace: bool) -> dict | None:
        """One iteration; returns the worker's result plus check outcomes,
        or None when the worker failed."""
        tag = f"{self.count:03d}-{'t' if trace else 'u'}-{seed}"
        self.count += 1
        work_dir = self.out / tag
        work_dir.mkdir(parents=True)
        result_path = self.out / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
            "--seed", str(seed), "--dir", str(work_dir), "--result", str(result_path),
        ] + (["--trace"] if trace else [])
        with open(self.out / f"{tag}.log", "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT, timeout=max(1.0, self.deadline - time.perf_counter()),
                )
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        if rc != 0:
            self.fail(f"{tag}: worker exited {rc}; see {self.out / (tag + '.log')}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["seed"] = seed
        result["run_dir"] = work_dir / "run"
        self._check(tag, seed, result)
        return result

    def fail(self, message: str) -> None:
        """A failed operation found outside one iteration's own checks."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    @staticmethod
    def discard(result: dict | None) -> None:
        """Drop an iteration's bulky outputs once they have been read."""
        if result is not None:
            shutil.rmtree(result["run_dir"].parent, ignore_errors=True)
            if "spans" in result:
                Path(result["spans"]).unlink(missing_ok=True)

    def _check(self, tag: str, seed: int, result: dict) -> None:
        import checks

        run_dir = result["run_dir"]
        result["digest"] = checks.tree_digest(run_dir)
        first = seed not in self.digests
        if self.workload.kind == "run":
            errors = [f"run exited {c['rc']}" for c in result["commands"] if c["rc"] != 0]
            if first:
                try:
                    more, quality = checks.check_run_dir(run_dir, self.workload)
                except (OSError, ValueError, KeyError) as exc:
                    more, quality = [f"output does not re-read: {exc!r}"], 0.0
                errors += more
            result["work"] = self.workload.prompts * self.workload.rounds
            ops = bad = 1
        else:
            try:
                errors, instances, bad = checks.check_verify_dir(run_dir, result["commands"])
            except (OSError, ValueError, KeyError) as exc:
                errors, instances, bad = [f"report does not re-read: {exc!r}"], 0, 1
            quality = (instances - bad) / instances if instances else 0.0
            result["work"] = ops = instances
        if first:
            self.digests[seed] = result["digest"]
            self.quality[seed] = quality
            self.artifacts[str(seed)] = {"sha256": result["digest"]}
            if self.workload.kind == "run":
                self.artifacts[str(seed)]["bytes"] = checks.artifact_bytes(run_dir)
        elif result["digest"] != self.digests[seed]:
            errors.append(f"output differs from the first iteration of seed {seed}")
        self.attempted += max(ops, 1)
        self.failed += min(max(ops, 1), max(bad, 1)) if errors else 0
        self.errors += [f"{tag}: {e}" for e in errors]


def end_to_end(records: list[dict], runner: Runner) -> dict[str, float]:
    """Medians over the run's iterations; quality is the mean over inputs
    (it is deterministic per input)."""
    def median(key):
        return statistics.median(rec[key] for rec in records)

    return {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "work_per_s": statistics.median(rec["work"] / rec["wall_s"] for rec in records),
        "step_s.p50": statistics.median(s for rec in records for s in rec["steps"]),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "quality": statistics.fmean(runner.quality.values()),
        "success_frac": 1.0 - runner.failed / runner.attempted,
    }


def measure_untraced(runner: Runner, seeds: list[int], seconds: float) -> list[dict]:
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        rec = runner.iterate(seeds[i % len(seeds)], trace=False)
        i += 1
        if rec is not None:
            records.append(rec)
            runner.discard(rec)
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / i
        if i >= len(seeds) and elapsed + per_iteration > seconds:
            break
        if time.perf_counter() + per_iteration > runner.deadline:
            break
    return records


def measure_traced(runner: Runner, seed: int, seconds: float):
    """Untraced/traced pairs on one input: per-layer metrics from the traced
    iterations, tracing overhead from the pairs. Like every repeat of an
    input, a traced output must be byte-identical to the input's first
    output, which shows the wrappers change nothing."""
    import layers

    untraced, traced, per_iteration = [], [], []
    start = time.perf_counter()
    while True:
        plain, rec = runner.iterate(seed, trace=False), runner.iterate(seed, trace=True)
        if plain is not None and rec is not None:
            spans = layers.span_metrics(rec["spans"])
            if abs(sum(spans[f"phase.{p}.s"] for p in layers.PHASES) - spans["engine.run.s"]) > 1e-6:
                runner.fail("phase times do not add up to engine.run")
            per_iteration.append(layers.layer_metrics(spans, rec["counters"], rec["run_dir"], runner.workload))
            untraced.append(plain)
            traced.append(rec)
        for r in (plain, rec):
            runner.discard(r)
        elapsed = time.perf_counter() - start
        per_pair = elapsed / (runner.count // 2)
        if elapsed + per_pair > seconds or time.perf_counter() + per_pair > runner.deadline:
            break
    if not traced:
        return None, untraced + traced
    values = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    return values, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "voteloop" / "__init__.py").is_file():
        print(f"no voteloop sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    # Byte-compile once, so no iteration pays for it in set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "voteloop")],
                   stdout=subprocess.DEVNULL)
    sys.path.insert(0, str(SRC))
    facts = machine_facts()

    out = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(workload, out, deadline=started + TIME_LIMIT_S)
    seeds = workload.seeds(args.seed)

    if args.trace:
        values, records = measure_traced(runner, seeds[0], args.seconds)
    else:
        records = measure_untraced(runner, seeds, args.seconds)
        values = end_to_end(records, runner) if records else None

    facts["loadavg_end"] = _loadavg()
    facts["host_loop_ms_end"] = host_loop_ms()
    metrics = {}
    if values is not None:
        for m in wanted:
            if m["name"] not in values:
                runner.errors.append(f"metric {m['name']} was not measured")
                continue
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    correct = not runner.errors and len(metrics) == len(wanted)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} iterations on sub-seeds {sorted({r['seed'] for r in records})}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print("artifacts " + json.dumps(runner.artifacts, sort_keys=True))
    if not args.trace and records:
        steps = sum(len(r["steps"]) for r in records)
        print(f"step_s.p50 is the median of {steps} steps "
              f"({'training rounds' if workload.kind == 'run' else 'verify suites'})")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for error in runner.errors:
        print(f"CHECK FAILED: {error}")
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "artifacts": runner.artifacts, "errors": runner.errors,
        "iterations": [
            {k: v for k, v in r.items() if k in ("seed", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "steps", "digest")}
            for r in records
        ],
        "metrics": metrics,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
