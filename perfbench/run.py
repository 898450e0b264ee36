#!/usr/bin/env python3
"""Benchmark of the commgraph CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --size tiny --seconds 1

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`, and everything the run writes goes under
`.perfbench_run/` at the checkout root.

With `--trace 0` one closed-loop client runs the workload's CLI calls one
after another, each in a fresh interpreter, for `--seconds`, and reports the
end-to-end metrics. With `--trace 1` the same calls run in-process,
alternating untraced and traced runs, and the per-layer metrics come from
the spans. Every output is checked outside the timed region. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` instead prints every metric of every workload as a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import count
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Invocation, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SAMPLE = ROOT / "data" / "sample"

END_TO_END = {"wall_s": "s", "edges_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# A seed makes this many input sets of the workload's shapes, and successive
# runs take them in turn, so that a result is not the cost of one random draw
# (Louvain's sweeps, for one, vary by a sixth between collab draws).
INPUTS_PER_SEED = 3
SETUP_CODE = "import commgraph.cli as cli; cli.build_parser()"
# End-to-end times are reported at the machine speed at which reference_time()
# reads REF_SECONDS, about its typical reading on a 2-vCPU Xeon VM. On a shared
# host the speed drifts by a sixth over minutes; scaling each run by a
# reference timed on both sides of it takes that drift out.
REF_SECONDS = 0.2
REF_ITERATIONS = 2_000_000
TIME_MARGIN_S = 100  # beyond --seconds: inputs, warm-up, checks and a last overlong run


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers let it pass."""


def _on_alarm(signum, frame):
    raise Deadline(f"benchmark ran more than {TIME_MARGIN_S} s over --seconds")


class Tally:
    """Invocations attempted and failed, with every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def spawn(args: list[str], log: Path) -> tuple[int, float]:
    """Run `python args` to completion; return (exit code, max RSS in MB)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def verify(tally, first: dict, key, code: int, inv: Invocation, truth, out: Path, what: str) -> None:
    """Exit code, then the full check on the first output, bytes on the rest.

    A later output identical to the first inherits the first one's verdict.
    """
    if code != 0:
        tally.add(what, [f"exit code {code}"])
        return
    digest = checks.digest_dir(out)
    if key not in first:
        try:
            problems = inv.check(truth, out)
        except Exception as exc:  # a malformed output the check did not foresee
            traceback.print_exc()
            problems = [f"output check raised {exc!r}"]
        first[key] = (digest, problems)
    first_digest, first_problems = first[key]
    tally.add(what, first_problems if digest == first_digest else ["output bytes differ from the first run"])


def golden_problems(out: Path) -> list[str]:
    path = out / "report.json"
    if not path.exists():
        return ["no report.json"]
    if path.read_bytes() != (SAMPLE / "report.json").read_bytes():
        return ["report.json differs from data/sample/report.json"]
    return []


def golden_argv(out: Path) -> list[str]:
    return ["analyze", "--edges", str(SAMPLE / "edges.csv"), "--out", str(out)]


def _fresh_dirs(run_dir: Path, n: int) -> list[Path]:
    outs = [run_dir / str(i) for i in range(n)]
    for out in outs:
        out.mkdir(parents=True)
    return outs


def _setup_sample(log: Path) -> float:
    t0 = time.perf_counter()
    code, _ = spawn(["-c", SETUP_CODE], log)
    if code != 0:
        raise RuntimeError(f"importing commgraph.cli failed (exit {code}), see {log}")
    return time.perf_counter() - t0


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop that uses no program code.

    Of the loops tried (integer arithmetic, dict and sort churn, the same
    loop in a fresh interpreter), this one tracked the CLI runs best.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


def measure_cli(wl: Workload, input_sets: list, seconds: float, work: Path, tally: Tally) -> dict:
    """End-to-end metrics, tracing off: one fresh CLI process per call.

    Each workload run and the set-up sample after it are scaled by
    REF_SECONDS over the mean of the reference times taken just before and
    just after them, so that all times are at one nominal machine speed.
    """
    log = work / "cli.log"
    _setup_sample(log)  # warm-up: writes the bytecode caches
    code, _ = spawn(["-m", "commgraph.cli", *golden_argv(work / "golden")], log)
    tally.add("golden data/sample", [f"exit code {code}"] if code else golden_problems(work / "golden"))

    walls, raw_walls, setup, rss, first = [], [], [], [], {}
    refs = [reference_time()]
    start = time.perf_counter()
    for k in count():
        inputs = input_sets[k % len(input_sets)]
        run_dir = work / f"run{k}"
        outs = _fresh_dirs(run_dir, len(wl.invocations))
        argvs = [["-m", "commgraph.cli", *inv.render(inputs[inv.input], out)]
                 for inv, out in zip(wl.invocations, outs)]
        t0 = time.perf_counter()
        results = [spawn(argv, log) for argv in argvs]
        raw_walls.append(time.perf_counter() - t0)
        raw_setup = _setup_sample(log)
        refs.append(reference_time())
        scale = REF_SECONDS / statistics.mean(refs[-2:])
        walls.append(raw_walls[-1] * scale)
        setup.append(raw_setup * scale)
        rss += [r for _, r in results]
        for i, ((code, _), inv, out) in enumerate(zip(results, wl.invocations, outs)):
            verify(tally, first, (k % len(input_sets), i), code, inv, inputs[inv.input], out, f"run {k} call {i}")
        if k:
            shutil.rmtree(run_dir)
        if time.perf_counter() - start + statistics.median(raw_walls) > seconds:
            break

    wall = statistics.median(walls)
    print(f"{wl.name}: {len(walls)} runs, wall_s min {min(walls):.4f} median {wall:.4f} "
          f"max {max(walls):.4f}; unscaled median {statistics.median(raw_walls):.4f}; "
          f"reference {min(refs):.4f}-{max(refs):.4f} s; setup_s {len(setup)} samples; "
          f"runs {' '.join(f'{w:.4f}' for w in walls)}", file=sys.stderr)
    return {
        "wall_s": wall,
        "edges_per_s": statistics.mean(map(wl.edge_rows, input_sets)) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }


def measure_traced(wl: Workload, input_sets: list, seconds: float, work: Path, tally: Tally) -> dict:
    """Per-layer metrics: in-process runs, alternating untraced and traced."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import commgraph
    import commgraph.cli as cli

    if not Path(commgraph.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported commgraph from {commgraph.__file__}, not from {SRC}")
    code = cli.main(golden_argv(work / "golden"))
    tally.add("golden data/sample", [f"exit code {code}"] if code else golden_problems(work / "golden"))

    recorder = spans.Recorder()
    times = {"plain": [], "traced": []}
    per_run, first, missing, recorded = [], {}, [], set()
    start = time.perf_counter()
    for k in count():
        inputs = input_sets[k % len(input_sets)]
        for mode in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            run_dir = work / f"{mode}{k}"
            outs = _fresh_dirs(run_dir, len(wl.invocations))
            argvs = [inv.render(inputs[inv.input], out) for inv, out in zip(wl.invocations, outs)]
            recorder.run_id = f"{wl.name}-{mode}{k}"
            with recorder.installed() if mode == "traced" else nullcontext(missing) as missing:
                t0 = time.perf_counter()
                codes = [cli.main(argv) for argv in argvs]
                elapsed = time.perf_counter() - t0
            times[mode].append(elapsed)
            for i, (code, inv, out) in enumerate(zip(codes, wl.invocations, outs)):
                verify(tally, first, (k % len(input_sets), i), code, inv, inputs[inv.input], out,
                       f"{mode} run {k} call {i}")
            if mode == "traced":
                run_spans = recorder.run_spans(recorder.run_id)
                recorded.update(span.name for span in run_spans)
                values = spans.run_metrics(run_spans, elapsed)
                values["report.bytes_written"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
                per_run.append(values)
                spans.release(run_spans)
            if k:
                shutil.rmtree(run_dir)
        elapsed_total = time.perf_counter() - start
        if elapsed_total + statistics.median(times["plain"]) + statistics.median(times["traced"]) > seconds:
            break

    if missing:
        print(f"{wl.name}: layers not found in the program: {', '.join(missing)}", file=sys.stderr)
    if silent := [name for name in wl.layers if name not in recorded and name not in missing]:
        print(f"{wl.name}: WARNING layers that recorded no span, so their metrics read 0: "
              f"{', '.join(silent)}", file=sys.stderr)
    recorder.dump(work / "spans.jsonl")
    metrics = spans.median_metrics(per_run)
    plain, traced = statistics.median(times["plain"]), statistics.median(times["traced"])
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    print(f"{wl.name}: {len(per_run)} traced and {len(times['plain'])} untraced in-process runs, "
          f"spans in {work / 'spans.jsonl'}", file=sys.stderr)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_sets = [wl.generate(work / "inputs" / str(j), seed * INPUTS_PER_SEED + j, tiny)
                  for j in range(INPUTS_PER_SEED)]
    tally = Tally()
    if trace:
        values = measure_traced(wl, input_sets, seconds, work, tally)
        units = spans.PER_LAYER
    else:
        values = measure_cli(wl, input_sets, seconds, work, tally)
        units = END_TO_END
    for problem in tally.problems:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "commgraph" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'commgraph'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    time_limit = max(1, math.ceil(args.seconds) + TIME_MARGIN_S)
    try:
        if args.workload != "all":
            signal.alarm(time_limit)
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
            print(json.dumps(result))
            return 0
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                signal.alarm(time_limit)
                result = run_workload(name, args.seed, args.seconds, trace, args.size == "tiny")
                ok = ok and result["correct"]
                for metric, entry in result["metrics"].items():
                    print(f"{name:24} {metric:30} {entry['value']:>16.6g} {entry['unit']}")
        return 0 if ok else 1
    except (Deadline, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
