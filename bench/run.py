"""wordgraphs benchmark: `wg` verbs in a closed loop, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Operations go through
wordgraphs.cli.main(argv) in this process with --json, the code path of
the `wg` script including its argument parsing; one client, each op sent
after the previous one returned. A run repeats whole passes of its
workload (see workloads.py), stopping at the pass boundary nearest to S
seconds of op time (in reference seconds, below), and checks every answer
with the oracles after each pass, outside the timed region.

Every time in the metrics is in reference seconds: wall time scaled by the
machine's pace, which pace.py samples on an interval timer while the ops
run, because a shared VM changes speed by up to half for seconds at a
time. The result file and stdout keep the wall-clock figures too.

--trace 0 prints the end-to-end metrics. --trace 1 runs the first pass
three times: in a child interpreter under a second hash seed, then
untraced and traced here. It prints the per-layer metrics and the tracing
overhead, and counts the run wrong unless all three give the same answer
digests.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Each run also writes bench/results/<name>.json with a
sha1 digest of every op's exit code and stdout; bench/compare.py diffs two
such files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
HASH_SEED = "0"
SECOND_HASH_SEED = "1"
SETUP_REPEATS = 15
FAILING_CODES = (2, 3, 4)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced reference pass of a traced run
    parser.add_argument("--reference-pass", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--hash-seed", default=HASH_SEED, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env(hash_seed: str) -> dict[str, str]:
    """This environment without the CLI's budget overrides, which change
    answers, and with a pinned hash seed and the checkout's sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WG_BUDGET_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(SRC)
    return env


def run_op(main, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Exit code, stdout, and the exception type if main raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash of the program under test is a failed op
        return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


class Setup:
    """Times of fresh interpreters each running one trivial op.

    The samples are spread over the run rather than taken back to back, and
    the metric is their median. Each is taken in reference seconds, with
    the pace measured just before and just after the interpreter runs.
    """

    def __init__(self, op):
        self.op = op
        self.times: list[float] = []
        self.wall: list[float] = []
        self.problems: list[str] = []

    def sample(self, upto: int) -> None:
        for name, text in self.op.files.items():
            Path(name).write_text(text, encoding="utf-8")
        env = child_env(HASH_SEED)
        while len(self.times) < upto:
            before = pace.measure()
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "wordgraphs.cli", *self.op.argv],
                env=env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=60,
            )
            wall = time.perf_counter() - start
            self.wall.append(wall)
            self.times.append(pace.reference(wall, (before + pace.measure()) / 2))
            problem = self.op.check(proc.returncode, proc.stdout)
            if problem:
                self.problems.append(f"setup op: {problem}")


class Run:
    """Closed-loop execution of passes, with per-op records.

    Each op's latency is its wall time, less the time the pace sampler took
    from it, in reference seconds at the pace sampled around it.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.make_pass, self.make_setup = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.records: list[dict] = []
        self.wall = 0.0
        self.reference = 0.0

    def run_pass(self, p: int, cli, tracer=None) -> None:
        ops = self.make_pass(self.seed, p, str(self.workdir))
        for op in ops:
            for name, text in op.files.items():
                Path(name).write_text(text, encoding="utf-8")
        raw = []
        clock = time.perf_counter
        sampler = pace.Sampler()
        sampler.start()
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = len(self.records) + i
                stolen = sampler.stolen
                start = clock()
                code, stdout, error = run_op(cli.main, op.argv)
                end = clock()
                raw.append((start, end, end - start - (sampler.stolen - stolen), code, stdout, error))
        finally:
            sampler.stop()
        for op, (start, end, wall, code, stdout, error) in zip(ops, raw):
            latency = pace.reference(wall, sampler.around(start, end))
            self.wall += wall
            self.reference += latency
            self.records.append(self._record(p, op, latency, wall, code, stdout, error))
        for name in {name for op in ops for name in op.files}:
            os.remove(name)

    def _record(self, p, op, latency, wall, code, stdout, error) -> dict:
        wrong = None
        if error is None and code not in FAILING_CODES:
            wrong = op.check(code, stdout)
        ok = error is None and code not in FAILING_CODES and wrong is None
        digest = hashlib.sha1(f"{code}\n{stdout}".encode()).hexdigest() if ok else None
        return {
            "op": len(self.records),
            "pass": p,
            "verb": " ".join(op.argv[:2] if op.argv[0] == "cwd" else op.argv[:1]),
            "units": op.units,
            "latency_ms": latency * 1000,
            "wall_ms": wall * 1000,
            "code": code,
            "error": error,
            "wrong": wrong,
            "digest": digest,
        }

    def counts(self) -> tuple[int, int]:
        attempted = sum(r["units"] for r in self.records)
        failed = sum(r["units"] for r in self.records if r["digest"] is None)
        return attempted, failed


def _import_cli():
    if not (SRC / "wordgraphs" / "cli.py").is_file():
        sys.exit(f"error: no wordgraphs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("wordgraphs.cli")


def _failure_summary(records: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for r in records:
        if r["digest"] is None:
            key = f"{r['verb']}: " + (r["error"] or ("wrong answer" if r["wrong"] else f"exit {r['code']}"))
            kinds[key] = kinds.get(key, 0) + 1
    return kinds


def _warm(run: Run, cli) -> None:
    """Run the trivial op once in process, so timing starts on a warm path
    as every later op of a pass finds it."""
    op = run.make_setup(str(run.workdir))
    for name, text in op.files.items():
        Path(name).write_text(text, encoding="utf-8")
    run_op(cli.main, op.argv)


def _wrong(run: Run) -> list[str]:
    return [f"op {r['op']} ({r['verb']}): {r['wrong']}" for r in run.records if r["wrong"]]


def timed_run(args, cli, workdir: Path) -> tuple[dict, Run, dict]:
    run = Run(args.workload, args.seed, workdir)
    setup = Setup(run.make_setup(str(workdir)))
    setup.sample(1)
    _warm(run, cli)
    p = 0
    # stop at the pass boundary nearest to --seconds of op time in reference
    # seconds, so that the machine's pace does not change the number of
    # passes, and with it which ops the percentiles are taken over
    while p == 0 or run.reference + run.reference / p / 2 < args.seconds:
        run.run_pass(p, cli)
        p += 1
        setup.sample(math.ceil(SETUP_REPEATS * min(1.0, run.reference / args.seconds)))
    setup.sample(SETUP_REPEATS)
    attempted, failed = run.counts()
    latencies = [r["latency_ms"] for r in run.records]
    p50, p90 = tracing.percentiles(latencies)
    wall_p50, wall_p90 = tracing.percentiles([r["wall_ms"] for r in run.records])
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "ops_per_s": ((attempted - failed) / run.reference, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": p,
        "timed_s": run.wall,
        "reference_s": run.reference,
        "latency_samples": len(latencies),
        "failed_ratio": failed / attempted,
        "failures": _failure_summary(run.records),
        "setup_samples_s": setup.times,
        # the same figures in plain wall-clock time, at whatever pace the machine had
        "wall_clock": {
            "setup_s": statistics.median(setup.wall),
            "ops_per_s": (attempted - failed) / run.wall,
            "op_p50_ms": wall_p50,
            "op_p90_ms": wall_p90,
        },
        "problems": setup.problems + _wrong(run),
    }
    return metrics, run, info


def reference_pass(args, cli, workdir: Path) -> None:
    """One untraced pass; writes its digests to args.reference_pass."""
    run = Run(args.workload, args.seed, workdir)
    run.run_pass(0, cli)
    digests = [r["digest"] for r in run.records]
    Path(args.reference_pass).write_text(json.dumps(digests), encoding="utf-8")


def traced_run(args, cli, workdir: Path, spans_file: Path) -> tuple[dict, Run, dict]:
    """Pass 0 three times: under the second hash seed in a child, then
    untraced and traced here. The two here give the tracing overhead; all
    three must give the same digests."""
    reference_file = workdir / "reference.json"
    subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--reference-pass", str(reference_file), "--hash-seed", SECOND_HASH_SEED,
        ],
        env=child_env(SECOND_HASH_SEED),
        cwd=ROOT,
        check=True,
        timeout=170,
    )
    other_seed = json.loads(reference_file.read_text(encoding="utf-8"))
    untraced = Run(args.workload, args.seed, workdir)
    _warm(untraced, cli)
    untraced.run_pass(0, cli)
    run = Run(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(0, cli, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(str(spans_file))
    attempted, failed = run.counts()
    metrics = tracer.layer_metrics()
    metrics["bench.trace_overhead_ratio"] = (run.reference / untraced.reference, "ratio")
    problems = _wrong(run)
    for label, digests in (
        (f"untraced under hash seed {SECOND_HASH_SEED}", other_seed),
        ("untraced", [r["digest"] for r in untraced.records]),
    ):
        differ = [i for i, (a, b) in enumerate(zip(digests, run.records)) if a != b["digest"]]
        if differ or len(digests) != len(run.records):
            problems.append(f"digests of the traced pass and the {label} pass differ at ops {differ}")
    info = {
        "passes": 1,
        "timed_s": run.wall,
        "reference_s": run.reference,
        "untraced_ops_per_s": (attempted - failed) / untraced.reference,
        "traced_ops_per_s": (attempted - failed) / run.reference,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failed_ratio": failed / attempted,
        "failures": _failure_summary(run.records),
        "problems": problems,
    }
    return metrics, run, info


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if os.environ.get("PYTHONHASHSEED") != args.hash_seed or any(k.startswith("WG_BUDGET_") for k in os.environ):
        # answers must not depend on set iteration order, so every run uses one hash seed
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], child_env(args.hash_seed))
    cli = _import_cli()
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = BENCH / ".work" / stamp
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.reference_pass:
            reference_pass(args, cli, workdir)
            return 0
        if args.trace:
            metrics, run, info = traced_run(args, cli, workdir, RESULTS / f"{stamp}.spans.jsonl.gz")
        else:
            metrics, run, info = timed_run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = run.counts()
    correct = not info["problems"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **info,
        "ops": run.records,
    }
    out_file = RESULTS / f"{stamp}.json"
    out_file.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for problem in info["problems"][:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {info['passes']} pass(es), {info['timed_s']:.2f} s of op time ({info['reference_s']:.2f} reference s), results in {out_file.relative_to(ROOT)}")
    if args.trace:
        print(f"tracing overhead: {info['untraced_ops_per_s']:.3f} ops/s untraced vs {info['traced_ops_per_s']:.3f} traced, {info['spans']} spans")
    else:
        samples = info["latency_samples"]
        print(f"latency samples: {samples} ops, {samples // 10} beyond p90; setup samples: {SETUP_REPEATS} fresh interpreters")
        print(f"times below are reference seconds (see pace.py); in wall-clock time: {info['wall_clock']}")
    print(f"failed_ratio: {info['failed_ratio']:.6f} ({failed} of {attempted}) {info['failures']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
