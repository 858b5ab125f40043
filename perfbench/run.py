"""Benchmark of the manikernels pipeline, run in-process through its CLI.

    python3 perfbench/run.py --workload gram-metrics --seed 1 --seconds 20 --trace 0

Each workload runs in one Python process with MANIKERNELS_THREADS=1
(set MANIKERNELS_THREADS to another count, or to the empty string for
the BLAS default, to override). The process imports the package once,
writes its inputs from ``--seed``, runs the set-up, one untimed warm-up
pass and then timed passes for ``--seconds``, calling
``manikernels.cli.run(argv)`` for every command and checking every file
each command writes.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it holds the per-layer metrics, taken from the
traced passes only, plus the tracing overhead. ``--workload all`` runs
every workload, each in its own process, and prints their results.

Run results go to ``.perfbench/results/`` and the spans of a traced run
to ``.perfbench/traces/``, both under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("gram-metrics", "fit-logeuc", "covdesc-select")

# Fresh interpreters timed for import_s, and repetitions of each
# repeatable set-up stage. The import samples are spread evenly over the
# timed passes, one due every ``seconds / IMPORT_SAMPLES`` of them, and
# their trimmed mean is reported. The speed of a shared machine drifts
# between states up to 2x apart for seconds at a time, so a median of
# short samples jumps between those states where a mean follows their
# average, as the passes do; trimming keeps a single stalled sample out.
IMPORT_SAMPLES = 16
IMPORT_TRIM = 0.2
SETUP_REPEATS = 3

E2E_UNITS = {"import_s": "s", "setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import manikernels.cli; "
    "print(time.perf_counter() - t)"
)


def _thread_env() -> None:
    """Cap BLAS pools before numpy loads, as ``manikernels`` does, but
    overriding any OMP/BLAS variable inherited from the caller."""
    threads = os.environ.setdefault("MANIKERNELS_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if threads:
            os.environ[var] = threads
        else:
            os.environ.pop(var, None)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_sample() -> float:
    """Wall time of ``import manikernels.cli`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def trimmed_mean(values, share: float) -> float:
    """Mean of ``values`` without the ``share`` lowest and the ``share`` highest of them."""
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.fmean(values[cut : len(values) - cut])


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric in ("features.logs_per_descriptor", "trace.overhead"):
        return "ratio"
    return "count"


class Runner:
    """Set-up, warm-up and timed passes of one workload in this process."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: dict[str, int] = {}

    def command(self, argv) -> tuple[int, float, float]:
        wall, cpu = time.perf_counter(), time.process_time()
        code = self.cli.run(argv)
        return code, time.perf_counter() - wall, time.process_time() - cpu

    def _record(self, message: str, known: bool) -> None:
        self.failed += 1
        self.correct = self.correct and known
        self.problems[message] = self.problems.get(message, 0) + 1

    def run_op(self, op) -> tuple[float, float] | None:
        """Run and check one op; returns its command's (wall, cpu) time, or None if it crashed."""
        from workloads import CheckError, KnownFault  # loads numpy, so not before _thread_env

        self.attempted += 1
        try:
            code, dt, dc = self.command(op.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            self._record(f"{op.command}: crashed\n{traceback.format_exc()}", known=False)
            return None
        if code != 0:
            self._record(f"{op.command}: exit code {code}", known=False)
            return dt, dc
        try:
            op.check()
        except KnownFault as exc:
            self._record(f"known fault, {exc}", known=True)
        except CheckError as exc:
            self._record(str(exc), known=False)
        except Exception:
            self._record(f"{op.command}: check raised\n{traceback.format_exc()}", known=False)
        return dt, dc

    def run_pass(self, ops, after_op=None) -> dict:
        """One pass: every op runs and is checked, failing or not.
        ``after_op`` is called after each op, outside the pass's time."""
        wall = cpu = 0.0
        per_command = []
        for op in ops:
            op.output.unlink(missing_ok=True)
        for op in ops:
            times = self.run_op(op)
            if times is not None:
                wall += times[0]
                cpu += times[1]
                per_command.append([op.command, times[0]])
            if after_op is not None:
                after_op()
        return {"wall_s": wall, "cpu_s": cpu, "commands": per_command}

    def setup(self) -> float:
        """Inputs and set-up commands, repeated; returns their median times summed."""
        inputs, training = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            self.workload.make_inputs()
            inputs.append(time.perf_counter() - t)
            spent = 0.0
            for argv in self.workload.setup_commands():
                code, dt, _ = self.command(argv)
                if code != 0:
                    raise RuntimeError(f"set-up command {argv[0]} exited with {code}")
                spent += dt
            training.append(spent)
        self.workload.check_setup()
        return statistics.median(inputs) + statistics.median(training)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    t = time.perf_counter()
    import manikernels.cli as cli

    import_inproc = time.perf_counter() - t
    import workloads
    from spans import Tracer

    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        workload = workloads.WORKLOADS[name](seed, work)
        runner = Runner(cli, workload)
        setup_stages = runner.setup()
        ops = workload.ops()
        warmup = runner.run_pass(ops)
        setup_s = import_inproc + setup_stages + warmup["wall_s"]

        passes, traced_passes, bounds, imports = [], [], [], []
        start = time.perf_counter()
        spent_importing = 0.0

        def sample_imports():
            """Take the import samples due by now; the passes keep their full time."""
            nonlocal spent_importing
            t = time.perf_counter()
            due = int((t - start - spent_importing) * IMPORT_SAMPLES / seconds)
            while len(imports) < min(due, IMPORT_SAMPLES):
                imports.append(import_sample())
            spent_importing += time.perf_counter() - t

        while True:
            passes.append(runner.run_pass(ops, None if trace else sample_imports))
            if trace:
                lo = len(tracer)
                tracer.install()
                try:
                    traced_passes.append(runner.run_pass(ops))
                finally:
                    tracer.uninstall()
                bounds.append((lo, len(tracer)))
            if time.perf_counter() - start - spent_importing >= seconds:
                break
        while not trace and len(imports) < IMPORT_SAMPLES:
            imports.append(import_sample())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "threads": os.environ.get("MANIKERNELS_THREADS", ""),
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "import_samples": imports,
        "passes": passes,
        "traced_passes": traced_passes,
    }
    pass_s = statistics.median(p["wall_s"] for p in passes)
    if trace:
        per_pass = [tracer.pass_metrics(lo, hi) for lo, hi in bounds]
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        metrics["trace.overhead"] = statistics.median(p["wall_s"] for p in traced_passes) / pass_s
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.save(traces / f"{name}.npz", bounds)
    else:
        metrics = {
            "import_s": trimmed_mean(imports, IMPORT_TRIM),
            "setup_s": setup_s,
            "pass_s": pass_s,
            "pass_cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["metrics"] = metrics
    result["run_s"] = time.perf_counter() - started
    return result


def _summary(result: dict) -> list[str]:
    lines = [f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
             f"{len(result['passes'])} timed passes, attempted {result['attempted']}, failed {result['failed']}"]
    for message, count in result.get("problems", {}).items():
        lines.append(f"  failed x{count}: {message.splitlines()[0]}")
    for key, value in result["metrics"].items():
        lines.append(f"  {key:32s} {value:14.6g} {unit_of(key)}")
    return lines


def _report(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process with the same flags."""
    reports = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        reports[name] = json.loads(out[-1])
    combined = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {f"{w}/{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "manikernels" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    _thread_env()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print("\n".join(_summary(result)))
    print(json.dumps(_report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
