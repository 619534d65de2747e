"""Benchmark of the ``mlq`` CLI, run from outside as users run it.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  For the chosen workload the benchmark
writes a seeded config, then repeats the CLI command
(``python3 -m mlq.cli COMMAND --config ... --jobs 1``, BLAS/OpenMP threads
pinned to 1) until S seconds have passed, and checks every command's
outputs.  With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json`` (medians over the run; times are rescaled to a reference
host speed by ``calibration.py``); with ``--trace 1`` it alternates
untraced and traced commands and reports the per-layer metrics.  Human
readable lines come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.  Scratch files go to
``.perfbench_runs/`` in the checkout.

This process imports no numpy, scipy or ``mlq`` (see ``helper.py``): the
calibration kernel and the oracles run in a helper process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layer_trace
from calibration import at_reference_speed
from workloads import DEFAULT_SEED, FACTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
JOBS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up probes per run (after one discarded warm-up probe)
SETUP_SAMPLES = 3
#: traced and untraced commands per traced run, at least
MIN_TRACE_PAIRS = 2
COMMAND_TIMEOUT_S = 150


@dataclass
class ProcResult:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    start_ns: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MLQ_JOBS", None)  # it would override --jobs
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Helper:
    """The long-lived ``helper.py`` process: calibration kernel and oracles."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "helper.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.kill()
        self.proc.wait()

    def _ask(self, **request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"helper exited with code {self.proc.wait()}")
        return json.loads(line)

    def kernel_s(self) -> float:
        return self._ask(op="kernel")

    def oracle(self, workload: str, config: dict):
        return self._ask(op="oracle", workload=workload, config=config)


def run_process(argv: list[str], log: Path) -> ProcResult:
    """Run argv to completion; wall time, CPU time and peak RSS of that process."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        start_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no command running
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        start_ns=start_ns,
    )


def setup_samples(cfg_path: Path, run_dir: Path, helper: Helper) -> tuple[list[float], list[float]]:
    """Seconds from process start to the first pipeline call per probe, and the
    kernel times around each probe."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)]
    log = run_dir / "setup"
    samples, kernels = [], []
    for i in range(SETUP_SAMPLES + 1):
        res = run_process(argv, log)
        text = log.with_suffix(".out").read_text().split()
        if res.rc != 0 or not text:
            raise RuntimeError(f"set-up probe failed (exit {res.rc}): "
                               f"{log.with_suffix('.err').read_text()[-500:]}")
        kernels.append(helper.kernel_s())
        if i:  # the first probe warms the file cache and writes bytecode
            samples.append((int(text[-1]) - res.start_ns) / 1e9)
    return samples, kernels


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """All commands of one workload run, with their checked outcomes."""

    def __init__(self, wl, seed: int, helper: Helper) -> None:
        self.wl = wl
        self.dir = RUNS / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = wl.config(seed)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.oracle = helper.oracle(wl.name, self.cfg)
        self.out_dir = self.dir / "out"
        self.trace_path = self.dir / "trace.json"
        self.attempted = 0
        self.failed = 0
        self.margins: list[float] = []
        self.errors: list[str] = []
        self.facts: dict[str, float] = {}

    def command(self, traced: bool = False) -> ProcResult:
        """Run the workload's CLI command once and check what it wrote."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.trace_path.unlink(missing_ok=True)
        args = [self.wl.command, "--config", str(self.cfg_path), "--out", str(self.out_dir),
                "--jobs", str(JOBS)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(self.trace_path)]
        else:
            argv = [sys.executable, "-m", "mlq.cli"]
        log = self.dir / ("traced" if traced else "command")
        res = run_process(argv + args, log)
        outcome = self.wl.check(self.out_dir, self.cfg, self.oracle)
        if res.rc != 0:
            outcome.failed = outcome.attempted
            outcome.errors.append(f"exit code {res.rc}: {log.with_suffix('.err').read_text()[-300:]}")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.margins.append(outcome.margin_digits)
        self.errors += outcome.errors
        self.facts = outcome.facts
        return res

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def measure_untraced(run: Run, seconds: float, helper: Helper) -> dict[str, list[float]]:
    helper.kernel_s()  # the first call pays one-time BLAS and allocation costs
    setup, setup_kernels = setup_samples(run.cfg_path, run.dir, helper)
    procs, kernels = [], [helper.kernel_s()]
    t_end = time.perf_counter() + seconds
    while not procs or time.perf_counter() < t_end:
        procs.append(run.command())
        kernels.append(helper.kernel_s())
    walls = [p.wall_s for p in procs]
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_mb >= min(p.peak_rss_mb for p in procs):
        run.errors.append(f"harness peak RSS {own_mb:.1f} MB masks the commands' peak RSS")
    return {
        "wall_s": at_reference_speed(walls, kernels),
        "setup_s": at_reference_speed(setup, setup_kernels),
        "peak_rss_mb": [p.peak_rss_mb for p in procs],
        "margin_digits": run.margins,
        "wall_raw_s": walls,
        "setup_raw_s": setup,
        "kernel_s": kernels + setup_kernels,
    }


def measure_traced(run: Run, seconds: float, helper: Helper) -> dict[str, list[float]]:
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < t_end:
        plain.append(run.command())
        traced.append(run.command(traced=True))
        if not run.trace_path.is_file():
            raise RuntimeError(f"traced command wrote no trace: {run.errors[-1:]}")
        layers.append(layer_trace.summarize(json.loads(run.trace_path.read_text())["spans"]))
    samples = {k: [m[k] for m in layers] for k in layers[0]}
    for key in layer_trace.COUNTS:
        if len(set(samples[key])) > 1:
            run.errors.append(f"trace count {key} differs between traced runs: {samples[key]}")
    samples.update({k: [run.facts.get(k, 0)] for k in FACTS})
    samples["cli.bytes_written"] = [dir_bytes(run.out_dir)]
    samples["proc.cpu_per_wall"] = [p.cpu_s / p.wall_s for p in plain]
    samples["trace.overhead_s"] = [statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in plain)]
    samples["traced_wall_s"] = [p.wall_s for p in traced]
    samples["untraced_wall_s"] = [p.wall_s for p in plain]
    return samples


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 helper: Helper) -> tuple[Run, dict]:
    run = Run(WORKLOADS[name], seed, helper)
    samples = (measure_traced if trace else measure_untraced)(run, seconds, helper)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(samples))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in units.items()}

    print(f"== {name}  seed={seed}  {'traced' if trace else 'untraced'}  jobs={JOBS}  "
          f"{'/'.join(THREAD_VARS)}=1  nproc={os.cpu_count()}  "
          f"python={sys.version.split()[0]}")
    for k, v in samples.items():
        unit = units.get(k, "s" if k.endswith("_s") else "")
        extra = "" if k in units else "  (context, not gated)"
        print(f"  {k:<44} {statistics.median(v):>14.6g} {unit:<7} n={len(v)}{extra}")
    frac = run.failed / run.attempted
    print(f"  {'failed_frac':<44} {frac:>14.6g} {'1':<7} n={run.attempted}  "
          f"({run.failed} of {run.attempted} units failed)")
    for err in run.errors[:10]:
        print(f"  CHECK FAILED: {err}")
    (run.dir / "result.json").write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "jobs": JOBS,
        "blas_threads": 1, "nproc": os.cpu_count(), "metrics": metrics,
        "samples": samples, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors,
    }, indent=2) + "\n")
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlq" / "cli.py").is_file():
        print(f"no mlq sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM unwind like Ctrl-C, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with Helper() as helper:
        for name in names:
            run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), helper)
            result["correct"] &= run.correct
            result["attempted"] += run.attempted
            result["failed"] += run.failed
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
