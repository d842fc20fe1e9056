"""fairteams benchmark: drives the real CLI in process and gates its output.

    python3 bench/run.py --workload fern_n400 --seed 0 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics. --trace 1 installs the span
tracer (bench/tracer.py) and reports per-layer metrics instead. --smoke
shrinks every workload to 40 students for the benchmark's own tests. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. bench/README.md describes the workloads.

Inputs come only from --seed. Set-up (import, roster generation, the GA's
sizing solve) runs in fresh interpreters, several times, so that its median
is a metric of its own and the measured process starts the same way on
every run.

Set-up, ga_n100 and grid_small times are reported in calibrated seconds:
each is divided by how much slower than on the reference host a fixed
numpy kernel (calibrate()) ran right before and after it. On shared hosts
the same solve's speed swings by half within a minute; the kernel swings
with it, the ratio does not. Raw seconds are printed in the report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import gate  # noqa: E402
from tracer import PassCounter, Tracer  # noqa: E402

SETUP_REPS = 3
# calibration kernel repeats and the seconds they took on the 2-core x86-64
# host the benchmark was built on; only a unit: calibrated seconds read as
# seconds there
KERNEL_REPEATS, KERNEL_REFERENCE_S = 9000, 0.3
GRID_METHODS = ("fern", "gmbf", "random", "umeans")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n: int
    method: str | None = None  # solve workloads; None runs the grid
    grid_seeds: int = 0
    # fern_n400 reports wall_s and cpu_s per refinement pass: the pass count
    # is a property of the roster (2 to 5 at n=400), so time per solve would
    # measure which roster the seed drew more than it measures the code
    per_pass: bool = False
    # fern_n400's (N, L, m) array passes do not follow the kernel's speed:
    # calibrating them widened their run-to-run spread from 0.06-0.12 to
    # 0.2, with this kernel or one over arrays of their shape
    calibrated: bool = True

    def size(self, smoke: bool) -> int:
        return 40 if smoke else self.n

    def seeds(self, seed: int, smoke: bool) -> range:
        return range(seed, seed + (min(self.grid_seeds, 4) if smoke
                                   else self.grid_seeds))


WORKLOADS = {w.name: w for w in (
    Workload("fern_n400", "d3", 400, method="fern", per_pass=True,
             calibrated=False),
    Workload("ga_n100", "d3", 100, method="ga"),
    Workload("grid_small", "d2", 60, grid_seeds=20),
)}


def cli_quiet(cli, argv) -> str:
    """Run the CLI with its output captured; raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"fairteams {' '.join(argv)} exited {status}: "
                           f"{err.getvalue().strip()}")
    return out.getvalue()


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of a fixed kernel that shares no code with the
    program, as multiples of its time on the reference host: small-matrix
    numpy calls inside a Python loop, the mix ga_n100, grid_small and the
    package import spend their time in. It runs 0.3 s there, long enough to
    average the host's second-to-second swings."""
    import numpy as np
    rng = np.random.default_rng(0)
    benefit = rng.random((100, 100))
    labels = rng.integers(0, 24, 100)
    rows = np.arange(100)

    def step() -> float:
        _, dense = np.unique(labels, return_inverse=True)
        member = np.zeros((100, 24))
        member[rows, dense] = 1.0
        own = (benefit @ member)[rows, dense]
        return float(np.clip(own - 3.0, 0.0, None).sum()) + sum(range(50))

    step()  # first touch of the arrays stays out of the timing
    wall0, cpu0 = time.perf_counter(), time.process_time()
    sum(step() for _ in range(KERNEL_REPEATS))
    return ((time.perf_counter() - wall0) / KERNEL_REFERENCE_S,
            (time.process_time() - cpu0) / KERNEL_REFERENCE_S)


def calibration(workload: Workload) -> tuple[float, float]:
    """Kernel slowdown, or 1 for a workload whose times stay as measured."""
    return calibrate() if workload.calibrated else (1.0, 1.0)


# -- set-up -----------------------------------------------------------------

def prepare(workload: Workload, seed: int, smoke: bool, workdir: Path) -> dict:
    """Import the package and write the inputs. Timed as setup_s."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from fairteams import cli
    inputs = {}
    if workload.method is not None:
        roster = workdir / "roster.csv"
        cli_quiet(cli, ["generate", "--preset", workload.preset,
                        "--n", str(workload.size(smoke)), "--seed", str(seed),
                        "--out", str(roster)])
        inputs["roster"] = str(roster)
        if workload.method == "ga":
            # the GA's team count is l_final of the fern pipeline
            text = cli_quiet(cli, ["solve", "--method", "fern",
                                   "--roster", str(roster), "--assignment-out",
                                   str(workdir / "sizing.csv")])
            inputs["team_count"] = int(gate.parse_metrics(text)[0]["l_final"])
    return {"setup_s": time.perf_counter() - start, "inputs": inputs}


def run_setup(args, workdir: Path) -> tuple[list[float], dict]:
    times, inputs = [], None
    cmd = [sys.executable, str(BENCH / "run.py"), "--prepare", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        if inputs is not None and result["inputs"] != inputs:
            raise RuntimeError("set-up is not deterministic")
        inputs = result["inputs"]
    return times, inputs


# -- operations -------------------------------------------------------------

def op_argv(workload: Workload, args, inputs: dict, out: Path) -> list[str]:
    if workload.method is None:
        seeds = workload.seeds(args.seed, args.smoke)
        return ["experiment", "--preset", workload.preset,
                "--n", str(workload.size(args.smoke)),
                "--methods", ",".join(GRID_METHODS),
                "--seeds", f"{seeds[0]}..{seeds[-1]}", "--out", str(out)]
    argv = ["solve", "--method", workload.method, "--roster",
            inputs["roster"], "--assignment-out", str(out)]
    if "team_count" in inputs:
        argv += ["--seed", "0", "--team-count", str(inputs["team_count"])]
    return argv


@dataclass
class Op:
    index: int
    traced: bool
    out: Path
    status: int = -1
    wall: float = 0.0
    cpu: float = 0.0
    passes: int = 0
    calibration: tuple[float, float] = (1.0, 1.0)  # mean of before/after
    stdout: str = ""
    stderr: str = ""
    counts: dict | None = None
    error: str | None = None


def run_op(cli, counter: PassCounter, tracer: Tracer | None, op: Op,
           argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    passes0 = counter.passes
    before = tracer.start_op(op.index) if op.traced else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.status = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed run
        op.error = traceback.format_exc()
    op.wall = time.perf_counter() - wall0
    op.cpu = time.process_time() - cpu0
    if before is not None:
        op.counts = tracer.stop_op(before)
    op.passes = counter.passes - passes0
    op.stdout, op.stderr = out.getvalue(), err.getvalue()


def run_ops(cli, counter, tracer, workload, args, inputs, workdir,
            before: tuple[float, float]) -> list[Op]:
    """Repeat the operation while the next one should end within --seconds,
    calibrating after each. before is the calibration that precedes the
    first. A traced run alternates traced and untraced operations; the
    untraced ones give the tracing overhead."""
    ops: list[Op] = []
    measured = 0.0
    while not ops or measured + measured / len(ops) <= args.seconds \
            or (tracer is not None and len(ops) < 2):
        op = Op(len(ops), tracer is not None and len(ops) % 2 == 0,
                workdir / f"out-{len(ops)}.csv")
        run_op(cli, counter, tracer, op, op_argv(workload, args, inputs,
                                                 op.out))
        after = calibration(workload)
        op.calibration = ((before[0] + after[0]) / 2,
                          (before[1] + after[1]) / 2)
        before = after
        ops.append(op)
        measured += op.wall
    return ops


# -- checks -----------------------------------------------------------------

def load_oracle():
    spec = importlib.util.spec_from_file_location("fairteams_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_digest(workload: Workload, op: Op) -> str:
    """sha256 of the assignment, or of the metrics CSV without runtime_ms."""
    data = op.out.read_bytes()
    if workload.method is None:
        data = gate.without_runtime(data.decode()).encode()
    return gate.sha256_bytes(data)


def check_ops(workload, args, inputs, ops, oracle):
    """Gate every operation. Returns {op index: message} for failed ops,
    run-level failure messages, and (objective, digest) of the first good
    operation. The oracle runs once per distinct output."""
    failed: dict[int, str] = {}
    run_failures = []
    reference = None
    if args.seed == 0:
        key = reference_key(workload, args.smoke)
        reference = json.loads(REFERENCE.read_text()).get(key)
        if reference is None:
            run_failures.append(f"no seed-0 reference recorded for {key}")
    first = None
    roster = b = None
    for op in ops:
        try:
            if op.error is not None:
                raise gate.GateError(op.error.strip().splitlines()[-1])
            if op.status != 0:
                raise gate.GateError(f"exit status {op.status}: "
                                     f"{op.stderr.strip()}")
            digest = output_digest(workload, op)
            fresh = first is None or first[1] != digest
            if workload.method is not None:
                if roster is None:
                    roster = gate.read_roster(inputs["roster"])
                    b = oracle.benefit_matrix(roster[2], 0.0)
                objective = gate.check_solve(oracle, roster, b, op.stdout,
                                             op.out, recompute=fresh)
            else:
                seeds = workload.seeds(args.seed, args.smoke)
                text = op.out.read_text()
                objective = gate.check_experiment(text, GRID_METHODS, seeds)
                if fresh:
                    check_grid_cell(workload, args, oracle, text, seeds[0])
            if first is not None and first != (objective, digest):
                raise gate.GateError("output differs from the first "
                                     "operation on the same input")
            first = first or (objective, digest)
            if reference is not None and (
                    digest != reference["output_sha256"]
                    or objective != reference["objective_f"]):
                raise gate.GateError(
                    f"output (objective {objective!r}) differs from the "
                    f"seed-0 reference (objective "
                    f"{reference['objective_f']!r})")
        except (gate.GateError, OSError, ValueError, KeyError) as exc:
            failed[op.index] = f"op {op.index}: {exc}"
    return failed, run_failures, first


def check_grid_cell(workload, args, oracle, text, seed) -> None:
    """Re-solve one grid cell with the library and check the CSV's fern and
    gmbf rows against the oracle's objective of that assignment."""
    from fairteams import (TaskSpec, generate_dataset, preset_config,
                           solve_instance)
    inst = generate_dataset(
        preset_config(workload.preset, workload.size(args.smoke)), seed=seed)
    spec = TaskSpec(requirements=[2.0] * inst.k)
    roster = (list(inst.student_ids), inst.groups.tolist(),
              inst.skills.tolist())
    b = oracle.benefit_matrix(roster[2], 0.0)
    for method in ("fern", "gmbf"):
        assignment = solve_instance(inst, spec, method)
        row = gate.experiment_row(text, method, seed)
        if int(row["l_final"]) != assignment.n_teams:
            raise gate.GateError(f"{method} seed {seed}: l_final differs")
        expected = gate.oracle_f(oracle, roster,
                                 assignment.team_of.tolist(), b)
        gate.check_objective(f"{method} seed {seed}",
                             float(row["objective"]), expected)


def reference_key(workload: Workload, smoke: bool) -> str:
    return workload.name + ("-smoke" if smoke else "")


# -- metrics ----------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, ops, setup_s, first, rss) -> dict:
    """Medians over the untraced operations, calibrated."""
    untraced = [op for op in ops if not op.traced]

    def per_op(op, field, index):
        per = max(op.passes, 1) if workload.per_pass else 1
        return getattr(op, field) / per / op.calibration[index]
    return {
        "wall_s": (statistics.median(per_op(op, "wall", 0)
                                     for op in untraced), "s"),
        "cpu_s": (statistics.median(per_op(op, "cpu", 1)
                                    for op in untraced), "s"),
        "peak_rss_mb": (rss, "MB"),
        "objective_f": (first[0] if first else None, "1"),
        "setup_s": (setup_s, "s"),
    }


# counts that repeat exactly for a given seed and code; later changes cite them
EXACT = ("refine.SolverState.gain_matrix.calls",
         "refine.SolverState.gain_matrix.cells", "refine.fmhc.passes",
         "refine.moves_tried", "refine.moves_committed",
         "baselines.ga.evals", "core.compute_benefit_matrix.calls")


def calibrated(seconds: float, op: Op) -> float:
    return seconds / op.calibration[0]


def per_layer(tracer: Tracer, ops: list[Op]) -> tuple[dict, dict]:
    """Per-layer metrics per operation (median over the traced operations,
    times calibrated) and the exact counts, which must agree between traced
    operations."""
    runs = []
    for op in ops:
        if op.traced:
            values = {name: calibrated(value, op) if layer_unit(name) == "s"
                      else value
                      for name, value in tracer.summarize(op.index).items()}
            values.update(op.counts)
            values["refine.fmhc.passes"] = op.passes
            runs.append(values)
    exact = {name: runs[0][name] for name in EXACT}
    if any(run[name] != exact[name] for run in runs for name in EXACT):
        raise gate.GateError("exact counts differ between traced operations")
    values = {name: statistics.median(run[name] for run in runs)
              for name in runs[0]}

    tried = values["refine.moves_tried"]
    ga_s = values["baselines.genetic_algorithm.s"]
    values["refine.commit_ratio"] = (
        values["refine.moves_committed"] / tried if tried else 0.0)
    values["baselines.ga.evals_per_s"] = (
        values["baselines.ga.evals"] / ga_s if ga_s else 0.0)
    values["trace.overhead_s"] = (
        statistics.median(calibrated(op.wall, op) for op in ops if op.traced)
        - statistics.median(calibrated(op.wall, op)
                            for op in ops if not op.traced))
    return {name: (value, layer_unit(name))
            for name, value in values.items()}, exact


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def out_dir() -> Path:
    """Spans and count records; kept between runs, ignored by git."""
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fairteams").glob("*.py")) + sorted(
            BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_counts_repeat(key: str, exact: dict) -> str | None:
    """Compare the exact counts with the last traced run of the same
    workload, seed and code, then record them. Returns a failure message."""
    path = out_dir() / f"counts-{key}.json"
    record = {"source": source_digest(), "counts": exact}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["source"] == record["source"]:
            if previous["counts"] != exact:
                return f"exact counts differ from the run in {path.name}"
            print(f"exact counts repeat the previous traced run "
                  f"({path.name})")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return None


# -- machine record -----------------------------------------------------------

def blas_record() -> dict:
    """Build-time BLAS from numpy, runtime threads from the loaded library."""
    import numpy as np
    info = {}
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": build.get("name"), "version": build.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads_env"] = {k: v for k, v in os.environ.items()
                           if k.endswith("_NUM_THREADS")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                info["library"] = Path(lib_path).name
                return info
    return info


def machine_record(seed: int, load_before, load_after) -> dict:
    import numpy as np
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_record(), "loadavg_before": list(load_before),
            "loadavg_after": list(load_after), "seed": seed}


# -- main -------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="40 students per roster, for the self-tests")
    parser.add_argument("--prepare", metavar="DIR",
                        help=argparse.SUPPRESS)  # set-up child process
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.prepare:
        result = prepare(workload, args.seed, args.smoke, Path(args.prepare))
        print(json.dumps(result))
        return 0
    if not (SRC / "fairteams" / "__init__.py").is_file() \
            or not ORACLE.is_file():
        print(f"error: {SRC / 'fairteams'} or {ORACLE} not found; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    key = f"{reference_key(workload, args.smoke)}-seed{args.seed}"
    workdir = ROOT / ".bench_run" / f"{key}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workload, key, workdir, load_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, key, workdir, load_before) -> int:
    before = calibrate()
    setup_times, inputs = run_setup(args, workdir)
    after = calibrate()
    setup_s = statistics.median(setup_times) / ((before[0] + after[0]) / 2)
    if not workload.calibrated:
        after = (1.0, 1.0)
    sys.path.insert(0, str(SRC))
    from fairteams import cli
    counter = PassCounter()
    counter.install()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        ops = run_ops(cli, counter, tracer, workload, args, inputs, workdir,
                      after)
    finally:
        if tracer is not None:
            tracer.uninstall()
        counter.uninstall()
    rss = peak_rss_mb()
    load_after = os.getloadavg()
    failed, run_failures, first = check_ops(workload, args, inputs, ops,
                                            load_oracle())

    print("machine: " + json.dumps(machine_record(args.seed, load_before,
                                                  load_after)))
    walls = sorted(op.wall for op in ops)
    print(f"workload {key}: {len(ops)} operations "
          f"({sum(op.traced for op in ops)} traced), wall min/median/max "
          f"{walls[0]:.4f}/{statistics.median(walls):.4f}/{walls[-1]:.4f} s, "
          f"fmhc passes per op {ops[0].passes}; setup runs (s) "
          + ", ".join(f"{t:.4f}" for t in setup_times)
          + ("; kernel slowdown "
             + ", ".join(f"{op.calibration[0]:.3f}" for op in ops)
             if workload.calibrated else ""))
    if first is not None:
        print(f"objective {first[0]!r}; output sha256 {first[1]}")
    if args.trace:
        try:
            metrics, exact = per_layer(tracer, ops)
            print(f"exact counts: {json.dumps(exact)}")
            message = check_counts_repeat(key, exact)
            if message:
                run_failures.append(message)
            print(f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s"
                  " (traced minus untraced operation wall)")
        except gate.GateError as exc:
            metrics = {}
            run_failures.append(str(exc))
        tracer.write_spans(out_dir() / f"spans-{key}.jsonl")
    else:
        metrics = end_to_end(workload, ops, setup_s, first, rss)
    for message in list(failed.values()) + run_failures:
        print(f"FAILED {message}")
    print(f"  {'failed_frac':<40} {len(failed) / len(ops)!r:>24} 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": not failed and not run_failures,
        "attempted": len(ops), "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
