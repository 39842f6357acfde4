"""The repository benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload headline --seed 7 --seconds 30 --trace 0

Runs iterations of the workload, each in a fresh process started from
the checkout's ``src`` tree, until ``--seconds`` are used (counted
from the start, the ``dist`` reference run included): at least
three, unless the third would end past 1.4 × ``--seconds``. Every
iteration is checked:

* at the default seed, each variant's ``result_metrics()`` must match
  the committed reference values (exactly on the event backend, within
  ``repro.sim.batched.DEFAULT_CONTRACT`` on the batched one);
* at other seeds, a ``dist`` run must equal the process-pool executor
  at the same shard count and worker count, run once beforehand;
* at any seed, every iteration must equal the first one exactly, and
  the identities ``iteration.py`` checks must hold.

With ``--trace 0`` it prints the end-to-end metrics (medians over the
iterations); with ``--trace 1`` it alternates untimed-by-spans and
traced iterations and prints the per-layer metrics (medians over the
traced iterations) plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Lines before it, prefixed ``#``, record the machine
fingerprint and every iteration's figures.

``--write-reference`` regenerates ``reference.json`` for one scale at
the default seed from serial runs (checking ``dist`` against them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, SCALES, WORKLOADS  # noqa: E402

#: End-to-end metrics: (name, unit, better, bound).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("user_days_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("worker_peak_rss_mb", "MB", "lower", 0.2),
)

#: Iterations a run makes even past ``--seconds``, for medians of three...
MIN_ITERATIONS = 3

#: ...unless they would end past this multiple of ``--seconds``: a
#: contended machine must not stretch a run without bound.
OVERRUN = 1.4

#: Wall-clock cap on one benchmark run, iterations and checks included.
HARD_LIMIT_S = 170.0


class IterationError(RuntimeError):
    """An iteration process failed or printed no record."""


def child_env() -> dict[str, str]:
    """The environment of every iteration process.

    ``REPRO_CACHE_DIR`` is removed so no trace spill turns world build
    into a reload; a fixed hash seed keeps set iteration order, and so
    the work done, the same in every process. Temporary files (the
    ``dist`` executor's Manager sockets) go under the checkout when its
    path leaves room within the 108-byte ``AF_UNIX`` limit.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    if len(str(TMP)) <= 64:
        TMP.mkdir(exist_ok=True)
        env["TMPDIR"] = str(TMP)
    return env


def spawn_iteration(workload: str, seed: int, scale: str, workers: int,
                    mode: str, timeout: float) -> dict:
    """Run one iteration process and return its record."""
    command = [sys.executable, str(HERE / "iteration.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--workers", str(workers), "--mode", mode]
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, err = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise IterationError(f"{mode} iteration timed out") from None
    finally:
        # Kill whatever the iteration left in its process group: all of
        # it after a timeout or an interrupt, stray workers otherwise.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise IterationError(
            f"{mode} iteration exited {process.returncode}: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def load_reference(path: Path, scale: str, workload: str) -> dict:
    """The committed reference values of one workload at one scale."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[scale][workload]


def mismatches(expected: dict, got: dict, contract: bool) -> list[str]:
    """One line per metric where ``got`` departs from ``expected``.

    Exact unless ``contract``, which grants the batched backend's
    ``DEFAULT_CONTRACT`` tolerances.
    """
    from repro.sim.batched import DEFAULT_CONTRACT, EXACT

    lines = []
    for label in sorted(set(expected) | set(got)):
        want, have = expected.get(label), got.get(label)
        if want is None or have is None:
            lines.append(f"{label}: variant missing")
            continue
        for name in sorted(set(want) | set(have)):
            a, b = want.get(name), have.get(name)
            tolerance = (DEFAULT_CONTRACT.tolerance_for(name) if contract
                         else EXACT)
            if a is None or b is None or not tolerance.holds(a, b):
                lines.append(f"{label}: {name}: expected {a!r} got {b!r}")
    return lines


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def fingerprint(processes: int) -> dict:
    """The machine a result was measured on, and whether the workload's
    shard-executing processes outnumber its CPUs."""
    import numpy

    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "shard_processes": processes,
            "oversubscribed": processes > nproc}


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians of the end-to-end figures over timed iterations."""
    def median(key: str) -> float:
        return statistics.median(r[key] for r in records)

    return {
        "setup_s": median("setup_s"),
        "run_s": median("run_s"),
        "user_days_per_s": statistics.median(
            r["user_days"] / r["run_s"] for r in records),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "worker_peak_rss_mb": median("worker_peak_rss_mb"),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    """Medians of the per-layer figures over traced iterations."""
    traced = [r for r in records if r["mode"] == "traced"]
    timed = [r for r in records if r["mode"] == "timed"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _unit, _better in PER_LAYER
           if name != "trace.overhead_s"}
    untraced_wall = statistics.median(r["setup_s"] + r["run_s"] for r in timed)
    out["trace.overhead_s"] = statistics.median(
        r["setup_s"] + r["run_s"] for r in traced) - untraced_wall
    return out


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------


def benchmark(args: argparse.Namespace) -> int:
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    machine = fingerprint(args.workers if workload.executor == "dist" else 1)
    emit(f"# machine {json.dumps(machine, sort_keys=True)}")
    emit(f"# workload {args.workload} seed {args.seed} scale {args.scale} "
         f"workers {args.workers} trace {args.trace}")

    if args.seed == DEFAULT_SEED:
        expected = load_reference(args.reference, args.scale, args.workload)
        contract = workload.backend == "batched"
        emit(f"# checking against {args.reference.name}")
    elif workload.executor == "dist":
        pool = spawn_iteration(args.workload, args.seed, args.scale,
                               args.workers, "pool",
                               hard_deadline - time.monotonic())
        if pool["problems"]:
            raise IterationError("pool reference run: "
                                 + pool["problems"][0])
        expected, contract = pool["results"], False
        emit("# checking against the pool executor at the same shard count")
    else:
        expected, contract = None, False

    # The reference run of a ``dist`` workload counts against
    # ``--seconds`` too, so every run of every workload ends near it.
    measure_until = started + args.seconds
    overrun_until = started + OVERRUN * args.seconds
    modes = (["timed", "traced"] if args.trace else ["timed"])
    records: list[dict] = []
    first: dict | None = None
    attempted = failed = 0
    longest = 0.0
    while True:
        now = time.monotonic()
        if now + longest > measure_until and attempted >= len(modes) and (
                attempted >= MIN_ITERATIONS or now + longest > overrun_until):
            break
        if now + longest > hard_deadline:
            break
        mode = modes[attempted % len(modes)]
        attempted += 1
        began = time.monotonic()
        try:
            record = spawn_iteration(args.workload, args.seed, args.scale,
                                     args.workers, mode,
                                     hard_deadline - began)
        except IterationError as exc:
            failed += 1
            emit(f"# FAIL iteration {attempted} ({mode}): {exc}")
            continue
        finally:
            longest = max(longest, time.monotonic() - began)
        problems = list(record["problems"])
        if expected is not None:
            problems += mismatches(expected, record["results"], contract)
        if first is None:
            first = record["results"]
        else:
            problems += [f"differs from iteration 1: {line}" for line in
                         mismatches(first, record["results"], False)]
        if problems:
            failed += 1
            for problem in problems:
                emit(f"# FAIL iteration {attempted} ({mode}): {problem}")
        records.append(record)
        emit(f"# iteration {attempted} {mode} " + json.dumps(
            {key: record[key] for key in
             ("setup_s", "run_s", "cpu_s", "peak_rss_mb",
              "worker_peak_rss_mb", "user_days", "test_slots")}))

    timed = [r for r in records if r["mode"] == "timed"]
    traced = [r for r in records if r["mode"] == "traced"]
    if not timed or (args.trace and not traced):
        raise IterationError("no iteration completed")
    if args.trace:
        values = per_layer(records)
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = end_to_end(timed)
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
    for name, value in values.items():
        emit(f"{name} {value:.6g} {units[name]}")
    emit(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    emit(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def write_reference(args: argparse.Namespace) -> int:
    """Regenerate the reference values of one scale at the default seed."""
    path = args.reference
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table[args.scale] = {}
    for name, workload in WORKLOADS.items():
        # One pool worker: the reference is the serial run.
        serial = spawn_iteration(name, DEFAULT_SEED, args.scale, 1, "pool",
                                 HARD_LIMIT_S)
        if serial["problems"]:
            raise IterationError(f"{name}: {serial['problems'][0]}")
        if workload.executor == "dist":
            dist = spawn_iteration(name, DEFAULT_SEED, args.scale,
                                   args.workers, "timed", HARD_LIMIT_S)
            differences = mismatches(serial["results"], dist["results"],
                                     False)
            if differences:
                raise IterationError(f"dist != serial: {differences[0]}")
        table[args.scale][name] = serial["results"]
        emit(f"# {args.scale}/{name}: {len(serial['results'])} variant(s)")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time one workload end to end (--trace 0) or per "
                    "layer (--trace 1).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--workers", type=int,
                        default=min(2, os.cpu_count() or 1),
                        help="dist worker processes (default min(2, nproc))")
    parser.add_argument("--reference", type=Path,
                        default=HERE / "reference.json")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM so spawn_iteration kills the iteration it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"error: no program source at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.write_reference:
            return write_reference(args)
        return benchmark(args)
    except IterationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
