"""One iteration of one workload, in a process of its own.

Builds the world, keeps the users ``workloads.choose_users`` picks,
runs every variant through ``Runner.run``, checks the
identities that hold at any seed, and prints one JSON line: wall, CPU
and memory figures, each variant's ``result_metrics()``, any problems
found and, when traced, the per-layer numbers. ``run.py`` starts one of
these per iteration, so each peak RSS comes from a process that ran
only this workload.

Modes: ``timed`` (no spans), ``traced`` (spans on every layer) and
``pool`` (the workload's shards on the process-pool executor with
``--workers`` processes, the reference a ``dist`` run must equal).

    PYTHONPATH=src python3 perfbench/iteration.py --workload headline --seed 7
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from layers import Tracer, device_energy_check, install_spans, layer_metrics
from workloads import SCALES, WORKLOADS, Size, choose_users

MODES = ("timed", "traced", "pool")


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def build_world(size: Size, seed: int) -> tuple[object, object, float, int]:
    """The workload's world: ``(config, world, setup_s, test_slots)``.

    ``setup_s`` times ``build_world`` for the whole pool; choosing the
    users and cutting the world down to them is the benchmark's own
    work and is not timed.
    """
    import repro.experiments.harness as harness
    from repro.experiments.config import ExperimentConfig
    from repro.traces.schema import SECONDS_PER_DAY, Trace

    pool = ExperimentConfig(n_users=size.pool_users, n_days=size.n_days,
                            train_days=size.train_days, seed=seed)
    started = time.perf_counter()
    world = harness.build_world(pool)
    setup_s = time.perf_counter() - started
    test_start = pool.train_days * SECONDS_PER_DAY
    horizon = world.trace.horizon
    ids = sorted(world.timelines)
    slots = [_slots(world.timelines[uid].window(test_start, horizon)[1])
             for uid in ids]
    chosen = choose_users(slots, size.n_users, size.test_slots)
    keep = [ids[i] for i in chosen]
    config = pool.variant(n_users=size.n_users)
    world = harness.World(
        config_key=config.world_key(),
        trace=Trace(n_days=world.trace.n_days,
                    users={uid: world.trace.users[uid] for uid in keep}),
        apps=world.apps,
        timelines={uid: world.timelines[uid] for uid in keep},
        refresh_of=world.refresh_of,
        profile_of={uid: world.profile_of[uid] for uid in keep})
    return config, world, setup_s, sum(slots[i] for i in chosen)


def _slots(kinds: object) -> int:
    from repro.client.timeline import KIND_SLOT, KIND_SLOT_START

    return int(((kinds == KIND_SLOT) | (kinds == KIND_SLOT_START)).sum())


def run_iteration(workload_name: str, seed: int, scale: str, workers: int,
                  mode: str) -> dict:
    """Run the workload once and return its figures and checks."""
    from repro.obs.runtime import ObsOptions
    from repro.runner import Runner

    workload = WORKLOADS[workload_name]
    size = SCALES[scale][workload_name]
    executor = "pool" if mode == "pool" else workload.executor
    parallelism = workers if mode == "pool" else 1
    # Only then are the shards' devices settled where the checks see them.
    in_process = executor != "dist" and parallelism == 1
    problems: list[str] = []
    tracer = Tracer()
    results = []
    run_s = 0.0
    with tracer:
        if mode == "traced":
            install_spans(tracer)
        device_energy_check(tracer, problems)
        base, world, setup_s, test_slots = build_world(size, seed)
        variants = [(label, base.variant(**overrides))
                    for label, overrides in workload.variants]
        cpu_before = _cpu_seconds()
        for _label, config in variants:
            runner = Runner(config, world=world, backend=workload.backend,
                            parallelism=parallelism, shards=workload.shards,
                            executor=executor,
                            workers=workers if executor == "dist" else None,
                            obs=ObsOptions())
            started = time.perf_counter()
            results.append(runner.run("headline"))
            run_s += time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_before
    for (label, _config), result in zip(variants, results):
        sla = result.prefetch.sla
        if sla.n_on_time + sla.n_violated != sla.n_sales:
            problems.append(
                f"{label}: sla.n_on_time {sla.n_on_time} + sla.n_violated "
                f"{sla.n_violated} != sla.n_sales {sla.n_sales}")
    if in_process:
        expected = 2 * size.n_users * len(variants)   # prefetch + realtime
        settled = int(tracer.counts["devices.settled"])
        if settled != expected:
            problems.append(f"devices settled {settled} != {expected}")
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    record = {
        "mode": mode,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": self_rss,
        # The largest process that executed shards: the workers on
        # ``dist``, this process when shards run in-process.
        "worker_peak_rss_mb": self_rss if in_process else child_rss,
        "user_days": size.n_users * base.test_days * len(variants),
        "test_slots": test_slots,
        "results": {label: result.result_metrics()
                    for (label, _config), result in zip(variants, results)},
        "problems": problems,
    }
    if mode == "traced":
        record["layers"] = layer_metrics(tracer, results)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--mode", choices=MODES, default="timed")
    args = parser.parse_args(argv)
    record = run_iteration(args.workload, args.seed, args.scale,
                           args.workers, args.mode)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
