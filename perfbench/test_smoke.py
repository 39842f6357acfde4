"""Seconds-long smoke of the benchmark command at tiny scale.

    python3 -m pytest perfbench -q

Runs all three workloads (``dist`` on one worker), traced and not,
checks that every metric is printed with its unit and matches
``BENCHMARK.json``, and that the correctness check fails when one
reference value is altered.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, choose_users  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny",
         "--workers", "1", "--seconds", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_chosen_users_sum_to_the_target():
    slots = [5, 40, 7, 300, 12, 0, 90, 33, 18, 61]
    chosen = choose_users(slots, 6, 200)
    assert len(chosen) == 6 and chosen == sorted(set(chosen))
    # The first six sum to 364; single swaps get within a few slots.
    assert abs(sum(slots[i] for i in chosen) - 200) <= 5
    assert choose_users(slots, 4, 10**6) == [1, 3, 6, 9]


def test_manifest_lists_the_metrics_the_command_prints():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace", trace)
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0
    expected = ([(n, u) for n, u, _b in PER_LAYER] if trace == "1"
                else [(n, u) for n, u, _b, _bound in END_TO_END])
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] == expected
    lines = done.stdout.splitlines()
    for name, unit in expected:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert '"nproc"' in done.stdout and '"numpy"' in done.stdout


def test_altered_reference_value_fails_the_run(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["tiny"]["headline"]["headline"]["prefetch.cached_displays"] += 1
    altered = tmp_path / "reference.json"
    altered.write_text(json.dumps(reference))
    done = bench("--workload", "headline", "--seed", "7",
                 "--reference", str(altered))
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "prefetch.cached_displays: expected" in done.stdout


def test_unaltered_reference_passes_at_the_default_seed():
    result = result_of(bench("--workload", "sweep", "--seed", "7"))
    assert result["correct"] and result["failed"] == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "headline", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
