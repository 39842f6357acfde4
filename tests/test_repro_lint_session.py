"""Interprocedural session: module graph, call graph, cache, SARIF.

Covers the project-wide half of ``repro-lint``: symbol resolution
across import aliases and ``__init__.py`` re-exports, shard
reachability, the content-hash result cache (speedup asserted on work
counters, not wall clock), the gitignore-aware file walker, and the
SARIF writer with its embedded structural validator.
"""

from __future__ import annotations

import ast
import json
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.analysis.callgraph import CallGraph, ProjectContext
from repro.analysis.engine import GitIgnore, iter_python_files, run_analysis
from repro.analysis.findings import Finding
from repro.analysis.modgraph import ModuleGraph, ModuleSummary, build_summary
from repro.analysis.context import FileContext, parse_source
from repro.analysis.reporter import LintOutcome
from repro.analysis.sarif import render_sarif, sarif_report, validate_sarif
from repro.analysis.session import AnalysisSession


#: The package's own sources: a realistic, sizeable parse workload.
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class _GilYieldingGarbage:
    """Cyclic garbage whose finalizer releases the GIL, so the collector
    can switch threads in the middle of another allocation-heavy call."""

    def __init__(self) -> None:
        self.cycle = self

    def __del__(self) -> None:
        time.sleep(0)


def graph_of(files: dict[str, str]) -> ModuleGraph:
    summaries = [
        build_summary(FileContext(textwrap.dedent(source), path))
        for path, source in files.items()
    ]
    return ModuleGraph.from_summaries(summaries)


# ---------------------------------------------------------------------
# Symbol resolution (context + modgraph edge cases)
# ---------------------------------------------------------------------


class TestSymbolResolution:
    def test_plain_definition(self):
        graph = graph_of({"src/repro/sim/rng.py": """
            class RngRegistry:
                def stream(self, name):
                    return name
            """})
        assert (graph.resolve("repro.sim.rng.RngRegistry")
                == "repro.sim.rng.RngRegistry")
        assert (graph.resolve("repro.sim.rng.RngRegistry.stream")
                == "repro.sim.rng.RngRegistry.stream")

    def test_import_module_alias(self):
        graph = graph_of({
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
            "src/repro/sim/loop.py": """
                import repro.sim.rng as rng_mod

                def run():
                    return rng_mod.RngRegistry()
                """,
        })
        assert (graph.resolve("repro.sim.loop.rng_mod.RngRegistry")
                == "repro.sim.rng.RngRegistry")

    def test_from_import_as_alias(self):
        graph = graph_of({
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
            "src/repro/sim/loop.py":
                "from repro.sim.rng import RngRegistry as Registry\n",
        })
        assert (graph.resolve("repro.sim.loop.Registry")
                == "repro.sim.rng.RngRegistry")

    def test_reexport_through_init(self):
        graph = graph_of({
            "src/repro/sim/__init__.py": "from .rng import RngRegistry\n",
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
        })
        assert (graph.resolve("repro.sim.RngRegistry")
                == "repro.sim.rng.RngRegistry")

    def test_relative_import_absolutized(self):
        graph = graph_of({
            "src/repro/experiments/config.py": "class Config:\n    pass\n",
            "src/repro/experiments/harness.py": """
                from .config import Config

                def load():
                    return Config()
                """,
        })
        assert (graph.resolve("repro.experiments.harness.Config")
                == "repro.experiments.config.Config")

    def test_method_resolution_walks_bases(self):
        graph = graph_of({
            "src/repro/sim/base.py": """
                class Base:
                    def merge(self, other):
                        return other
                """,
            "src/repro/sim/child.py": """
                from repro.sim.base import Base

                class Child(Base):
                    pass
                """,
        })
        assert (graph.resolve_method("repro.sim.child.Child", "merge")
                == "repro.sim.base.Base.merge")

    def test_reexport_cycle_terminates(self):
        graph = graph_of({
            "src/repro/a/__init__.py": "from repro.b import thing\n",
            "src/repro/b/__init__.py": "from repro.a import thing\n",
        })
        assert graph.resolve("repro.a.thing") is None

    def test_unknown_symbol_is_none(self):
        graph = graph_of({"src/repro/sim/rng.py": "X = 1\n"})
        assert graph.resolve("repro.sim.rng.Missing") is None
        assert graph.resolve("numpy.random.default_rng") is None


# ---------------------------------------------------------------------
# Call graph + reachability
# ---------------------------------------------------------------------


class TestCallGraph:
    def test_reachability_closure(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                from repro.sim.state import tick

                def execute_shard(job):
                    return tick(job)
                """,
            "src/repro/sim/state.py": """
                def tick(job):
                    return inner(job)

                def inner(job):
                    return job

                def unrelated(job):
                    return job
                """,
        })
        project = ProjectContext.build(graph)
        assert "repro.sim.state.tick" in project.reachable
        assert "repro.sim.state.inner" in project.reachable
        assert "repro.sim.state.unrelated" not in project.reachable

    def test_class_entry_point_expands_methods(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                class ShardJob:
                    def digest(self):
                        return helper()

                def helper():
                    return 1
                """,
        })
        project = ProjectContext.build(graph)
        assert "repro.experiments.harness.helper" in project.reachable

    def test_chain_renders_provenance(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                def execute_shard(job):
                    return helper(job)

                def helper(job):
                    return job
                """,
        })
        callgraph = CallGraph(graph)
        _reach, parents = callgraph.reachable(
            ("repro.experiments.harness.execute_shard",))
        chain = callgraph.chain("repro.experiments.harness.helper", parents)
        assert chain == "harness.helper <- harness.execute_shard"


# ---------------------------------------------------------------------
# Content-hash cache
# ---------------------------------------------------------------------


def write_tree(root: Path, n_files: int = 6) -> Path:
    pkg = root / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    for i in range(n_files):
        (pkg / f"mod{i}.py").write_text(
            f'"""Module {i}."""\n\n\ndef f{i}(x):\n'
            f'    """Return x."""\n    return x\n')
    return root / "src"


class TestSessionCache:
    def test_warm_run_avoids_reparsing(self, tmp_path, monkeypatch):
        src = write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / ".lint-cache"
        cold = run_analysis([src], cache_dir=cache)
        warm = run_analysis([src], cache_dir=cache)
        assert cold.files_parsed == cold.files_analyzed > 0
        assert warm.files_parsed == 0
        assert warm.cache_hits == cold.files_analyzed
        # The acceptance bar: a warm full run does >= 3x less parse
        # work than cold. Asserted on deterministic work counters so
        # the test cannot be wall-clock flaky.
        assert cold.files_parsed >= 3 * max(1, warm.files_parsed)

    def test_cache_preserves_output_exactly(self, tmp_path, monkeypatch):
        src = write_tree(tmp_path)
        bad = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        bad.write_text('"""Dirty."""\nimport time\n\n\ndef now():\n'
                       '    """Stamp."""\n    return time.time()\n')
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / ".lint-cache"
        cold = run_analysis([src], cache_dir=cache)
        warm = run_analysis([src], cache_dir=cache)
        assert [f.render() for f in cold.findings] \
            == [f.render() for f in warm.findings]
        assert len(cold.findings) >= 1

    def test_edited_file_invalidates_only_itself(self, tmp_path,
                                                 monkeypatch):
        src = write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / ".lint-cache"
        run_analysis([src], cache_dir=cache)
        target = tmp_path / "src" / "repro" / "sim" / "mod0.py"
        target.write_text(target.read_text() + "\n\nY = 2\n")
        warm = run_analysis([src], cache_dir=cache)
        assert warm.files_parsed == 1

    def test_corrupt_cache_entry_falls_back(self, tmp_path, monkeypatch):
        src = write_tree(tmp_path, n_files=2)
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / ".lint-cache"
        run_analysis([src], cache_dir=cache)
        for entry in cache.glob("*.json"):
            entry.write_text("{not json")
        again = run_analysis([src], cache_dir=cache)
        assert again.files_parsed == again.files_analyzed
        assert again.parse_errors == []

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        src = write_tree(tmp_path)
        bad = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        bad.write_text('"""Dirty."""\nimport time\n\n\ndef now():\n'
                       '    """Stamp."""\n    return time.time()\n')
        monkeypatch.chdir(tmp_path)
        serial = run_analysis([src], jobs=1)
        parallel = run_analysis([src], jobs=4)
        assert [f.render() for f in serial.findings] \
            == [f.render() for f in parallel.findings]

    def test_concurrent_parses_do_not_race(self):
        # A GC finalizer that releases the GIL lets another thread start
        # parsing while one is mid-conversion; on CPython 3.11 unguarded
        # ast.parse then raises "AST constructor recursion depth
        # mismatch". Parse the package on 8 threads, repeatedly.
        sources = [path.read_text(encoding="utf-8")
                   for path in sorted(REPO_SRC.rglob("*.py"))]

        def parse(source):
            for _ in range(50):
                _GilYieldingGarbage()
            return parse_source(source)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=8) as pool:
                    trees = list(pool.map(parse, sources))
                assert all(isinstance(tree, ast.Module) for tree in trees)
        finally:
            sys.setswitchinterval(interval)

    def test_summary_round_trips_through_json(self):
        ctx = FileContext(textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Snapshot:
                joules: float

            def merge(a_j, b_j):
                total_j = a_j
                return total_j
            """), "src/repro/metrics/snap.py")
        summary = build_summary(ctx)
        restored = ModuleSummary.from_jsonable(
            json.loads(json.dumps(summary.to_jsonable())))
        assert restored.to_jsonable() == summary.to_jsonable()
        assert restored.classes["Snapshot"].frozen
        assert restored.functions["merge"].params == ["a_j", "b_j"]


# ---------------------------------------------------------------------
# File walker
# ---------------------------------------------------------------------


class TestFileWalker:
    def test_pycache_and_venv_skipped(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("X = 1\n")
        (tmp_path / ".venv" / "lib").mkdir(parents=True)
        (tmp_path / ".venv" / "lib" / "site.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "real.py").write_text("X = 1\n")
        found = [p.name for p in iter_python_files(
            [tmp_path], gitignore=GitIgnore([]))]
        assert found == ["real.py"]

    def test_gitignored_paths_skipped(self, tmp_path):
        (tmp_path / ".gitignore").write_text(
            "scratch/\nskipme_*.py\n# comment\n")
        (tmp_path / "scratch").mkdir()
        (tmp_path / "scratch" / "junk.py").write_text("X = 1\n")
        (tmp_path / "skipme_draft.py").write_text("X = 1\n")
        (tmp_path / "kept.py").write_text("X = 1\n")
        gitignore = GitIgnore.load(tmp_path)
        found = [p.name for p in iter_python_files([tmp_path],
                                                   gitignore=gitignore)]
        assert found == ["kept.py"]

    def test_explicit_file_argument_always_wins(self, tmp_path):
        target = tmp_path / "skipme_draft.py"
        target.write_text("X = 1\n")
        gitignore = GitIgnore(["skipme_*.py"])
        found = list(iter_python_files([target], gitignore=gitignore))
        assert found == [target]


# ---------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------


def outcome_with_findings() -> LintOutcome:
    finding = Finding(rule="RPR006", message="writes module global '_X'",
                      path="src/repro/sim/loop.py", line=12, col=4,
                      scope="run")
    noted = Finding(rule="RPR003", message="mixes scales",
                    path="src/repro/sim/clock.py", line=3, col=0,
                    scope="<module>")
    return LintOutcome(new_findings=[finding], baselined=[noted],
                       files_analyzed=2)


class TestSarif:
    def test_report_is_schema_clean(self):
        doc = sarif_report(outcome_with_findings())
        assert validate_sarif(doc) == []

    def test_round_trip_and_structure(self):
        doc = json.loads(render_sarif(outcome_with_findings()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RPR001", "RPR006", "RPR007", "RPR008"} <= rule_ids
        levels = [result["level"] for result in run["results"]]
        assert levels == ["error", "note"]
        first = run["results"][0]
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/sim/loop.py"
        assert location["region"]["startLine"] == 12
        assert location["region"]["startColumn"] == 5  # 1-based
        assert "reproLint/v1" in first["partialFingerprints"]

    def test_parse_errors_surface_as_notifications(self):
        outcome = LintOutcome(parse_errors=["bad.py: invalid syntax"])
        doc = sarif_report(outcome)
        invocation = doc["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        texts = [note["message"]["text"]
                 for note in invocation["toolExecutionNotifications"]]
        assert texts == ["bad.py: invalid syntax"]

    def test_validator_rejects_broken_documents(self):
        assert validate_sarif({"runs": []})  # missing version
        assert validate_sarif({"version": "2.0.0", "runs": [{}]})
        doc = sarif_report(outcome_with_findings())
        doc["runs"][0]["results"][0]["level"] = "catastrophic"
        assert any("invalid level" in p for p in validate_sarif(doc))
        doc2 = sarif_report(outcome_with_findings())
        region = (doc2["runs"][0]["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        region["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(doc2))


# ---------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------


class TestSessionPlumbing:
    def test_select_filters_project_rules(self):
        session = AnalysisSession(select=["RPR006"])
        assert [r.id for r in session.project_rules] == ["RPR006"]
        assert session.rules == []

    def test_unknown_rule_id_raises(self):
        try:
            AnalysisSession(select=["RPR999"])
        except ValueError as exc:
            assert "RPR999" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
