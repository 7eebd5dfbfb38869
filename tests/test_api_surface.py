"""API surface snapshot: docs/API.md must match the live public surface.

The document is generated (``python tools/gen_api_docs.py``); this test
rebuilds it in memory and diffs it against the committed file, so any
public-surface drift — a renamed export, a changed signature, a dropped
``__all__`` entry — fails CI until the snapshot is regenerated and the
change reviewed.
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GEN_SCRIPT = REPO_ROOT / "tools" / "gen_api_docs.py"
SNAPSHOT = REPO_ROOT / "docs" / "API.md"


def _load_generator():
    spec = importlib.util.spec_from_file_location("gen_api_docs", GEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiSurface:
    def test_snapshot_is_current(self):
        generated = _load_generator().build()
        committed = SNAPSHOT.read_text(encoding="utf-8")
        if generated != committed:
            diff = "\n".join(
                difflib.unified_diff(
                    committed.splitlines(),
                    generated.splitlines(),
                    fromfile="docs/API.md (committed)",
                    tofile="docs/API.md (live surface)",
                    lineterm="",
                    n=2,
                )
            )
            raise AssertionError(
                "public API surface drifted from docs/API.md; review the "
                "change and run `python tools/gen_api_docs.py`:\n" + diff
            )

    def test_covers_every_package(self):
        gen = _load_generator()
        text = SNAPSHOT.read_text(encoding="utf-8")
        for qualname in gen.PACKAGES:
            assert f"## `{qualname}`" in text, f"{qualname} missing from API.md"

    def test_promoted_names_in_top_level_all(self):
        import repro

        for name in (
            "get_engine",
            "ResultCache",
            "Engine",
            "validate_timeline",
            "get_tracer",
            "get_metrics",
            "run_experiments",
            "lint_paths",
            "SearchResult",
            "TunedPartition",
            # N-device clusters (PR 8)
            "ClusterSpec",
            "Interconnect",
            "cluster_testbed",
            "MultiwayCcProblem",
            "MultiwaySpmmProblem",
            "CutVectorResult",
            "ClusterTuneResult",
            "cluster_oracle",
            "tune_cluster",
        ):
            assert name in repro.__all__, f"{name} not promoted to repro.__all__"
            assert hasattr(repro, name)

    def test_result_dataclasses_round_trip(self):
        from repro import (
            BaselineComparison,
            OracleResult,
            PartitionEstimate,
            SearchResult,
            TunedPartition,
        )
        from repro.core import ThresholdDistribution

        search = SearchResult(
            threshold=3.0,
            value_ms=1.5,
            evaluations=((1.0, 2.0), (3.0, 1.5)),
            cost_ms=3.5,
            extra_cost_ms=0.5,
        )
        assert SearchResult.from_record(search.to_record()) == search

        estimate = PartitionEstimate(
            threshold=3.0,
            sample_threshold=2.5,
            sample_size=64,
            estimation_cost_ms=3.5,
            searches=(search,),
            extrapolator="identity",
        )
        assert PartitionEstimate.from_record(estimate.to_record()) == estimate

        tuned = TunedPartition(
            threshold=3.0,
            phase2_ms=9.0,
            estimate=estimate,
            search_name="CoarseToFineSearch",
        )
        assert TunedPartition.from_record(tuned.to_record()) == tuned

        dist = ThresholdDistribution(
            thresholds=(1.0, 2.0, 3.0),
            mean=2.0,
            std=0.8,
            low=1.1,
            high=2.9,
            confidence=0.9,
        )
        assert ThresholdDistribution.from_record(dist.to_record()) == dist

        # OracleResult / BaselineComparison round-trips are exercised by the
        # engine cache tests; here just pin that the API exists uniformly.
        for cls in (OracleResult, BaselineComparison):
            assert hasattr(cls, "to_record") and hasattr(cls, "from_record")

        # The cluster types follow the same record contract (round trips
        # themselves are pinned in tests/test_platform_cluster.py).
        from repro import (
            ClusterSpec,
            ClusterTuneResult,
            CutVectorResult,
            DeviceSpec,
            Interconnect,
            PcieLink,
        )

        for cls in (
            ClusterSpec,
            Interconnect,
            DeviceSpec,
            PcieLink,
            CutVectorResult,
            ClusterTuneResult,
        ):
            assert hasattr(cls, "to_record") and hasattr(cls, "from_record")

    def test_keyword_only_constructors(self):
        import pytest

        from repro import CoarseToFineSearch, Engine
        from repro.experiments import ExperimentConfig

        with pytest.raises(TypeError):
            CoarseToFineSearch(4)
        with pytest.raises(TypeError):
            ExperimentConfig(0.5)
        with pytest.raises(TypeError):
            Engine(2)

        from repro import ClusterSpec, Interconnect

        with pytest.raises(TypeError):
            ClusterSpec((), ())
        with pytest.raises(TypeError):
            Interconnect(())

    def test_deprecated_platform_trace_shim(self):
        # The repro.platform timeline aliases served their deprecation
        # cycle; the views live only in repro.obs now.
        import pytest

        import repro.platform as platform_pkg

        with pytest.raises(AttributeError):
            platform_pkg.utilization
        with pytest.raises(ImportError):
            from repro.platform.trace import validate_timeline  # noqa: F401
        assert "render_gantt" not in platform_pkg.__all__
