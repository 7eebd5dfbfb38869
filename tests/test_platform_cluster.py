"""Tests for repro.platform.cluster and the cut-vector tuner stack.

Covers the ClusterSpec contract (validation, records, legacy round
trips), the p = 2 bit-identity guarantee against the HeterogeneousMachine
path for every case-study problem, cluster-only multiway construction,
cache-key separation by cluster shape, and the sample -> identify ->
extrapolate pipeline on p in {2, 3, 4, 8} clusters.
"""

import numpy as np
import pytest

from repro.core.cut_vector import (
    ClusterTuneResult,
    CutVectorResult,
    cluster_oracle,
    coordinate_descent,
    cut_vector_lattice,
    tune_cluster,
)
from repro.core.oracle import exhaustive_oracle
from repro.engine.cache import fingerprint
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import (
    ClusterSpec,
    Interconnect,
    balanced_partition_sizes,
    cluster_testbed,
    coerce_machine,
    imbalance,
)
from repro.platform.device import gpu_tesla_k20c, gpu_tesla_k40c
from repro.platform.machine import HeterogeneousMachine
from repro.platform.pcie import pcie_gen2_x16, pcie_gen3_x16
from repro.util.errors import ValidationError
from tests.conftest import random_graph, random_sparse
from tests.test_hetero_multiway import local_graph


@pytest.fixture(scope="module")
def pair(machine):
    """The legacy machine as a p=2 cluster (spec objects shared)."""
    return ClusterSpec.from_machine(machine, n_gpus=1)


class TestClusterSpecContract:
    def test_validation(self, machine):
        gpu = machine.gpu
        link = machine.link
        with pytest.raises(ValidationError):
            ClusterSpec(
                devices=(machine.cpu,),
                interconnect=Interconnect.uniform(link, 0),
            )
        with pytest.raises(ValidationError):  # CPU must lead
            ClusterSpec(
                devices=(gpu, gpu),
                interconnect=Interconnect.uniform(link, 1),
            )
        with pytest.raises(ValidationError):  # link count mismatch
            ClusterSpec(
                devices=(machine.cpu, gpu, gpu),
                interconnect=Interconnect.uniform(link, 1),
            )
        with pytest.raises(ValidationError):
            Interconnect(links=(link,), topology="mesh")

    def test_record_round_trip(self, machine):
        cluster = cluster_testbed(n_gpus=3, mixed=True, topology="dedicated")
        clone = ClusterSpec.from_record(cluster.to_record())
        assert clone == cluster
        ic = cluster.interconnect
        assert Interconnect.from_record(ic.to_record()) == ic
        dev = gpu_tesla_k20c()
        assert type(dev).from_record(dev.to_record()) == dev
        link = pcie_gen2_x16()
        assert type(link).from_record(link.to_record()) == link

    def test_from_machine_as_machine_round_trip(self, machine, pair):
        assert pair.n_devices == 2
        assert pair.cpu is machine.cpu
        assert pair.accelerators == (machine.gpu,)
        back = pair.as_machine()
        assert back.cpu is machine.cpu
        assert back.gpu is machine.gpu
        assert back.link is machine.link
        wide = cluster_testbed(n_gpus=3)
        with pytest.raises(ValidationError):
            wide.as_machine()

    def test_naive_static_cuts_match_legacy_pair(self, machine, pair):
        # p=2: one cut at the legacy CPU peak share.
        (cut,) = pair.naive_static_cuts()
        c = machine.cpu.peak_gflops
        g = machine.gpu.peak_gflops
        assert cut == min(100.0, round(100.0 * c / (c + g)))

    def test_naive_static_cuts_are_non_decreasing(self):
        for mixed in (False, True):
            cluster = cluster_testbed(n_gpus=5, mixed=mixed)
            cuts = cluster.naive_static_cuts()
            assert len(cuts) == cluster.n_devices - 1
            assert all(a <= b for a, b in zip(cuts, cuts[1:]))
            assert all(0.0 <= c <= 100.0 for c in cuts)

    def test_merge_device_index_prefers_fastest_then_first(self):
        mixed = cluster_testbed(n_gpus=4, mixed=True)
        mi = mixed.merge_device_index()
        peaks = [d.peak_gflops for d in mixed.devices]
        assert peaks[mi] == max(peaks[1:])
        homogeneous = cluster_testbed(n_gpus=4)
        assert homogeneous.merge_device_index() == 1

    def test_coercions(self, machine, pair):
        assert coerce_machine(machine) is machine
        assert coerce_machine(pair).cpu is machine.cpu
        with pytest.raises(ValidationError):
            coerce_machine(cluster_testbed(n_gpus=2))

    def test_cluster_testbed_shapes(self):
        mixed = cluster_testbed(n_gpus=4, mixed=True, topology="dedicated")
        assert mixed.n_devices == 5
        kinds = {d.warp_size for d in mixed.accelerators}
        assert kinds == {32}
        assert mixed.accelerators[0] == cluster_testbed(n_gpus=1).accelerators[0]
        assert mixed.accelerators[1].name == gpu_tesla_k20c().name
        assert mixed.interconnect.topology == "dedicated"
        assert mixed.interconnect.resource_for(1) == "link0"
        shared = cluster_testbed(n_gpus=2)
        assert shared.interconnect.resource_for(2) == "pcie"


class TestBalanceHelpers:
    def test_balanced_partition_sizes_sums_and_balance(self):
        sizes = balanced_partition_sizes(1000, [0.25, 0.25, 0.25, 0.25])
        assert sizes == [250, 250, 250, 250]
        sizes = balanced_partition_sizes(10, [1, 1, 1])
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        sizes = balanced_partition_sizes(7, [0.5, 0.5])
        assert sum(sizes) == 7

    def test_imbalance(self):
        assert imbalance([1.0, 1.0, 1.0]) == 0.0
        assert imbalance([2.0, 1.0, 1.0]) == pytest.approx(0.5)
        assert imbalance([]) == 0.0
        assert imbalance([0.0, 0.0]) == 0.0


class TestP2BitIdentity:
    """ClusterSpec([cpu, gpu]) must price exactly like the legacy machine."""

    def test_scalar_problems_price_identically(self, machine, pair):
        graph = random_graph(400, 900, seed=3)
        matrix = random_sparse(120, 120, 0.06, seed=4)
        cases = [
            (CcProblem, graph),
            (SpmmProblem, matrix),
            (HhCpuProblem, matrix),
            (DenseMmProblem, 96),
        ]
        for cls, arg in cases:
            legacy = cls(arg, machine)
            clustered = cls(arg, pair)
            assert clustered.machine == legacy.machine
            for t in legacy.threshold_grid()[:: max(1, len(legacy.threshold_grid()) // 7)]:
                assert clustered.evaluate_ms(t) == legacy.evaluate_ms(t)

    def test_scalar_problems_reject_wide_clusters(self, machine):
        wide = cluster_testbed(n_gpus=2)
        with pytest.raises(ValidationError):
            CcProblem(random_graph(50, 80, seed=5), wide)

    def test_oracle_identical_serial_and_workers2(self, machine, pair, tmp_path):
        from repro.engine import Engine

        problem_serial = CcProblem(random_graph(300, 700, seed=9), machine)
        problem_pair = CcProblem(random_graph(300, 700, seed=9), pair)
        serial = exhaustive_oracle(problem_serial)
        engine = Engine(workers=2)
        try:
            fanned = exhaustive_oracle(
                problem_pair, parallel_map=engine.parallel_map
            )
        finally:
            engine.close()
        assert fanned.threshold == serial.threshold
        assert fanned.best_time_ms == serial.best_time_ms


class TestClusterOnlyConstruction:
    def test_machine_rejected(self, machine):
        for build, arg in (
            (MultiwayCcProblem, random_graph(100, 150, seed=12)),
            (MultiwaySpmmProblem, random_sparse(40, 40, 0.1, seed=13)),
        ):
            with pytest.raises(ValidationError, match="ClusterSpec.from_machine"):
                build(arg, machine)


class TestCacheKeySeparation:
    """Two clusters differing only in shape must never share a record."""

    def test_fingerprints_differ_by_count_and_interconnect(self):
        base = {"kind": "cluster-oracle", "dataset": "x", "scale": 0.1}
        prints = {
            fingerprint({**base, **spec.cache_fields()})
            for spec in (
                cluster_testbed(n_gpus=1),
                cluster_testbed(n_gpus=2),
                cluster_testbed(n_gpus=2, topology="dedicated"),
                cluster_testbed(n_gpus=2, mixed=True),
            )
        }
        assert len(prints) == 4

    def test_cache_fields_ignore_name(self):
        a = cluster_testbed(n_gpus=2)
        b = ClusterSpec(
            devices=a.devices, interconnect=a.interconnect, name="other"
        )
        assert a.cache_fields() == b.cache_fields()

    def test_result_cache_separates_cluster_shapes(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path)
        key = {"kind": "t"}
        cache.put({**key, **cluster_testbed(n_gpus=1).cache_fields()}, {"p": 2})
        assert (
            cache.get({**key, **cluster_testbed(n_gpus=2).cache_fields()})
            is None
        )
        assert cache.get(
            {**key, **cluster_testbed(n_gpus=1).cache_fields()}
        ) == {"p": 2}


class TestCutVectorPipeline:
    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_pipeline_runs_at_every_p(self, p):
        cluster = cluster_testbed(
            n_gpus=p - 1, time_scale=1 / 16, mixed=True
        )
        graph = local_graph(2500, p)
        problem = MultiwayCcProblem(graph, cluster)
        assert problem.n_cuts == p - 1
        tuned = tune_cluster(problem, rng=p)
        assert len(tuned.thresholds) == p - 1
        assert all(a <= b for a, b in zip(tuned.thresholds, tuned.thresholds[1:]))
        assert tuned.value_ms == problem.evaluate_ms(list(tuned.thresholds))
        assert tuned.tuning_cost_ms > 0
        result = problem.run(list(tuned.thresholds))
        from repro.graphs.components import components_union_find, count_components

        assert result.n_components == count_components(
            components_union_find(graph)
        )

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_spmm_pipeline_runs_at_every_p(self, p):
        cluster = cluster_testbed(
            n_gpus=p - 1, time_scale=1 / 16, topology="dedicated"
        )
        matrix = random_sparse(160, 160, 0.06, seed=20 + p)
        problem = MultiwaySpmmProblem(matrix, cluster)
        tuned = tune_cluster(problem, rng=p)
        assert len(tuned.thresholds) == p - 1
        result = problem.run(list(tuned.thresholds))
        assert result.product.n_rows == matrix.n_rows

    def test_oracle_exhaustive_beats_every_lattice_point(self):
        cluster = cluster_testbed(n_gpus=2, time_scale=1 / 16)
        problem = MultiwayCcProblem(local_graph(1200, 31), cluster)
        oracle = cluster_oracle(problem)
        assert oracle.strategy == "exhaustive"
        lattice = cut_vector_lattice(2, step=10)
        from repro.core.problem import evaluate_grid

        vals = evaluate_grid(problem, lattice)
        assert oracle.value_ms <= float(vals.min())

    def test_oracle_falls_back_to_descent_for_large_p(self):
        cluster = cluster_testbed(n_gpus=7, time_scale=1 / 16)
        problem = MultiwayCcProblem(local_graph(800, 33), cluster)
        oracle = cluster_oracle(problem, max_candidates=1000)
        assert oracle.strategy == "multi-start-descent"
        assert len(oracle.thresholds) == 7

    def test_coordinate_descent_tuple_contract(self, machine):
        problem = MultiwayCcProblem(
            local_graph(900, 35), ClusterSpec.from_machine(machine, n_gpus=2)
        )
        thresholds, value_ms, n_evals = coordinate_descent(problem)
        assert len(thresholds) == 2
        assert value_ms == problem.evaluate_ms(list(thresholds))
        assert n_evals >= 1

    def test_results_round_trip(self):
        r = CutVectorResult(
            thresholds=(10.0, 40.0),
            value_ms=1.5,
            n_evaluations=12,
            cost_ms=9.0,
            strategy="exhaustive",
        )
        assert CutVectorResult.from_record(r.to_record()) == r
        t = ClusterTuneResult(
            thresholds=(5.0, 50.0, 95.0),
            value_ms=2.0,
            sample_size=64,
            n_evaluations=40,
            tuning_cost_ms=3.5,
        )
        assert ClusterTuneResult.from_record(t.to_record()) == t

    def test_spmm_requires_uniform_warp_size(self, machine):
        from dataclasses import replace

        k40 = gpu_tesla_k40c()
        odd = replace(k40, name="odd-gpu", warp_size=64)
        cluster = ClusterSpec(
            devices=(machine.cpu, k40, odd),
            interconnect=Interconnect.uniform(pcie_gen3_x16(), 2),
        )
        with pytest.raises(ValidationError):
            MultiwaySpmmProblem(random_sparse(40, 40, 0.1, seed=40), cluster)


class TestClusterServing:
    def test_cluster_request_round_trip_and_keys(self):
        from repro.serve.api import TuneRequest

        a = TuneRequest(
            problem="cluster-cc", dataset="delaunay_n22", n_devices=3
        )
        b = TuneRequest(
            problem="cluster-cc", dataset="delaunay_n22", n_devices=4
        )
        c = TuneRequest(
            problem="cluster-cc",
            dataset="delaunay_n22",
            n_devices=3,
            interconnect="dedicated",
        )
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        assert len({a.problem_key(), b.problem_key(), c.problem_key()}) == 3
        assert TuneRequest.from_record(a.to_record()) == a
        legacy = a.to_record()
        del legacy["n_devices"], legacy["interconnect"]
        legacy["problem"] = "cc"
        assert TuneRequest.from_record(legacy).n_devices == 2

    def test_scalar_kind_rejects_wide_cluster(self):
        from repro.serve.api import TuneRequest

        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", n_devices=3)
        with pytest.raises(ValidationError):
            TuneRequest(
                problem="cluster-cc", dataset="cant", interconnect="mesh"
            )

    def test_cluster_tune_answers_with_vector(self):
        from repro.serve.api import TuneRequest, TuneResponse, tune

        request = TuneRequest(
            problem="cluster-cc",
            dataset="delaunay_n22",
            scale=1 / 64,
            n_devices=3,
        )
        response = tune(request)
        assert len(response.thresholds) == 2
        assert response.threshold == response.thresholds[0]
        assert response.phase2_ms > 0
        import json

        clone = TuneResponse.from_record(json.loads(response.canonical_json()))
        assert clone.canonical_json() == response.canonical_json()
        # Determinism: the same request answers byte-identically.
        assert tune(request).canonical_json() == response.canonical_json()
