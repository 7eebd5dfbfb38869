"""Tests for repro.hetero.multiway_spmm — the threshold-vector spmm."""

import numpy as np
import pytest

from repro.core.oracle import exhaustive_oracle
from repro.hetero.multiway_cc import coordinate_descent
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.platform.machine import paper_testbed
from repro.sparse.spgemm import spgemm
from repro.util.errors import ValidationError
from repro.workloads.band import banded_matrix


@pytest.fixture()
def problem(machine):
    return MultiwaySpmmProblem(
        banded_matrix(1200, 14.0, rng=1), ClusterSpec.from_machine(machine, n_gpus=2)
    )


class TestVectorGeometry:
    def test_split_rows_monotone(self, problem):
        splits = problem.split_rows([20.0, 60.0])
        assert 0 <= splits[0] <= splits[1] <= problem.a.n_rows

    def test_vector_validated(self, problem):
        with pytest.raises(ValidationError):
            problem.evaluate_ms([50.0])
        with pytest.raises(ValidationError):
            problem.evaluate_ms([60.0, 40.0])
        with pytest.raises(ValidationError):
            problem.evaluate_ms([10.0, 101.0])

    def test_degenerate_matches_scalar(self, problem):
        # A p=2 cluster runs the scalar problem's own row-range kernel, so
        # prices, spans (up to lane names) and products agree bit for bit,
        # on the full instance and on each sampler's miniature.
        machine = paper_testbed(time_scale=3.7)
        grid = np.arange(0.0, 101.0)
        for topology in ("shared", "dedicated"):
            cluster = ClusterSpec.from_machine(machine, topology=topology)
            lane = {"gpu": "gpu0", "pcie": cluster.interconnect.resource_for(1)}
            label = {
                "phase2/spgemm-gpu": "phase2/spgemm-gpu0",
                "phase2/d2h-result": "phase2/d2h-gpu0",
            }
            pairs = [
                (SpmmProblem(problem.a, machine), MultiwaySpmmProblem(problem.a, cluster))
            ]
            for method in ("principal", "rows", "importance"):
                scalar = SpmmProblem(problem.a, machine, sampling_method=method)
                multi = MultiwaySpmmProblem(problem.a, cluster, base=scalar)
                pairs.append((scalar.sample(300, rng=7), multi.sample(300, rng=7)))
            for scalar, multi in pairs:
                assert [multi.evaluate_ms([t]) for t in grid] == [
                    scalar.evaluate_ms(t) for t in grid
                ]
                assert (
                    multi.evaluate_many(grid[:, None]).tobytes()
                    == scalar.evaluate_many(grid).tobytes()
                )
                for t in (0.0, 31.0, 100.0):
                    expected = [
                        (
                            lane.get(s.resource, s.resource),
                            label.get(s.label, s.label),
                            s.start_ms,
                            s.duration_ms,
                        )
                        for s in scalar.timeline(t).spans
                    ]
                    got = [
                        (s.resource, s.label, s.start_ms, s.duration_ms)
                        for s in multi.timeline([t]).spans
                    ]
                    assert got == expected
                    left, right = multi.run([t]).product, scalar.run(t).product
                    assert left.shape == right.shape
                    for field in ("indptr", "indices", "data"):
                        assert (
                            getattr(left, field).tobytes()
                            == getattr(right, field).tobytes()
                        )

    def test_rejects_zero_gpus(self, machine):
        with pytest.raises(ValidationError):
            MultiwaySpmmProblem(
                banded_matrix(100, 5.0, rng=2), ClusterSpec.from_machine(machine, n_gpus=0)
            )


class TestPricingAndSearch:
    def test_two_gpus_beat_one(self, problem, machine):
        scalar = exhaustive_oracle(SpmmProblem(problem.a, machine))
        best, val, _ = coordinate_descent(problem)
        assert val < scalar.best_time_ms

    def test_transfers_serialize_on_link(self, problem):
        tl = problem.timeline([20.0, 60.0])
        pcie = sorted(
            (s for s in tl.spans if s.resource == "pcie"), key=lambda s: s.start_ms
        )
        assert len(pcie) == 2
        assert pcie[1].start_ms >= pcie[0].end_ms - 1e-9

    def test_evaluate_matches_timeline(self, problem):
        for vec in ([0.0, 50.0], [20.0, 60.0], [100.0, 100.0]):
            assert problem.evaluate_ms(vec) == pytest.approx(
                problem.timeline(vec).total_ms
            )

    def test_naive_static_vector(self, problem):
        vec = problem.naive_static_thresholds()
        assert len(vec) == 2 and 0 <= vec[0] <= vec[1] <= 100


class TestSamplingAndExecution:
    def test_sampled_vector_near_best(self, problem):
        sub = problem.sample(problem.default_sample_size(), rng=3)
        assert sub.n_gpus == 2
        est, _, _ = coordinate_descent(sub)
        best, best_val, _ = coordinate_descent(problem)
        assert problem.evaluate_ms(est) <= 1.25 * best_val

    @pytest.mark.parametrize("vec", [(0.0, 0.0), (25.0, 60.0), (100.0, 100.0)])
    def test_partitioned_product_exact(self, machine, vec):
        a = banded_matrix(300, 8.0, rng=4)
        problem = MultiwaySpmmProblem(a, ClusterSpec.from_machine(machine, n_gpus=2))
        result = problem.run(vec)
        assert result.product.allclose(spgemm(a, a))

    def test_three_gpu_product_exact(self, machine):
        a = banded_matrix(240, 6.0, rng=5)
        problem = MultiwaySpmmProblem(a, ClusterSpec.from_machine(machine, n_gpus=3))
        result = problem.run([15.0, 45.0, 75.0])
        assert result.product.allclose(spgemm(a, a))
        assert len(result.split_rows) == 3
