"""The Table II dataset registry.

Each entry records the paper's dataset (name, class, original n and NNZ)
and how to synthesize a structure-matched analog at a chosen scale.  The
default scale of 1/16 keeps the largest instances (delaunay_n22, asia_osm)
tractable for the exhaustive-search oracle in pure Python while preserving
per-row densities, degree distributions, and vertex-order locality — the
properties the partitioning behaviour depends on (DESIGN.md §2).

Scaling convention: the vertex/row count shrinks by the scale factor, the
*average row density stays fixed*, so NNZ shrinks by the same factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.util.errors import WorkloadError
from repro.util.rng import RngLike, as_generator, stable_seed
from repro.workloads.band import banded_matrix, lattice_matrix
from repro.workloads.dataset import Dataset
from repro.workloads.mesh import planar_mesh_matrix
from repro.workloads.rmat import rmat_matrix
from repro.workloads.road import road_network_matrix

#: Default linear scale applied to every dataset's dimension.
DEFAULT_SCALE = 1.0 / 16.0

Builder = Callable[[int, int, np.random.Generator], CsrMatrix]


@dataclass(frozen=True)
class SuiteEntry:
    """One Table II row plus its synthetic builder."""

    name: str
    kind: str
    paper_n: int
    paper_nnz: int
    build: Builder


def _band(half_width: float, heavy_fraction: float = 0.10, heavy_multiplier: float = 2.5) -> Builder:
    def build(n: int, nnz: int, gen: np.random.Generator) -> CsrMatrix:
        return banded_matrix(
            n,
            half_width,
            heavy_fraction=heavy_fraction,
            heavy_multiplier=heavy_multiplier,
            rng=gen,
        )

    return build


def _mesh() -> Builder:
    def build(n: int, nnz: int, gen: np.random.Generator) -> CsrMatrix:
        return planar_mesh_matrix(n, rng=gen)

    return build


def _qcd(block: int = 4) -> Builder:
    def build(n: int, nnz: int, gen: np.random.Generator) -> CsrMatrix:
        sites = max(16, n // block)
        side = max(2, int(round(sites ** 0.25)))
        last = max(2, sites // side**3)
        return lattice_matrix((side, side, side, last), block=block, rng=gen)

    return build


def _rmat() -> Builder:
    def build(n: int, nnz: int, gen: np.random.Generator) -> CsrMatrix:
        return rmat_matrix(n, nnz, rng=gen)

    return build


def _road(avg_chain_length: float = 3.0) -> Builder:
    def build(n: int, nnz: int, gen: np.random.Generator) -> CsrMatrix:
        return road_network_matrix(n, avg_chain_length=avg_chain_length, rng=gen)

    return build


#: Table II, in the paper's order.  Band half-widths are (avg_nnz - 1) / 2
#: scaled down slightly to leave room for the heavy-row excursions.
SUITE: tuple[SuiteEntry, ...] = (
    SuiteEntry("cant", "fem", 62_451, 4_007_383, _band(27.0, 0.08, 2.2)),
    SuiteEntry("consph", "fem", 83_334, 6_010_480, _band(30.0, 0.08, 2.4)),
    SuiteEntry("cop20k_A", "fem", 121_192, 2_624_331, _band(8.5, 0.15, 3.0)),
    SuiteEntry("delaunay_n22", "mesh", 4_194_304, 25_165_738, _mesh()),
    SuiteEntry("pdb1HYS", "fem", 36_417, 4_344_765, _band(50.0, 0.08, 2.4)),
    SuiteEntry("pwtk", "fem", 217_918, 11_634_424, _band(22.5, 0.08, 2.4)),
    SuiteEntry("qcd5_4", "lattice", 49_152, 1_916_928, _qcd(4)),
    SuiteEntry("rma10", "fem", 46_835, 2_374_001, _band(20.0, 0.20, 2.6)),
    SuiteEntry("shipsec1", "fem", 140_874, 7_813_404, _band(23.5, 0.08, 2.4)),
    SuiteEntry("web-BerkStan", "web", 685_230, 7_600_595, _rmat()),
    SuiteEntry("webbase-1M", "web", 1_000_005, 3_105_536, _rmat()),
    SuiteEntry("asia_osm", "road", 11_950_757, 25_423_206, _road(3.0)),
    SuiteEntry("germany_osm", "road", 11_548_845, 24_738_362, _road(3.0)),
    SuiteEntry("italy_osm", "road", 6_686_493, 14_027_956, _road(3.0)),
    SuiteEntry("netherlands_osm", "road", 2_216_688, 4_882_476, _road(2.8)),
)

_BY_NAME = {e.name: e for e in SUITE}


def dataset_names() -> list[str]:
    """Table II names in paper order."""
    return [e.name for e in SUITE]


def cc_subset_names() -> list[str]:
    """Datasets of the CC study (Section III): the whole table."""
    return dataset_names()


def spmm_subset_names() -> list[str]:
    """Datasets of the unstructured spmm study (Section IV): the whole table."""
    return dataset_names()


def scalefree_subset_names() -> list[str]:
    """Datasets of the scale-free study (Section V).

    "Matrices in rows 1 through 11 excluding 4 and 7" — i.e. everything
    above the road networks except delaunay_n22 and qcd5_4, which are not
    scale-free.
    """
    excluded = {"delaunay_n22", "qcd5_4"}
    return [e.name for e in SUITE[:11] if e.name not in excluded]


def load_dataset(
    name: str,
    scale: float = DEFAULT_SCALE,
    rng: RngLike = None,
) -> Dataset:
    """Generate the scaled synthetic analog of Table II entry *name*.

    Deterministic by default: the seed derives from the dataset name and
    scale, so every experiment sees the same instance.
    """
    if name not in _BY_NAME:
        raise WorkloadError(
            f"unknown dataset {name!r}; known: {', '.join(dataset_names())}"
        )
    if not 0.0 < scale <= 1.0:
        raise WorkloadError(f"scale must be in (0, 1], got {scale}")
    # Chaos hook: an armed ``crash_synth`` fault fires here, before any
    # building, so a crashed materialization leaves nothing half-made
    # (docs/ENGINE.md §Fault tolerance).  Imported lazily — workloads
    # must stay importable without pulling the engine package in.
    from repro.engine.faults import synth_fault_point

    synth_fault_point(f"table2/{name}@{scale:g}")
    entry = _BY_NAME[name]
    gen = as_generator(rng if rng is not None else stable_seed("table2", name, scale))
    n_target = max(64, int(round(entry.paper_n * scale)))
    nnz_target = max(n_target, int(round(entry.paper_nnz * scale)))
    matrix = entry.build(n_target, nnz_target, gen)
    dataset = Dataset(
        name=entry.name,
        kind=entry.kind,
        matrix=matrix,
        paper_n=entry.paper_n,
        paper_nnz=entry.paper_nnz,
    )
    dataset._symmetric = True  # every builder above symmetrizes its pattern
    return dataset


def load_suite(
    names: Iterable[str] | None = None,
    scale: float = DEFAULT_SCALE,
) -> list[Dataset]:
    """Load several datasets (all of Table II by default)."""
    return [load_dataset(n, scale=scale) for n in (names or dataset_names())]
