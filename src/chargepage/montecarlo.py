"""Monte Carlo over Haar-random pure states of fixed charge.

The entropy of a Haar-random sector state depends only on its Schmidt
spectrum: the squared singular values of each complex Gaussian d x b block,
normalized over all blocks. With m = min(d, b) and M = max(d, b) they have
the law of the eigenvalues of T = B B^T, where B is the real m x m lower
bidiagonal matrix with diagonal chi_{2M}, ..., chi_{2(M-m+1)} and
subdiagonal chi_{2(m-1)}, ..., chi_2, and tr T has the law of the block's
squared norm (the beta = 2 Laguerre model of Dumitriu & Edelman, J. Math.
Phys. 43, 5830 (2002)). A rank-1 block is one chi^2_{2M} weight. Blocks of
one (m, M) shape share one batched eigensolve. No amplitude is drawn.

Samples come in chunks of CHUNK. Chunk c draws all its variates, row by row,
from a generator keyed by (seed, c) before any eigensolve. So the numbers do
not depend on chunk order or batch size, and the first k samples of a run
are those of a k-sample run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .models import ChargeModel
from .sectors import block_table

#: samples per generator
CHUNK = 512
#: bytes one batch may allocate: the chunk's chi^2 draws plus its T matrices
MAX_BATCH_BYTES = 32 * 2**20


class SectorSizeError(ValueError):
    pass


@dataclass(frozen=True)
class McConfig:
    model: ChargeModel
    n_total: int
    n_a: int
    q_total: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples = {self.samples} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class McRun:
    config: McConfig
    entropies: np.ndarray
    mean: float
    std_error: float
    sample_variance: float
    plan: dict  # sampler facts for the output metadata


def _tridiagonal(draws: np.ndarray, m: int) -> np.ndarray:
    """Lower triangle of T = B B^T for rows of [diagonal^2 (m), subdiagonal^2]."""
    x, y = draws[:, :m], draws[:, m:]
    t = np.zeros((len(draws), m, m))
    i = np.arange(m)
    t[:, i, i] = x
    t[:, i[1:], i[1:]] += y
    t[:, i[1:], i[:-1]] = np.sqrt(x[:, :-1] * y)
    return t


def _chunk_entropies(groups, dof, seed: int, index: int, rows: int, batch: int):
    """Entropies of the first ``rows`` samples of chunk ``index``."""
    draws = np.random.default_rng((seed, index)).chisquare(dof, size=(rows, dof.size))
    out = np.empty(rows)
    for lo in range(0, rows, batch):
        hi, weights, col = min(lo + batch, rows), [], 0
        for (m, _), count in groups:
            block = draws[lo:hi, col:col + count * (2 * m - 1)].reshape(-1, 2 * m - 1)
            col += count * (2 * m - 1)
            weights.append(block if m == 1 else np.linalg.eigvalsh(_tridiagonal(block, m)))
        p = np.maximum(np.concatenate([w.reshape(hi - lo, -1) for w in weights], 1), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        out[lo:hi] = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
    return out


def run(config: McConfig) -> McRun:
    """Sample the configured sector and summarize the entropy statistics."""
    table = block_table(config.model, config.n_total, config.n_a, config.q_total)
    groups = sorted(Counter((min(d, b), max(d, b)) for _, d, b in table.blocks).items())
    chunk = min(CHUNK, config.samples)
    draw_bytes = 8 * chunk * sum(count * (2 * m - 1) for (m, _), count in groups)
    row_bytes = 8 * sum(count * m * m for (m, _), count in groups)
    if max(big for (_, big), _ in groups) > 2**1000:
        raise SectorSizeError("a block dimension over 2^1000 overflows the chi^2 draws")
    if draw_bytes + row_bytes > MAX_BATCH_BYTES:
        raise SectorSizeError(
            f"one sample row needs {draw_bytes + row_bytes} bytes ({draw_bytes} of chi^2 "
            f"draws for {chunk} rows, {row_bytes} of eigensolve matrices), over the "
            f"{MAX_BATCH_BYTES}-byte batch budget")
    batch = min(chunk, (MAX_BATCH_BYTES - draw_bytes) // row_bytes)
    dof = np.concatenate([
        np.tile(2.0 * np.r_[float(big) - np.arange(m), np.arange(m - 1, 0, -1)], count)
        for (m, big), count in groups])
    entropies = np.concatenate([
        _chunk_entropies(groups, dof, config.seed, start // CHUNK,
                         min(CHUNK, config.samples - start), batch)
        for start in range(0, config.samples, CHUNK)])
    var = float(np.var(entropies, ddof=1)) if config.samples > 1 else 0.0
    plan = {"sampler": "laguerre-bidiagonal", "chunk": CHUNK, "shape_groups": len(groups),
            "max_min_dim": groups[-1][0][0], "batch_bytes": draw_bytes + batch * row_bytes}
    return McRun(config, entropies, float(np.mean(entropies)),
                 math.sqrt(var / config.samples), var, plan)
