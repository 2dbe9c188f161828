"""Monte Carlo over Haar-random pure states of fixed charge.

The entropy of a Haar-random sector state depends only on its Schmidt
spectrum, the squared singular values lambda of each complex Gaussian d x b
block: S = (Z log Z - L) / Z with Z = sum lambda and L = sum lambda log
lambda over all blocks, so no spectrum is normalized. With m = min(d, b) and
M = max(d, b) they have the law of the eigenvalues of T = B B^T, where B is
the real m x m lower bidiagonal matrix with diagonal chi_{2M}, ...,
chi_{2(M-m+1)} and subdiagonal chi_{2(m-1)}, ..., chi_2, and tr T has the law
of the block's squared norm (the beta = 2 Laguerre model of Dumitriu &
Edelman, J. Math. Phys. 43, 5830 (2002)). A rank-1 block is one chi^2_{2M}
weight, and blocks of one (m, M) shape share batched solves. For SU(2) the
entropy is that of the multiplicity-space (block) state, as in exactavg.

A shape group takes its spectra by one of two routes. For m <= 32 and
m > 128 they are eigvalsh(T). For 32 < m <= 128 they are the squared
singular values of the upper bidiagonal B^T. Both routes solve the same
draws, and their eigenvalues agree within a few ulps of the largest. The
bounds are where LAPACK (OpenBLAS ships reference LAPACK's ilaenv) changes
algorithm. eigvalsh (dsyevd -> dsytrd) switches to the blocked Householder
reduction above n = 32, which does O(m^3) work even on a tridiagonal input.
gesdd without vectors runs the unblocked dgebd2 up to n = 128. On an upper
bidiagonal its reflectors are identities (tau = 0, skipped), so gesdd
reduces to the dqds solve dlasq1 (Fernando & Parlett, Numer. Math. 67, 191
(1994)) on the same two diagonals, at O(m^2), and its singular values are
dlasq1's bit for bit. Above 128 the blocked dgebrd costs O(m^3) again.

The SVD route therefore calls dlasq1 itself, through ctypes, on d = sqrt(x)
and e = sqrt(y), with no m x m matrix: the ILP64 symbol scipy_dlasq1_64_
(64-bit N and INFO) of numpy's own LAPACK, the scipy-openblas library that
numpy loaded (numpy.libs in Linux and Windows wheels, numpy/.dylibs on
macOS). The lookup runs once, at import, and imports no scipy. With another
LAPACK build, or on any failed lookup, the route stays np.linalg.svd(B^T,
compute_uv=False) (gesdd), and McRun.plan["svd_solver"] names the solver in
use. Each solve call allocates its own arrays, so threads share nothing,
and ctypes releases the GIL during each call. dlasq1 returns NaNs with
INFO = 0 on a NaN input where gesdd raises LinAlgError, so a non-finite draw
row raises that LinAlgError here too. Measured per matrix, batched, one BLAS
thread (x86-64, median of 5 runs of the median of 7):

    m             32     33     100    127    128    129
    eigvalsh(T)   27.9   47.5   371    578    688    749   us
    svd(B^T)      36.9   38.6   302    484    535    854   us
    dlasq1        29.2   30.5   218    343    364    369   us

dlasq1's values agree with eigvalsh's within 6.3e-15 of the largest, and
above 128 it would also beat eigvalsh, but its values there differ from
eigvalsh's (7.8e-15 of the largest up to m = 300), so printed numbers would
change and the route stays eigvalsh.

Samples come in chunks of CHUNK. Chunk c draws all its variates, row by row,
from a generator keyed by (seed, c) before any solve. So the numbers do
not depend on chunk order, solve call size or worker count, and the first k
samples of a run are those of a k-sample run.

Schedule. A run takes one worker per usable CPU, fewer if a chunk has fewer
rows or the budget holds fewer (below), and one if the seconds a pool would
share are predicted below POOL_SECONDS. Chunks go in waves of one per
worker, and a wave runs as one task per worker: the first on the calling
thread, the others on plain threads, all joined before the next wave (an
exception of any task is raised in the caller once all are joined). In a
full wave each task draws its own chunk and solves it. A wave of fewer
chunks (the last one, or a one-chunk run) draws them, then splits each
chunk's rows into one piece per task for the solves. numpy releases the GIL
in the draws and the solves. The first pooled run of a process leaves about
0.9 MiB more resident, in the second glibc malloc arena its thread opens.

Predicted serial seconds per sample, one fit over the 53 benchmark Monte
Carlo configs and perfbench's self-test config, one BLAS thread, x86-64,
minimum of 7 runs:

    per chi^2 variate                          160 ns
    per block solved by eigvalsh (m <= 32)     17 ns m^2 + 6 ns m
    per block solved by dlasq1 (the SVD route) 19 ns m^2
    per block solved by gesdd (its fallback)   27 ns m^2
    per run, not shared                        0.45 ms

The dlasq1 figure is gesdd's times the ratio of their least-squares c m^2
fits over batched solves at 11 m from 33 to 128 (0.68 and 0.72 in two
runs). Predicted over measured time ranged from 0.64 to 1.34, against 0.60
to 1.69 for the best power law of the samples * sum(count * m^3) work the
rule used before. With gesdd, two workers beat one from about 1.2 ms on the
benchmark's 48 small sectors at 1000 samples (two chunks, one per thread)
and from about 4 ms on one-chunk runs of u1-qubit N = 16 (blocks up to 70
wide, 2 to 20 samples split in two). With dlasq1 (medians of 11, 2-vCPU
host, in a stretch where two busy processes ran in parallel), one-chunk runs
of u1-qubit N = 16 won from 8 samples (2.6 ms predicted) and lost at 5 (1.6
ms), and waves of two small-sector chunks won at 2.3 ms and lost at 1.7 ms.
In stretches where the second vCPU was not free, two workers lost at every
size tried, up to 65 ms. POOL_SECONDS sits between the break-evens. A sector
with a block wider than 128 predicts 0 s and runs serial. The rule does not
read the BLAS thread count: both routes run one thread up to m = 128 however
it is set, and above it eigvalsh's blocked reduction already spreads over
BLAS's threads, so a pool shares the cores with them. CPU time over wall
time of batched solves with no BLAS thread count set (2-vCPU x86-64):

    m         16       32       33       70       126      128      129      200      400
    route     eigvalsh eigvalsh svd      svd      svd      svd      eigvalsh eigvalsh eigvalsh
    cpu/wall  1.02     1.00     1.00     1.00     1.00     1.00     1.91     1.99     1.99

There the svd columns are gesdd's; dlasq1 read 1.00, 1.00, 1.00 and 0.99 at
m = 33, 70, 126 and 128.

Memory: one count, _call_bytes, sizes everything. A solve call of r rows of
one shape group solved by dlasq1 holds 8 m (4 r count + 4) bytes: per block
its copied draws and its d and e, which become its spectrum, plus dlasq1's
work array. Any other solve call holds 8 m (r count (m + 5) + m) bytes: per
block its matrix, copied draws and numpy's ufunc buffers or eigenvalues,
plus numpy's copy of one matrix for LAPACK. A sector is admitted if one
chunk's chi^2 draws plus the largest one-row call fit MAX_BATCH_BYTES, and
at most the budget over that sum workers run. Each holds one chunk's draws
and solves the most whole rows per call that fit min(SOLVE_BYTES, its share
less the draws), at least one and at most its piece of a chunk.
McRun.plan["batch_bytes"] reports workers x (draws + the largest call). The
entropies, 8 bytes a sample, are one array outside that budget; McConfig
refuses more samples than fit MAX_RESULT_BYTES, and the waves are made as
they run, so nothing grows with the sample count before the first draw.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .models import ChargeModel
from .sectors import block_table

#: samples per generator
CHUNK = 512
#: the sampler budget, shared by the workers: each holds one chunk's chi^2
#: draws and one solve call (module docstring)
MAX_BATCH_BYTES = 32 * 2**20
#: bytes per solve call unless one row takes more. On mc_large_sectors 512 KiB
#: to 2 MiB of matrices per call ran equally fast, 256 KiB slower, and more
#: only raised the peak (ROADMAP)
SOLVE_BYTES = 2**20
#: bytes of the entropy array a run returns, 8 per sample: at most 2^27 samples
MAX_RESULT_BYTES = 2**30
#: predicted seconds per sample: per chi^2 variate, per block solved by
#: eigvalsh (times m^2 and m) or by the SVD route's solver (times m^2). One fit
#: over the benchmark's Monte Carlo configs, one BLAS thread, x86-64; dlasq1's
#: is gesdd's times their per-matrix ratio (module docstring)
VARIATE_SECONDS = 160e-9
EIGVALSH_SECONDS = (17e-9, 6e-9)
SVD_SECONDS = {"dlasq1": 19e-9, "gesdd": 27e-9}
#: least predicted seconds of shared draws and solves run on more than one
#: thread: between the two measured break-evens (module docstring)
POOL_SECONDS = 2e-3
#: the m solved as singular values of B^T rather than eigenvalues of T:
#: eigvalsh turns to an O(m^3) blocked reduction above m = 32, and gesdd
#: turns to one above m = 128 (module docstring)
SVD_MIN_DIM, SVD_MAX_DIM = 33, 128


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
        if 8 * self.samples > MAX_RESULT_BYTES:
            raise SectorSizeError(
                f"{self.samples} samples need {_count(8 * self.samples)} bytes of entropies, "
                f"over the {MAX_RESULT_BYTES}-byte result bound")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class McRun:
    entropies: np.ndarray
    mean: float
    std_error: float
    sample_variance: float
    plan: dict  # sampler facts for the output metadata


def _tridiagonal(draws: np.ndarray, m: int) -> np.ndarray:
    """Lower triangle of T = B B^T for rows of [diagonal^2 (m), subdiagonal^2]."""
    x, y = draws[:, :m], draws[:, m:]
    t = np.zeros((len(draws), m, m))
    flat = t.reshape(len(draws), m * m)
    diagonal, sub = flat[:, ::m + 1], flat[:, m::m + 1]
    diagonal[:, 0] = x[:, 0]
    np.add(x[:, 1:], y, out=diagonal[:, 1:])
    np.sqrt(np.multiply(x[:, :-1], y, out=sub), out=sub)
    return t


def _bidiagonal(draws: np.ndarray, m: int) -> np.ndarray:
    """Upper bidiagonal B^T, with T = B B^T, for rows of [diagonal^2 (m), subdiagonal^2]."""
    b = np.zeros((len(draws), m, m))
    flat = b.reshape(len(draws), m * m)
    np.sqrt(draws[:, :m], out=flat[:, ::m + 1])
    np.sqrt(draws[:, m:], out=flat[:, 1::m + 1])
    return b


def _find_dlasq1():
    """LAPACK's dlasq1 from the ILP64 scipy-openblas library that numpy loaded,
    or None for any other build or any failed lookup (module docstring)."""
    try:
        if np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"] != "scipy-openblas":
            return None
        numpy_dir = Path(np.__file__).parent
        for libs in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs"):
            for name in sorted(os.listdir(libs)) if libs.is_dir() else []:
                if name.startswith("libscipy_openblas64_"):
                    kernel = ctypes.CDLL(str(libs / name)).scipy_dlasq1_64_
                    kernel.restype, kernel.argtypes = None, [ctypes.c_void_p] * 5
                    return kernel
    except (AttributeError, KeyError, OSError, TypeError):
        pass
    return None


#: the SVD route's solver, found once: dlasq1 on the two diagonals, or None
#: for gesdd on the dense B^T
_DLASQ1 = _find_dlasq1()


def _svd_solver() -> str:
    return "gesdd" if _DLASQ1 is None else "dlasq1"


def _squared_singular_values(block: np.ndarray, m: int) -> np.ndarray:
    """Squared singular values of B^T, decreasing, one row per sample row of
    ``block``, from dlasq1 on d = sqrt(x) and e = sqrt(y). Each row of ``roots``
    holds one matrix's d (m) and e (m - 1, padded to m), and dlasq1 leaves the
    singular values in d. A non-finite draw, on which dlasq1 returns NaNs, is
    refused as gesdd refuses it."""
    roots = np.zeros((len(block), 2 * m))
    np.sqrt(block, out=roots[:, :2 * m - 1])
    if not np.isfinite(roots).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    work, n, info = np.empty(4 * m), ctypes.c_int64(m), ctypes.c_int64(0)
    n_p, work_p, info_p = ctypes.addressof(n), work.ctypes.data, ctypes.addressof(info)
    for d in range(roots.ctypes.data, roots.ctypes.data + roots.nbytes, 16 * m):
        _DLASQ1(n_p, d, d + 8 * m, work_p, info_p)
        if info.value:
            raise np.linalg.LinAlgError("SVD did not converge")
    return np.square(roots[:, :m], out=roots[:, :m])


def _spectra(block: np.ndarray, m: int) -> np.ndarray:
    """Eigenvalues of T, one row per sample row of ``block``, by the route for m."""
    if m == 1:
        return block
    if SVD_MIN_DIM <= m <= SVD_MAX_DIM:
        if _DLASQ1 is not None:
            return _squared_singular_values(block, m)
        return np.linalg.svd(_bidiagonal(block, m), compute_uv=False) ** 2
    return np.linalg.eigvalsh(_tridiagonal(block, m))


def _draw(dof: np.ndarray, seed: int, index: int, rows: int) -> np.ndarray:
    """The chi^2 variates of the first ``rows`` samples of chunk ``index``."""
    return np.random.default_rng((seed, index)).chisquare(dof, size=(rows, dof.size))


def _entropies(groups, draws: np.ndarray, steps) -> np.ndarray:
    """Entropies of the sample rows ``draws`` from running sums of Z and L per row,
    solving shape group i ``steps[i]`` rows per call. Spectra are clamped to the
    least normal float, so lambda log lambda needs no mask."""
    z, logs, col = np.zeros(len(draws)), np.zeros(len(draws)), 0
    for ((m, _), count), step in zip(groups, steps):
        for lo in range(0, len(draws), step):
            rows = draws[lo:lo + step, col:col + count * (2 * m - 1)]
            lam = np.maximum(_spectra(rows.reshape(-1, 2 * m - 1), m), np.finfo(float).tiny)
            lam = lam.reshape(len(rows), -1)
            z[lo:lo + step] += lam.sum(axis=1)
            logs[lo:lo + step] += (lam * np.log(lam)).sum(axis=1)
        col += count * (2 * m - 1)
    return (z * np.log(z) - logs) / z


def _call_bytes(group, rows: int) -> int:
    """Bytes a solve call of ``rows`` sample rows of one shape group holds. On
    dlasq1, per block: 2m - 1 copied draws and its d and e, padded to 2m, which
    become its spectrum; per call: dlasq1's work array of 4m. Otherwise, per
    block: its m x m matrix, 2m - 1 copied draws, and up to 3(m - 1) values of
    numpy's ufunc buffers while T or B^T is filled (every operand there is a
    2-d strided view), m eigenvalues after; per call: numpy's linalg gufuncs
    copy the matrix they solve into a malloc'd buffer that tracemalloc does
    not see."""
    (m, _), count = group
    if _DLASQ1 is not None and SVD_MIN_DIM <= m <= SVD_MAX_DIM:
        return 8 * m * (4 * rows * count + 4)
    return 8 * m * (rows * count * (m + 5) + m)


def _count(x: int) -> str:
    """``x`` exact up to 10^12, above that with 3 significant figures (1.23e+45)."""
    return str(x) if x <= 10**12 else f"{Decimal(x):.3g}"  # a float overflows past 10^308


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_seconds(groups, samples: int) -> float:
    """Predicted serial seconds of the draws and solves a pool would share; 0
    if a block is wider than SVD_MAX_DIM, whose eigvalsh already runs on
    BLAS's threads (module docstring)."""
    if groups[-1][0][0] > SVD_MAX_DIM:
        return 0.0
    seconds = 0.0
    for (m, _), count in groups:
        solve = (0.0 if m == 1 else SVD_SECONDS[_svd_solver()] * m * m if m >= SVD_MIN_DIM
                 else EIGVALSH_SECONDS[0] * m * m + EIGVALSH_SECONDS[1] * m)
        seconds += count * (VARIATE_SECONDS * (2 * m - 1) + solve)
    return samples * seconds


def _in_threads(tasks) -> list:
    """The results of ``tasks``, callables run at once: the first on the calling
    thread, each other on a thread of its own. Every thread is joined before
    the exception of the first task that raised is raised again."""
    results, errors = [None] * len(tasks), [None] * len(tasks)

    def call(i):
        try:
            results[i] = tasks[i]()
        except BaseException as exc:  # raised again below, once all are joined
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(tasks)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            threads.append(thread)
        call(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def run(config: McConfig) -> McRun:
    """Sample the configured sector and summarize the entropy statistics."""
    table = block_table(config.model, config.n_total, config.n_a, config.q_total)
    groups = sorted(Counter((min(d, b), max(d, b)) for _, d, b in table.blocks).items())
    chunk = min(CHUNK, config.samples)
    draw_bytes = 8 * chunk * sum(count * (2 * m - 1) for (m, _), count in groups)
    if max(big for (_, big), _ in groups) > 2**1000:
        raise SectorSizeError("a block dimension over 2^1000 overflows the chi^2 draws")
    widest = max(groups, key=lambda group: _call_bytes(group, 1))
    need = draw_bytes + _call_bytes(widest, 1)
    if need > MAX_BATCH_BYTES:
        (m, big), count = widest
        raise SectorSizeError(
            f"one sample row needs {_count(need)} bytes ({_count(draw_bytes)} of chi^2 "
            f"draws for {chunk} rows, {_count(need - draw_bytes)} for one solve call of its "
            f"{count} {_count(m)}x{_count(big)} blocks), over the {MAX_BATCH_BYTES}-byte "
            f"sampler budget")
    pooled = _pooled_seconds(groups, config.samples) >= POOL_SECONDS
    workers = max(1, min(_usable_cpus(), chunk, MAX_BATCH_BYTES // need)) if pooled else 1
    # each worker holds one chunk's draws and one solve call: the most whole
    # rows of one shape group that fit the cap, at least one, and at most the
    # rows of its piece of a chunk
    cap = min(SOLVE_BYTES, MAX_BATCH_BYTES // workers - draw_bytes)
    piece = -(-chunk // workers)
    steps = [min(piece, max(1, (cap - _call_bytes(group, 0))
                            // (_call_bytes(group, 1) - _call_bytes(group, 0))))
             for group in groups]
    dof = np.concatenate([
        np.tile(2.0 * np.r_[float(big) - np.arange(m), np.arange(m - 1, 0, -1)], count)
        for (m, big), count in groups])
    entropies = np.empty(config.samples)

    def draw(start):
        return _draw(dof, config.seed, start // CHUNK, min(CHUNK, config.samples - start))

    def solve(start, rows):
        entropies[start:start + len(rows)] = _entropies(groups, rows, steps)

    def split(wave, draws, j):
        """Piece j of ``workers`` of every chunk of the wave."""
        for start, rows in zip(wave, draws):
            lo, hi = len(rows) * j // workers, len(rows) * (j + 1) // workers
            solve(start + lo, rows[lo:hi])

    for first in range(0, config.samples, workers * CHUNK):
        wave = range(first, min(config.samples, first + workers * CHUNK), CHUNK)
        if len(wave) == workers:
            _in_threads([lambda start=start: solve(start, draw(start)) for start in wave])
        else:
            draws = _in_threads([lambda start=start: draw(start) for start in wave])
            _in_threads([lambda j=j: split(wave, draws, j) for j in range(workers)])
    var = float(np.var(entropies, ddof=1)) if config.samples > 1 else 0.0
    plan = {"sampler": "laguerre-bidiagonal", "chunk": CHUNK, "shape_groups": len(groups),
            "svd_groups": sum(SVD_MIN_DIM <= m <= SVD_MAX_DIM for (m, _), _ in groups),
            "svd_solver": _svd_solver(),
            "max_min_dim": groups[-1][0][0], "workers": workers,
            "batch_bytes": workers * (draw_bytes + max(map(_call_bytes, groups, steps)))}
    return McRun(entropies, float(np.mean(entropies)),
                 math.sqrt(var / config.samples), var, plan)
