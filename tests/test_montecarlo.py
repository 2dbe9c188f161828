import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from chargepage import montecarlo
from chargepage.models import ChargeModel, catalog
from chargepage.sectors import block_table
from chargepage.exactavg import exact_average_entropy
from chargepage.montecarlo import CHUNK, McConfig, SectorSizeError, run
from conftest import dense_amplitudes, dense_entropies, dense_schmidt_weights, \
    two_pass_entropies


def test_one_dimensional_sector_always_zero():
    # two qubits fully stretched: D = 1
    result = run(McConfig(catalog("u1-qubit"), 2, 1, 2, 50, 1))
    assert np.all(result.entropies == 0.0)
    assert result.mean == 0.0
    assert result.sample_variance == 0.0


def test_single_rank_one_block_always_zero():
    # one body vs three at j = 1: single block with d = 1
    result = run(McConfig(catalog("su2-qubit"), 4, 1, 2, 50, 9))
    assert np.allclose(result.entropies, 0.0, atol=1e-12)


def test_determinism_and_seed_sensitivity():
    config = McConfig(catalog("u1-qutrit"), 6, 3, 0, 40, 1234)
    a = run(config)
    b = run(config)
    assert np.array_equal(a.entropies, b.entropies)
    c = run(McConfig(catalog("u1-qutrit"), 6, 3, 0, 40, 1235))
    assert not np.array_equal(a.entropies, c.entropies)


def test_run_prefix_stable_and_chunk_order_free(monkeypatch):
    # chunk c draws from a generator keyed by (seed, c) alone, row by row:
    # the first k samples of a run are a k-sample run, and chunks evaluated
    # in any order give the same entropies
    config = McConfig(catalog("su2-trimer"), 4, 2, 2, 2 * CHUNK + 37, 77)
    calls = []
    draw = montecarlo._draw
    monkeypatch.setattr(montecarlo, "_draw",
                        lambda *args: calls.append(args) or draw(*args))
    full = run(config).entropies
    chunks = list(calls)
    assert full.shape == (2 * CHUNK + 37,) and len(chunks) == 3
    for k in (1, 37, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
        assert np.array_equal(run(replace(config, samples=k)).entropies, full[:k])
    # chunks drawn last-first feed the same entropies
    last_first = {args[2:]: draw(*args) for args in reversed(chunks)}
    monkeypatch.setattr(montecarlo, "_draw",
                        lambda dof, seed, index, rows: last_first[index, rows])
    assert np.array_equal(run(config).entropies, full)


def draw_bytes(blocks):
    """One chunk's chi^2 draws."""
    return 8 * CHUNK * sum(2 * min(d, b) - 1 for _, d, b in blocks)


def call_bytes(m, count, rows):
    """What a solve call of ``rows`` rows of ``count`` m x m blocks holds: each
    block's matrix, its 2m - 1 copied draws and up to 3(m - 1) values of numpy's
    ufunc buffers, and numpy's copy of one matrix for LAPACK, which tracemalloc
    does not see."""
    return 8 * (rows * count * (m * m + 5 * m) + m * m)


@pytest.mark.parametrize("config", [
    McConfig(catalog("u1-qubit"), 10, 5, 0, 300, 3),  # eigvalsh only
    McConfig(catalog("u1-qubit"), 14, 7, 0, 300, 4),  # two 35x35 blocks: the SVD route
    McConfig(catalog("u1-qubit"), 20, 10, 0, 4, 5),  # two 252x252 blocks: eigvalsh again
    McConfig(catalog("su2-trimer"), 4, 2, 2, 300, 6),  # rank-1 blocks
    McConfig(catalog("su2-qubit"), 20, 10, 2, 20, 7),  # a 90x207 block
])
def test_running_sums_match_the_two_pass_formula(config):
    # S = (Z log Z - L) / Z from the running sums against -sum p log p over
    # the normalized spectra of the same draws
    reference = two_pass_entropies(config)
    entropies = run(config).entropies
    assert np.all(np.abs(entropies - reference) <= 1e-13 * np.maximum(1.0, reference))


def test_svd_route_covers_exactly_the_blocks_from_33_to_128():
    # inside the window the spectra are the squared singular values of B^T
    # and agree with eigvalsh(T) on the same draws within 1e-13 of the
    # largest eigenvalue; just outside it they are eigvalsh(T), byte for byte
    for m in (32, 33, 70, 128, 129):
        dof = 2.0 * np.r_[m + 7 - np.arange(m), np.arange(m - 1, 0, -1)]
        block = montecarlo._draw(dof, m, 0, 6)
        spectra = montecarlo._spectra(block, m)
        eigenvalues = np.linalg.eigvalsh(montecarlo._tridiagonal(block, m))
        if m in (32, 129):
            assert spectra.tobytes() == eigenvalues.tobytes()
            continue
        svd = np.linalg.svd(montecarlo._bidiagonal(block, m), compute_uv=False) ** 2
        assert spectra.tobytes() == svd.tobytes()
        scale = eigenvalues[:, -1:]
        assert np.all(np.abs(np.sort(spectra, axis=1) - eigenvalues) <= 1e-13 * scale)


def test_schmidt_weights_normalized_per_sample():
    # the oracle's blockwise SVD weights add up to each state's squared norm
    table = block_table(catalog("u1-qubit"), 8, 4, 0)
    amps = dense_amplitudes(table, np.random.default_rng(5), 16)
    total = dense_schmidt_weights(table, amps).sum(axis=1)
    norms = (np.abs(amps) ** 2).sum(axis=1)
    assert np.allclose(total / norms, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, n, n_a, q2", [
    ("u1-qutrit", 6, 1, 0),  # three rank-1 blocks: 1x45, 1x51, 1x45
    ("su2-qubit", 10, 4, 2),  # rectangular SU(2) blocks: 2x9, 3x19, 1x15
    ("u1-qubit", 8, 4, 0),  # square U(1) blocks: 1x1, 4x4, 6x6, 4x4, 1x1
])
def test_spectrum_sampler_matches_dense_oracle(name, n, n_a, q2):
    # two-sample KS test of the bidiagonal spectrum sampler against states
    # drawn amplitude by amplitude, passing at p > 1e-4 per sector: over
    # random seeds the three cases give a false failure with probability
    # at most 3e-4.
    model = catalog(name)
    table = block_table(model, n, n_a, q2)
    oracle = dense_entropies(table, np.random.default_rng((q2, n, n_a, 17)), 5000)
    sampled = run(McConfig(model, n, n_a, q2, 5000, 2024)).entropies
    assert ks_2samp(oracle, sampled).pvalue > 1e-4


def test_entropies_within_sector_bound():
    model = catalog("u1-qutrit")
    table = block_table(model, 8, 4, 0)
    result = run(McConfig(model, 8, 4, 0, 300, 11))
    assert np.all(result.entropies >= 0.0)
    assert np.all(result.entropies <= math.log(table.sector_dimension) + 1e-9)


def test_summary_statistics_consistent_with_samples():
    result = run(McConfig(catalog("su2-qubit"), 8, 4, 4, 500, 3))
    assert abs(result.mean - result.entropies.mean()) < 1e-12
    assert abs(result.sample_variance - result.entropies.var(ddof=1)) < 1e-12
    assert abs(result.std_error
               - math.sqrt(result.sample_variance / 500)) < 1e-15


def test_mean_agrees_with_exact_formula():
    for name, n, n_a, q2 in (("u1-qubit", 8, 4, 0), ("su2-trimer", 4, 2, 4)):
        model = catalog(name)
        exact = exact_average_entropy(model, n, n_a, q2).value
        mc = run(McConfig(model, n, n_a, q2, 20000, 424242))
        assert abs(mc.mean - exact) < 4 * mc.std_error  # 6.3e-5 per sector, 1.3e-4 for both


def test_svd_route_mean_agrees_with_exact_formula():
    # u1-qubit N = 14 at the half cut has two 35x35 blocks; no other test
    # compares the sampler with the exact formula on a block wider than 24.
    # |z| < 4 fails a correct sampler with probability 6.3e-5 over seeds
    model = catalog("u1-qubit")
    mc = run(McConfig(model, 14, 7, 0, 4000, 1729))
    assert mc.plan["svd_groups"] == 1
    exact = exact_average_entropy(model, 14, 7, 0).value
    assert abs(mc.mean - exact) < 4 * mc.std_error


def test_u1_subsystem_swap_leaves_distribution_unchanged():
    # the U(1) block decomposition is exchange symmetric, so the sampled
    # entropy distributions must agree statistically
    model = catalog("u1-qubit")
    a = run(McConfig(model, 10, 3, 2, 10000, 2718))
    b = run(McConfig(model, 10, 7, 2, 10000, 281828))
    # p is uniform under the null for continuous samples: false failures 1e-3
    assert ks_2samp(a.entropies, b.entropies).pvalue > 0.001


def test_concentration_of_samples():
    result = run(McConfig(catalog("u1-qubit"), 12, 6, 0, 3000, 6022))
    spread = 5 * math.sqrt(result.sample_variance)
    inside = np.mean(np.abs(result.entropies - result.mean) <= spread)
    # 200k samples put 1e-5 of them beyond 5 sigma; 31 of 3000 has probability below 1e-12
    assert inside >= 0.99


def test_memory_budget_guard():
    # binom(30, 15)^2 ~ 2.4e16 amplitudes in the central block
    with pytest.raises(SectorSizeError):
        run(McConfig(catalog("u1-qubit"), 60, 30, 0, 1, 0))
    # no block over 10^7 amplitudes, but one solve call of one row of the two
    # 2907x2907 blocks holds three such matrices with numpy's copy, 203 MB
    with pytest.raises(SectorSizeError, match="203362912 bytes"):
        run(McConfig(catalog("u1-qutrit"), 18, 9, 0, 1, 0))


def test_batch_budget_refuses_and_bounds_allocation(monkeypatch):
    budget = 2 * 2**20
    monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", budget)
    model = catalog("u1-qubit")

    def no_draw(*args):
        raise AssertionError("an over-budget sector must be refused before any draw")

    # N = 22: one row of the two 462x462 blocks is a 5.2 MB solve call
    with monkeypatch.context() as patch, \
            pytest.raises(SectorSizeError, match=r"needs \d+ bytes"):
        patch.setattr(montecarlo, "_draw", no_draw)
        run(McConfig(model, 22, 11, 0, 10, 1))
    # N = 14: admitted, with its solve calls sized to the budget's share
    config = McConfig(model, 14, 7, 0, 2 * CHUNK, 1)
    run(replace(config, samples=2))  # first-use allocations of numpy's generator
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.plan["batch_bytes"] <= budget
    # slack: 1/8 of the budget for what the bound leaves out, the running sums
    # and the entropy output (tracemalloc sees numpy's array buffers, not
    # LAPACK's small workspace)
    assert peak <= budget + budget // 8


def test_admission_counts_one_solve_call_not_a_whole_row(monkeypatch):
    # u1-qubit N = 16 at the half cut: one sample row holds 8 * binom(16, 8) =
    # 102960 bytes of matrices, but a solve call holds one shape group's. The
    # largest one-row call is the 70x70 block with numpy's copy of it
    budget = 96 * 2**10
    config = McConfig(catalog("u1-qubit"), 16, 8, 0, 1, 1)
    reference = run(config)
    monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", budget)
    force_workers(monkeypatch, 1)
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws = draw_bytes(block_table(config.model, 16, 8, 0).blocks) // CHUNK
    assert result.plan["batch_bytes"] == draws + call_bytes(70, 1, 1) <= budget
    assert draws + 8 * 12870 > budget  # a whole row of matrices would not fit
    assert peak <= budget + budget // 8
    assert result.entropies.tobytes() == reference.entropies.tobytes()


def force_workers(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs and pool every run, whatever its predicted seconds."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "POOL_SECONDS", 0.0)


@pytest.mark.parametrize("config", [
    McConfig(catalog("su2-trimer"), 4, 2, 2, 2 * CHUNK + 37, 77),  # three chunks
    McConfig(catalog("u1-qubit"), 12, 6, 0, 300, 2**63 + 5),  # one chunk
    McConfig(catalog("u1-qubit"), 14, 7, 0, 300, 5),  # two 35x35 blocks: the SVD route
])
def test_worker_count_does_not_change_numbers(monkeypatch, config):
    force_workers(monkeypatch, 1)
    serial = run(config)
    assert serial.plan["workers"] == 1
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        result = run(config)
        assert result.plan["workers"] == workers
        assert result.entropies.tobytes() == serial.entropies.tobytes()


def test_budget_sliced_parallel_run_does_not_change_numbers(monkeypatch):
    # two chunks, and a budget that holds a few rows of T matrices per worker
    config = McConfig(catalog("u1-qubit"), 10, 5, 0, CHUNK + 100, 31)
    reference = run(config)
    # each worker's share holds 4 rows of the two 10x10 blocks per call
    budget = 3 * (draw_bytes(block_table(config.model, 10, 5, 0).blocks) + call_bytes(10, 2, 4))
    monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", budget)
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        result = run(config)
        assert result.plan["workers"] == workers
        assert result.plan["batch_bytes"] <= budget
        assert result.entropies.tobytes() == reference.entropies.tobytes()


def test_worker_count_ignores_the_blas_environment():
    # one sector above the pool's break-even on two usable CPUs: the BLAS
    # thread variables change neither the worker count nor a single entropy bit
    assert predicted_seconds(McConfig(catalog("u1-qubit"), 12, 6, 0, 600, 8)) \
        >= 2 * montecarlo.POOL_SECONDS
    code = ("import sys\n"
            "from chargepage import montecarlo\n"
            "from chargepage.models import catalog\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "run = montecarlo.run(montecarlo.McConfig(catalog('u1-qubit'), 12, 6, 0, 600, 8))\n"
            "sys.stdout.write(f\"{run.plan['workers']} {run.entropies.tobytes().hex()}\")\n")
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    unset = {key: value for key, value in os.environ.items()
             if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    outs = [subprocess.run([sys.executable, "-c", code],
                           env={**unset, **blas, "PYTHONPATH": src},
                           check=True, capture_output=True, text=True).stdout
            for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "4"})]
    assert outs[0].split()[0] == "2"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def predicted_seconds(config):
    table = block_table(config.model, config.n_total, config.n_a, config.q_total)
    groups = sorted(Counter((min(d, b), max(d, b)) for _, d, b in table.blocks).items())
    return montecarlo._pooled_seconds(groups, config.samples)


def test_run_below_work_floor_uses_one_worker(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    # u1-qubit N = 12 at the half cut: 50 samples are predicted at 1.8 ms
    small = McConfig(catalog("u1-qubit"), 12, 6, 0, 50, 8)
    assert predicted_seconds(small) < montecarlo.POOL_SECONDS
    assert run(small).plan["workers"] == 1
    assert run(replace(small, samples=600)).plan["workers"] == 4


@pytest.mark.parametrize("n, samples, workers", [
    (16, 3, 1),  # blocks up to 70 wide: 2.67 ms serial, 5.05 ms on two threads
    (10, 800, 2),  # blocks up to 10 wide: 17.5 ms serial, 11.4 ms on two threads
])
def test_pool_follows_predicted_seconds_not_m_cubed(monkeypatch, n, samples, workers):
    # samples * sum(count * m^3) rated the first run 2.2e6 and the second
    # 1.8e6, and so pooled the one that loses and not the one that gains
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    config = McConfig(catalog("u1-qubit"), n, n // 2, 0, samples, 1)
    assert run(config).plan["workers"] == workers


def test_blocks_wider_than_128_run_serial(monkeypatch):
    # eigvalsh above m = 128 spreads over BLAS's threads: on u1-qubit N = 20
    # at the half cut (blocks up to 252 wide), 64 samples, two workers took
    # 0.571-0.575 s against 0.486-0.511 s serial, with 64 ms predicted for
    # its blocks up to 120 wide. The solves are stubbed: only the plan counts
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "_entropies",
                        lambda groups, draws, steps: np.zeros(len(draws)))
    config = McConfig(catalog("u1-qubit"), 20, 10, 0, 64, 1)
    assert predicted_seconds(config) == 0.0
    assert run(config).plan["workers"] == 1
    # its blocks up to 120 wide alone, at q = 4, do pool
    assert run(replace(config, q_total=8)).plan["workers"] == 2


def test_serial_path_imports_no_thread_pool():
    # nor does a pooled run: neither imports concurrent.futures. Nor scipy,
    # which only the tests need: importing it costs more than the rest of startup
    code = ("import contextlib, io, sys\n"
            "from chargepage import cli, montecarlo\n"
            "from chargepage.models import catalog\n"
            "run = montecarlo.run(montecarlo.McConfig(catalog('u1-qubit'), 8, 4, 0, 50, 1))\n"
            "assert run.plan['workers'] == 1\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "run = montecarlo.run(montecarlo.McConfig(catalog('u1-qubit'), 10, 5, 0, 800, 1))\n"
            "assert run.plan['workers'] == 2\n"
            "model = ['--model', 'su2-trimer']\n"
            "for argv in (['dims', *model, '--n', '6'],\n"
            "             ['exact', *model, '--n', '8', '--na', '3', '--q', '1'],\n"
            "             ['page-curve', *model, '--n', '12', '--s', '0.3', '--exact'],\n"
            "             ['thermo', *model, '--grid', '3'],\n"
            "             ['crosscheck', '--model', 'u1-qubit', '--n-list', '8,12',\n"
            "              '--f', '1/2', '--s', '0.1', '--samples', '20'],\n"
            "             ['mc', '--model', 'u1-qubit', '--n', '8', '--na', '4',\n"
            "              '--q', '0', '--samples', '50']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert 'scipy' not in sys.modules\n")
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)


def test_parallel_run_shares_the_batch_budget(monkeypatch):
    # the tracemalloc bound of test_batch_budget_refuses_and_bounds_allocation
    # with two workers: two chunks of draws and two solve calls in flight. A
    # worker's share leaves 32768 bytes per call: 24 rows of the two 7x7
    # blocks are its largest
    budget = 2 * 2**20
    monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", budget)
    force_workers(monkeypatch, 2)
    config = McConfig(catalog("u1-qubit"), 14, 7, 0, 2 * CHUNK, 1)
    run(replace(config, samples=2))  # first-use allocations of numpy's generator
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.plan["workers"] == 2
    draws = draw_bytes(block_table(config.model, 14, 7, 0).blocks)
    assert result.plan["batch_bytes"] == 2 * (draws + call_bytes(7, 2, 24))
    assert result.plan["batch_bytes"] <= budget
    assert peak <= budget + budget // 8


def test_a_worker_thread_exception_reaches_the_caller(monkeypatch):
    # a share that raises on a worker thread, in a one-chunk run split in two
    # pieces and in a run of one chunk per thread: the caller raises the same
    # exception once every thread is joined
    force_workers(monkeypatch, 2)
    caller, entropies = threading.get_ident(), montecarlo._entropies

    def fail_off_the_caller(groups, draws, steps):
        if threading.get_ident() != caller:
            raise ArithmeticError("a worker's share failed")
        return entropies(groups, draws, steps)

    monkeypatch.setattr(montecarlo, "_entropies", fail_off_the_caller)
    before = threading.active_count()
    for samples in (300, 2 * CHUNK):
        with pytest.raises(ArithmeticError) as raised:
            run(McConfig(catalog("u1-qubit"), 8, 4, 0, samples, 1))
        assert raised.type is ArithmeticError
        assert str(raised.value) == "a worker's share failed"
        assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 3])
def test_a_run_has_at_most_workers_minus_one_threads_alive(monkeypatch, workers):
    # eight chunks on three workers: two waves of one chunk per thread, then a
    # wave of two chunks drawn and split in three. Each start records the
    # threads then alive beside the test's own
    force_workers(monkeypatch, workers)
    before, alive = threading.active_count(), []

    class Counted(threading.Thread):
        def start(self):
            super().start()
            alive.append(threading.active_count() - before)

    monkeypatch.setattr(montecarlo, "threading", SimpleNamespace(Thread=Counted))
    config = McConfig(catalog("u1-qubit"), 8, 4, 0, 7 * CHUNK + 100, 1)
    assert run(config).plan["workers"] == workers
    if workers == 1:
        assert alive == []  # a serial run starts no thread
    else:
        assert len(alive) == 2 + 2 + 1 + 2 and max(alive) == workers - 1
    assert threading.active_count() == before


def test_more_threads_than_cores_switching_often_write_every_row_once(monkeypatch):
    # six workers, a 10 us switch interval and seven chunks: waves of one chunk
    # per thread and a split last wave write disjoint slices of one array,
    # which a lost or misplaced row would break
    config = McConfig(catalog("u1-qubit"), 8, 4, 0, 6 * CHUNK + 300, 3)
    force_workers(monkeypatch, 1)
    serial = run(config).entropies.tobytes()
    force_workers(monkeypatch, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run(config)
    finally:
        sys.setswitchinterval(interval)
    assert result.plan["workers"] == 6
    assert result.entropies.tobytes() == serial


def test_result_bound_refuses_before_any_work():
    # the entropy array, 8 bytes a sample, is refused when the config is made
    most = montecarlo.MAX_RESULT_BYTES // 8
    model = catalog("u1-qubit")
    assert McConfig(model, 8, 4, 0, most, 1).samples == most
    with pytest.raises(SectorSizeError) as refused:
        McConfig(model, 8, 4, 0, most + 1, 1)
    assert str(refused.value) == (f"{most + 1} samples need {8 * most + 8} bytes of "
                                  f"entropies, over the {2**30}-byte result bound")


@pytest.mark.parametrize("n, samples, workers", [
    (14, 2 * CHUNK, 1),
    (14, 2 * CHUNK, 2),
    (18, 100, 2),  # two 126x126 blocks: three rows per solve call
    (22, 4, 1),  # two 462x462 blocks: one 5.2 MB row per call, over SOLVE_BYTES
])
def test_batch_bytes_reports_what_a_run_holds(monkeypatch, n, samples, workers):
    # the reported bytes in flight, and tracemalloc's peak, at the default
    # budget: tracemalloc sees numpy's array buffers, not numpy's copy of the
    # matrix for LAPACK nor LAPACK's workspace
    force_workers(monkeypatch, workers)
    config = McConfig(catalog("u1-qubit"), n, n // 2, 0, samples, 1)
    run(replace(config, samples=2))  # first-use allocations of numpy's generator
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.plan["workers"] == workers
    held = result.plan["batch_bytes"]
    draws = draw_bytes(block_table(config.model, n, n // 2, 0).blocks)
    # the largest call: 119 rows of the two 21x21 blocks at N = 14, 43 rows of
    # the two 36x36 blocks at N = 18
    largest = {14: call_bytes(21, 2, 119), 18: call_bytes(36, 2, 43),
               22: call_bytes(462, 2, 1)}[n]
    assert held == workers * (draws * min(samples, CHUNK) // CHUNK + largest)
    assert held / 2 <= peak <= held + held // 8


@pytest.mark.parametrize("workers", [1, 2])
def test_solve_slice_size_does_not_change_numbers(monkeypatch, workers):
    # one matrix per solve call, and the whole batch in one call, against the
    # default slices: eigvalsh at m = 10, the SVD route at m = 35, and
    # eigvalsh again at m = 252
    force_workers(monkeypatch, workers)
    for n, samples in ((10, CHUNK + 100), (14, 300), (20, 6)):
        config = McConfig(catalog("u1-qubit"), n, n // 2, 0, samples, 97)
        reference = run(config).entropies.tobytes()
        for solve_bytes in (1, 2**62):
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "SOLVE_BYTES", solve_bytes)
                assert run(config).entropies.tobytes() == reference


def test_block_dimension_beyond_float_range_refused():
    # a rank-1 block of dimension about 2^1200 has no float64 chi^2 draw
    model = ChargeModel("U1", {0: 1, 2: 2**200})
    with pytest.raises(SectorSizeError, match="2\\^1000"):
        run(McConfig(model, 7, 1, 12, 5, 0))


def test_config_validation():
    model = catalog("u1-qubit")
    with pytest.raises(ValueError):
        McConfig(model, 4, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        McConfig(model, 4, 2, 0, 10, -1)
    with pytest.raises(ValueError):
        McConfig(model, 4, 2, 0, 10, 2**64)
