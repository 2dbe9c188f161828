"""Reports that set the routes side by side, as rows of numbers and strings:
``page_curve`` with exact values at the nearest cuts, ``crosscheck`` with its pass rules.

A page curve's mirror pairs {a, N - a} are independent: each has its own
weight counts and tables. A curve with enough work evaluates them in
k = min(usable CPUs, MAX_PROCESSES, pairs) processes: this one and k - 1
children made by ``os.fork``. Before the fork one ticket per pair, heaviest
pair (largest a) first, goes into a pipe, and each process draws one ticket at
a time until the pipe is empty: a process on a slow or busy CPU draws fewer,
and the last pairs drawn are the cheapest. Each child pickles its
{n_A: value}, or its exception, back through a pipe and leaves by
``os._exit``. Its work is pure-Python integer arithmetic, which takes no lock
that an idle BLAS thread could hold at the fork. Each process holds one
mirror pair's weight counts at a time, so a split curve holds up to k. If a
pipe or a fork fails (no fd, pid or memory to spare), the processes already
running draw every ticket.

A split pays a few ms for the fork, the pages both processes then copy and the
child's exit, and it needs a second core that nothing here sees: beside a
busy loop pinned to one of two CPUs every curve below ran slower split than in
one process, and benchmark runs of split curves spread wider from run to run.
So a curve whose work, tables x N x log2(d) for local dimension d, is under
MIN_SPLIT_WORK, about 50 ms in one process, runs in one process. Wall time of
page curves (2-vCPU x86-64, medians of 16, a fresh interpreter each):

    model        N  points    work   one process   split/one   beside a busy CPU
    u1-qubit     480   99    24000      16.6 ms       0.98          1.48
    su2-qubit    480   99    47520      28.4 ms       0.80          1.21
    su2-trimer   960   19    54720      49.1 ms       0.75          1.00
    su2-trimer   240   99    71280      44.0 ms       0.78          1.06
    su2-qutrit   480   99    75317      42.6 ms       0.78          1.08
    u1-qutrit    960   99    76078      83.0 ms       0.67          1.05
    su2-qubit    960   99    95040      41.9 ms       0.80          1.15
    su2-trimer   480   99   142560      88.4 ms       0.65          1.02

The estimate counts a U(1) table, one per pair, like an SU(2) table, two per
pair, so it ranks U(1) curves low: u1-qutrit at N = 960 stays in one process.
Only two processes have been measured, so MAX_PROCESSES is 2.
"""

import math
import os
import pickle
from fractions import Fraction

from . import montecarlo
from .asymptotics import Regime, average_entropy_asymptotic, checked_thermo_point, \
    estimate_at_point
from .exactavg import ENTROPY, block_average_entropy
from .models import ChargeModel, GroupKind, charge_str
from .montecarlo import McConfig, SectorSizeError, run as mc_run
from .sectors import SectorTable, block_tables, sector_dims

#: tables x N x log2(d) under which a page curve runs in one process (module docstring)
MIN_SPLIT_WORK = 100_000
#: the most processes a page curve is split over: the count measured (module docstring)
MAX_PROCESSES = 2

CROSSCHECK_KEYS = ("n", "q", "s_snapped", "exact", "asymptotic", "abs_diff", "scaled_diff",
                   "mc_mean", "mc_std_error", "z", "status", "reason")


def page_curve(model: ChargeModel, n: int, s: float, fractions: list[Fraction],
               exact: bool) -> tuple[list[dict], dict]:
    """Rows of one page curve and, with ``exact``, the exact route's meta; beta*(s),
    the N-body convolution and the charge snap are done once per curve."""
    tp = checked_thermo_point(model, s)
    cuts = [round(f * n) for f in fractions]
    values, meta = {}, {}
    if exact:
        inner = {n_a for n_a in cuts if 0 < n_a < n}
        q2, built, processes = None, set(), 0  # n < 2 has no cut to snap for
        if inner:
            full = sector_dims(model, n)
            q2 = full.snap(s)
            # a U(1) table serves both cuts of a mirror pair: at n - a it holds the (b, d)
            # of a, and block_average_entropy is symmetric and exactly rounded. SU(2)
            # tables there differ
            u1 = model.group is GroupKind.U1
            built = {min(a, n - a) for a in inner} if u1 else inner
            # each mirror pair's cuts, heaviest pair first (module docstring)
            pairs = {}
            for a in sorted(built):
                pairs.setdefault(min(a, n - a), []).append(a)
            work = len(built) * n * math.log2(model.local_dim)
            k = (min(montecarlo._usable_cpus(), MAX_PROCESSES, len(pairs))
                 if work >= MIN_SPLIT_WORK and hasattr(os, "fork") else 1)
            values, processes = _in_processes(
                lambda cuts: _evaluate(full, q2, cuts),
                [pairs[a] for a in sorted(pairs, reverse=True)], k)
            if u1:
                values.update({n - a: values[a] for a in built})
        bodies = inner | {n - n_a for n_a in inner}
        meta = {"entropy": ENTROPY, "q_snapped": None if q2 is None else charge_str(q2),
                "distinct_cuts": len(inner), "convolutions": len(bodies) + 1 if bodies else 0,
                "tables": len(built), "processes": processes}
    rows = []
    for f, n_a in zip(fractions, cuts):
        est = estimate_at_point(tp, model, f)
        row = {"f": float(f), "s": s, "n": n, "regime": est.regime.value,
               "term_N": est.term_N, "term_sqrtN": est.term_sqrtN, "term_O1": est.term_O1,
               "includes_delta": est.includes_delta, "total": est.total(n)}
        if exact:
            if n_a in values:
                row.update(n_a=n_a, f_exact=n_a / n, q_snapped=meta["q_snapped"],
                           s_snapped=q2 / (2.0 * n), exact=values[n_a])
            else:
                row.update(n_a="", f_exact="", q_snapped="", s_snapped="", exact="")
        rows.append(row)
    return rows, meta


def _evaluate(full: SectorTable, q2: int, cuts: list[int]) -> dict[int, float]:
    """{n_A: exact average} at each of ``cuts``, one mirror pair's tables at a time."""
    return {table.n_a: block_average_entropy(table).value
            for table in block_tables(full, q2, cuts)}


def _in_processes(work, shares: list, k: int) -> tuple[dict, int]:
    """(the dicts ``work(share)`` of every share merged, processes used): this
    process and up to k - 1 forked children each evaluate one share at a time,
    taking the next from a pipe of tickets until it is empty, so a process on a
    busy CPU takes fewer shares. If a pipe or a fork fails, the
    processes already running take every ticket. A child's exception is raised
    here with its type and message once every child is reaped; if this
    process's work raises, the children are killed and reaped first."""
    if k > 1:
        try:
            tickets, fill = os.pipe()
        except OSError:  # no fd to spare: one process
            k = 1
    if k == 1:
        values = {}
        for share in shares:
            values.update(work(share))
        return values, 1
    # one 4-byte ticket per share, or per stride of shares, written at once: a pipe
    # holds PIPE_BUF bytes before any reader, so the write cannot block
    stride = min(len(shares), os.fpathconf(tickets, "PC_PIPE_BUF") // 4)
    os.write(fill, b"".join(t.to_bytes(4, "little") for t in range(stride)))
    os.close(fill)

    def drain() -> dict:
        values = {}
        while ticket := os.read(tickets, 4):
            for share in shares[int.from_bytes(ticket, "little")::stride]:
                values.update(work(share))
        return values

    children = []
    try:
        for _ in range(k - 1):
            fds = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError:  # no fd, pid or memory to spare: fewer processes drain
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                os.close(read)
                _child(drain, write)
            os.close(write)
            children.append((pid, read))
        values = drain()
    except BaseException:
        from signal import SIGKILL  # not at import: the signal module costs 0.6 ms to load

        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        os.close(tickets)
        outcomes = [_reap(pid, read) for pid, read in children]
    for status, data in outcomes:
        if status != 0:
            raise RuntimeError(f"a page-curve process ended with wait status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        values.update(value)
    return values, 1 + len(children)


def _child(work, write: int) -> None:
    """Run ``work()`` in a forked child, pickle (True, result) or (False, exception)
    to ``write`` and leave by ``os._exit``: status 0 once the pickle is written."""
    status = 1
    try:
        try:
            out = True, work()
        except BaseException as exc:
            out = False, exc
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(out, pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int) -> tuple[int, bytes]:
    """(wait status, bytes written) of a child, read to end of file before the wait."""
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    return os.waitpid(pid, 0)[1], data


def crosscheck(model: ChargeModel, f: Fraction, s: float, n_list, samples: int,
               seed: int, tol: float) -> list[dict]:
    """One row per N; status fail if |exact - asymptotic| times N (sqrt(N) at
    f = 1/2) reaches ``tol`` or Monte Carlo is 4 standard errors off, skipped if
    f*N is fractional, the snapped s leaves the domain or Monte Carlo is refused."""
    # the rule page-curve applies; a snapped s on the boundary is a skipped row
    checked_thermo_point(model, s)
    rows = []
    for n in n_list:
        row = {**dict.fromkeys(CROSSCHECK_KEYS, ""), "n": n, "status": "pass"}
        rows.append(row)
        n_a = f * n
        if n_a.denominator != 1:
            row.update(status="skipped", reason=f"f*n = {n_a} not an integer")
            continue
        n_a = int(n_a)
        full = sector_dims(model, n)
        q2 = full.snap(s)
        s_snap = q2 / (2.0 * n)
        row.update(q=charge_str(q2), s_snapped=s_snap)
        try:
            est = average_entropy_asymptotic(model, f, s_snap)
        except ValueError as exc:
            row.update(status="skipped", reason=str(exc))
            continue
        (table,) = block_tables(full, q2, [n_a])
        res = block_average_entropy(table)
        total = est.total(n)
        scale = math.sqrt(n) if est.regime is Regime.F_HALF else float(n)
        scaled = abs(res.value - total) * scale
        row.update(exact=res.value, asymptotic=total,
                   abs_diff=abs(res.value - total), scaled_diff=scaled)
        if scaled >= tol:
            row["status"] = "fail"
        try:
            mc = mc_run(McConfig(model, n, n_a, q2, samples, seed))
            z = (abs(mc.mean - res.value) / mc.std_error if mc.std_error > 0
                 else 0.0 if mc.mean == res.value else math.inf)
            row.update(mc_mean=mc.mean, mc_std_error=mc.std_error, z=z)
            if z >= 4.0:
                row["status"] = "fail"
        except SectorSizeError as exc:
            # a refused Monte Carlo leg does not hide a failed exact leg
            row["reason"] = str(exc)
            if row["status"] != "fail":
                row["status"] = "skipped"
    return rows
