"""Reports that set the routes side by side, as rows of numbers and strings:
``page_curve`` with exact values at the nearest cuts, ``crosscheck`` with its pass rules."""

import math
from fractions import Fraction

from .asymptotics import Regime, average_entropy_asymptotic, checked_thermo_point, \
    estimate_at_point
from .exactavg import ENTROPY, block_average_entropy
from .models import ChargeModel, GroupKind, charge_str
from .montecarlo import McConfig, SectorSizeError, run as mc_run
from .sectors import block_tables, sector_dims

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
        q2, built = None, set()  # n < 2 has no cut to snap for
        if inner:
            full = sector_dims(model, n)
            q2 = full.snap(s)
            # a U(1) table serves both cuts of a mirror pair: at n - a it holds the (b, d)
            # of a, and block_average_entropy is symmetric and exactly rounded. SU(2)
            # tables there differ
            u1 = model.group is GroupKind.U1
            built = {min(a, n - a) for a in inner} if u1 else inner
            for table in block_tables(full, q2, built):
                values[table.n_a] = block_average_entropy(table).value
                if u1:
                    values[n - table.n_a] = values[table.n_a]
        bodies = inner | {n - n_a for n_a in inner}
        meta = {"entropy": ENTROPY, "q_snapped": None if q2 is None else charge_str(q2),
                "distinct_cuts": len(inner), "convolutions": len(bodies) + 1 if bodies else 0,
                "tables": len(built)}
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
