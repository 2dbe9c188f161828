"""Checks of chargepage outputs against the references and method properties.

Expectations are built once per run (the same operations repeat in every
round); each check returns a list of failure messages, empty on a pass. The
bounds are derived in README.md ("Output checks").
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference

#: program vs mpmath reference, and U(1) mirror pairs, relative to max(1, |S|)
REL_TOL = 1e-10
#: |MC mean - exact| / standard error; 2 (1 - Phi(5)) = 5.7e-7 per configuration
Z_BOUND = 5.0
#: allowance K / min(N_A, N_B) for the remainder of the asymptotic expansion
REMAINDER_K = 4.0


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_mc(op: dict, result: dict, exact: float, ref: float | None) -> list[str]:
    """One Monte Carlo configuration: sample count, z bound, exact vs mpmath."""
    if "error" in result:
        return [result["error"]]
    where = f"{op['model']} N={op['n']} n_a={op['n_a']} 2q={op['q2']}"
    fails = []
    if result["samples"] != op["samples"]:
        fails.append(f"{where}: {result['samples']} samples, asked for {op['samples']}")
    se = result["std_error"]
    if not (math.isfinite(se) and se > 0):
        fails.append(f"{where}: standard error {se} is not positive")
    else:
        z = abs(result["mean"] - exact) / se
        if not z < Z_BOUND:
            fails.append(f"{where}: MC mean {result['mean']} vs exact {exact}, z = {z:.2f}")
    if ref is not None and not _close(exact, ref):
        fails.append(f"{where}: exact_average_entropy {exact} vs mpmath {ref}")
    return fails


def page_curve_expectations(name: str, n: int, s: float, points: int, asymptotic,
                            c_star, with_mpmath: bool) -> dict:
    """What every row of ``page-curve --n n --s s --points points --exact`` must satisfy.

    ``asymptotic(f, s)`` and ``c_star(s)`` are the program's formulas; they
    are evaluated at the realised cut n_a/n and snapped density, never at
    the grid values.
    """
    q2 = reference.snap(name, n, s)
    s_snapped = q2 / (2.0 * n)
    deficit = math.sqrt(c_star(s_snapped) * n / (2 * math.pi)) + 0.5
    rows = []
    for i in range(1, points + 1):
        f = Fraction(i, points + 1)
        n_a = round(f * n)
        blocks = reference.block_table(name, n, n_a, q2)
        asym = asymptotic(Fraction(n_a, n), s_snapped).total(n)
        slack = REMAINDER_K / min(n_a, n - n_a)
        rows.append({
            "f": float(f), "n_a": n_a, "f_exact": n_a / n, "q2": q2,
            "s_snapped": s_snapped,
            "log_rank": math.log(reference.schmidt_rank(blocks)),
            "window": (asym - deficit - slack, asym + slack),
            "mpmath": reference.average_entropy(blocks) if with_mpmath else None,
        })
    return {"name": name, "n": n, "rows": rows}


def check_page_curve(expect: dict, result: dict) -> list[str]:
    """One page curve: cuts, snapping, 0 <= S <= log rank, residual window,
    mpmath reference where present, and U(1) mirror symmetry."""
    if "error" in result:
        return [result["error"]]
    if result["exit"] != 0:
        return [f"{expect['name']}: exit code {result['exit']}"]
    name, n = expect["name"], expect["n"]
    rows = result["rows"]
    if len(rows) != len(expect["rows"]):
        return [f"{name}: {len(rows)} rows, expected {len(expect['rows'])}"]
    fails = []
    values = {}
    for row, want in zip(rows, expect["rows"]):
        where = f"{name} N={n} n_a={want['n_a']}"
        got_q2 = Fraction(row["q_snapped"]) * 2 if row["q_snapped"] != "" else None
        if (row["f"], row["n_a"], row["f_exact"], got_q2, row["s_snapped"]) != \
                (want["f"], want["n_a"], want["f_exact"], want["q2"], want["s_snapped"]):
            fails.append(f"{where}: cut or snapped charge differs from the reference: {row}")
            continue
        value = row["exact"]
        values[row["n_a"]] = value
        if not 0.0 <= value <= want["log_rank"]:
            fails.append(f"{where}: S = {value} outside [0, {want['log_rank']}]")
        lo, hi = want["window"]
        if not lo <= value <= hi:
            fails.append(f"{where}: S = {value} outside the asymptotic window [{lo}, {hi}]")
        if want["mpmath"] is not None and not _close(value, want["mpmath"]):
            fails.append(f"{where}: S = {value} vs mpmath {want['mpmath']}")
    if reference.group(name) == "U1":
        for n_a, value in values.items():
            mirror = values.get(n - n_a)
            if mirror is not None and not _close(value, mirror):
                fails.append(f"{name} N={n}: S({n_a}) = {value} but S({n - n_a}) = {mirror}")
    return fails
