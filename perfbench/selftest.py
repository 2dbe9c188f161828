"""Self-test of the benchmark's references and checks.

Run from the repository root: ``python3 perfbench/selftest.py`` (exit 0 on
pass). ``run.py`` also runs it before measuring, untimed.

* Reference block tables agree with brute-force state enumeration for every
  catalog model at N <= 12 (while k^N <= 3^12).
* The mpmath sector average reproduces Page's closed form for one block.
* The z check passes a real Monte Carlo mean and rejects a shifted one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import checks
import reference

MAX_STATES = 3**12


def _histogram(values) -> dict[int, int]:
    keys, counts = np.unique(values, return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


def _enumerate_weights(body: list[int], n: int) -> dict[int, int]:
    """Doubled total weight of every one of the k^n basis states, counted."""
    totals = np.zeros(1, dtype=np.int64)
    step = np.array(body, dtype=np.int64)
    for _ in range(n):
        totals = (totals[:, None] + step[None, :]).ravel()
    return _histogram(totals)


def _highest_weights(counts: dict[int, int]) -> dict[int, int]:
    dims = {j2: w - counts.get(j2 + 2, 0) for j2, w in counts.items() if j2 >= 0}
    return {j2: d for j2, d in dims.items() if d > 0}


def _brute_blocks(group, body, n, n_a, q2):
    w_a = _enumerate_weights(body, n_a)
    w_b = _enumerate_weights(body, n - n_a)
    if group == "U1":
        blocks = [(qa2, d, w_b.get(q2 - qa2, 0)) for qa2, d in w_a.items()]
    else:
        blocks = []
        for ja2, d in _highest_weights(w_a).items():
            # weights of (spin j_A irrep) x (B states); spin-j multiplicity
            # in that product is H(j) - H(j + 1)
            prod = {}
            for mb2, c in w_b.items():
                for m2 in range(-ja2, ja2 + 1, 2):
                    prod[mb2 + m2] = prod.get(mb2 + m2, 0) + c
            blocks.append((ja2, d, prod.get(q2, 0) - prod.get(q2 + 2, 0)))
    return sorted(b for b in blocks if b[2] > 0)


def _check_tables(fails: list[str]):
    from chargepage.models import catalog, weight_multiplicities

    for name in reference.MODELS:
        body = [m2 for m2, a in weight_multiplicities(catalog(name)).items()
                for _ in range(a)]
        group = reference.group(name)
        for n in range(2, 13):
            if len(body)**n > MAX_STATES:
                break
            full = _enumerate_weights(body, n)
            dims = full if group == "U1" else _highest_weights(full)
            if reference.sector_dims(name, n) != dims:
                fails.append(f"{name} N={n}: sector dimensions differ from enumeration")
            for n_a in range(1, n):
                for q2 in dims:
                    if reference.block_table(name, n, n_a, q2) != \
                            _brute_blocks(group, body, n, n_a, q2):
                        fails.append(f"{name} N={n} n_a={n_a} 2q={q2}: blocks differ")


def _check_page_value(fails: list[str]):
    # Page: d = b = 2 gives 1/3 + 1/4 - (2 - 1)/(2 * 2) = 1/3
    got = reference.average_entropy([(0, 2, 2)])
    if abs(got - 1 / 3) > 1e-15:
        fails.append(f"mpmath average of one 2x2 block is {got}, not 1/3")


def _check_z(fails: list[str]):
    from chargepage.exactavg import exact_average_entropy
    from chargepage.models import catalog
    from chargepage.montecarlo import McConfig, run

    op = {"model": "u1-qubit", "n": 8, "n_a": 4, "q2": 0, "samples": 2000, "seed": 1}
    model = catalog(op["model"])
    res = run(McConfig(model, op["n"], op["n_a"], op["q2"], op["samples"], op["seed"]))
    exact = exact_average_entropy(model, op["n"], op["n_a"], op["q2"]).value
    result = {"mean": res.mean, "std_error": res.std_error, "samples": op["samples"]}
    if checks.check_mc(op, result, exact, None):
        fails.append("z check rejected an unshifted Monte Carlo mean")
    for sign in (1, -1):
        shifted = dict(result, mean=res.mean + sign * 2 * checks.Z_BOUND * res.std_error)
        if not checks.check_mc(op, shifted, exact, None):
            fails.append(f"z check accepted a mean shifted by "
                         f"{2 * checks.Z_BOUND:g} standard errors")


def run_self_test() -> list[str]:
    """Failure messages; empty when every check behaves."""
    fails: list[str] = []
    _check_tables(fails)
    _check_page_value(fails)
    _check_z(fails)
    return fails


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failures = run_self_test()
    for line in failures:
        print(line, file=sys.stderr)
    print("self-test:", "FAIL" if failures else "pass")
    sys.exit(1 if failures else 0)
