"""Benchmark of chargepage: Monte Carlo and exact-route workloads.

From the repository root:

    python3 perfbench/run.py --workload mc_small_sectors --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each round of a workload runs every operation once in a fresh interpreter
(``worker.py``); rounds repeat until ``--seconds`` of work is measured. The
outputs of every round are checked here against independent references
(``reference.py``, ``checks.py``). The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
With ``--workload all`` every workload prints such a line, tagged by name.
README.md describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
from worker import TRACED

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("mc_small_sectors", "mc_large_sectors", "exact_page_curves")
#: models whose sector averages are also evaluated in mpmath from binomial tables
MPMATH_MODELS = ("u1-qubit", "su2-qubit")

MC_SMALL_SAMPLES = 1000
#: (model, N, N_A, 2q, samples): D from 12870 to 48620, blocks up to 126x126 and 90x207
MC_LARGE = (
    ("u1-qubit", 16, 8, 0, 200),
    ("u1-qubit", 18, 9, 0, 100),
    ("su2-qubit", 20, 10, 0, 200),
    ("su2-qubit", 20, 10, 2, 100),
)
#: just below the N where sectors._weight_counts_cached hits the recursion limit
EXACT_N = 480
#: heaviest first, so first_result_s times a multi-second page curve
EXACT_MODELS = ("su2-trimer", "su2-qutrit", "su2-qubit", "u1-qutrit", "u1-2bosons",
                "u1-qubit")
EXACT_POINTS = 99
#: the density is drawn at this fraction of the model's density interval
DENSITY_BAND = (0.35, 0.65)

SETUP_SAMPLES = 5
BLAS_THREADS = "1"
#: stop starting rounds after this much wall time, so a run ends within 180 s
WALL_LIMIT_S = 120.0

UNITS = {"setup_s": "s", "first_result_s": "s", "work_per_s": "1/s",
         "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    **{f"{mod}.{fn}.self_s": "s" for mod, fn in TRACED},
    **{f"{mod}.{fn}.calls": "count" for mod, fn in TRACED},
    "sectors.blocks": "count", "sectors.max_dim_bits": "bits",
    "montecarlo.samples": "count", "montecarlo.amplitudes_drawn": "count",
    "montecarlo.svd_flops_computed": "flop", "traced_round_s": "s",
}


# ---------------------------------------------------------------------------
# workload inputs, made from the seed and the reference tables only

def _pick_charges(name, n, n_a, count=2):
    """Criterion 07's choice: the interior charges with the largest D under
    D <= 2500 and sum min^2 max <= 30000, relaxed until two qualify."""
    lattice = reference.realizable_charges(name, n)
    max_dim, max_cost = 2500, 30000
    while True:
        found = []
        for q2 in lattice[1:-1]:
            blocks = reference.block_table(name, n, n_a, q2)
            dim = sum(d * b for _, d, b in blocks)
            cost = sum(min(d, b)**2 * max(d, b) for _, d, b in blocks)
            if dim <= max_dim and cost <= max_cost and reference.schmidt_rank(blocks) >= 2:
                found.append((-dim, q2))
        if len(found) >= count:
            return [q2 for _, q2 in sorted(found)[:count]]
        max_dim *= 2
        max_cost *= 2


def build_ops(workload: str, seed: int) -> tuple[str, list[dict]]:
    rng = random.Random(seed)
    if workload == "mc_small_sectors":
        shapes = [(name, n, n_a, q2, MC_SMALL_SAMPLES)
                  for name in sorted(reference.MODELS) for n in (8, 12) for n_a in (n // 4, n // 2)
                  for q2 in _pick_charges(name, n, n_a)]
        # largest sector first, so first_result_s times one of the longer
        # configurations rather than a 20 ms one
        shapes.sort(key=lambda shape: -reference.sector_dims(shape[0], shape[1])[shape[3]])
    elif workload == "mc_large_sectors":
        shapes = list(MC_LARGE)
    else:
        ops = []
        for name in EXACT_MODELS:
            lo, hi = reference.density_interval(name)
            if reference.group(name) == "SU2":
                lo = 0.0
            s = lo + (hi - lo) * rng.uniform(*DENSITY_BAND)
            ops.append({"model": name, "s": s, "argv": [
                "page-curve", "--model", name, "--n", str(EXACT_N), "--s", repr(s),
                "--exact", "--points", str(EXACT_POINTS), "--format", "json"]})
        return "cli", ops
    return "mc", [{"model": name, "n": n, "n_a": n_a, "q2": q2, "samples": samples,
                   "seed": rng.getrandbits(63)}
                  for name, n, n_a, q2, samples in shapes]


def build_checks(kind: str, ops: list[dict]) -> list:
    """One check per operation, closed over its expectations (built once)."""
    from chargepage.asymptotics import average_entropy_asymptotic
    from chargepage.exactavg import exact_average_entropy
    from chargepage.models import catalog
    from chargepage.thermo import thermo_point

    out = []
    for op in ops:
        model = catalog(op["model"])
        with_mp = op["model"] in MPMATH_MODELS
        if kind == "mc":
            exact = exact_average_entropy(model, op["n"], op["n_a"], op["q2"]).value
            ref = (reference.average_entropy(
                reference.block_table(op["model"], op["n"], op["n_a"], op["q2"]))
                if with_mp else None)
            out.append(lambda res, op=op, exact=exact, ref=ref:
                       checks.check_mc(op, res, exact, ref))
        else:
            expect = checks.page_curve_expectations(
                op["model"], EXACT_N, op["s"], EXACT_POINTS,
                lambda f, s, m=model: average_entropy_asymptotic(m, f, s),
                lambda s, m=model: thermo_point(m, s).c_star, with_mp)
            out.append(lambda res, expect=expect: checks.check_page_curve(expect, res))
    return out


def computed_counts(kind: str, ops: list[dict]) -> dict:
    """Per-round amplitudes drawn and SVD flops, from the reference tables."""
    amps = flops = 0
    if kind == "mc":
        for op in ops:
            blocks = reference.block_table(op["model"], op["n"], op["n_a"], op["q2"])
            amps += op["samples"] * sum(d * b for _, d, b in blocks)
            flops += op["samples"] * sum(min(d, b)**2 * max(d, b) for _, d, b in blocks)
    return {"montecarlo.amplitudes_drawn": amps, "montecarlo.svd_flops_computed": flops}


# ---------------------------------------------------------------------------
# rounds

def spawn(spec: dict) -> dict:
    """Run one round in a fresh interpreter and return its record."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(record["chargepage"]).is_relative_to(SRC):
        raise RuntimeError(f"worker imported chargepage from {record['chargepage']}")
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    kind, ops = build_ops(workload, seed)
    op_checks = build_checks(kind, ops)
    spec = {"kind": kind, "ops": ops, "trace": trace}

    rounds, failures, worked = [], [], 0.0
    while not rounds or (worked < seconds and time.monotonic() - started < WALL_LIMIT_S):
        record = spawn(spec)
        for check, result in zip(op_checks, record.pop("results")):
            fails = check(result)
            if fails:
                failures.append(fails)
        rounds.append(record)
        worked += record["work_s"]

    units = (sum(op["samples"] for op in ops) if kind == "mc"
             else EXACT_POINTS * len(ops))
    if trace:
        layers = {key: statistics.median(r["trace"][key] for r in rounds)
                  for key in rounds[0]["trace"]}
        layers.update(computed_counts(kind, ops))
        layers["traced_round_s"] = statistics.median(r["work_s"] for r in rounds)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(dict(spec, setup_only=True))["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "first_result_s": statistics.median(r["first_result_s"] for r in rounds),
            # per-operation medians over rounds, so one disturbed stretch of
            # a round does not move the whole round's figure
            "work_per_s": units / sum(statistics.median(times)
                                      for times in zip(*(r["op_s"] for r in rounds))),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    for fails in failures[:5]:
        print(f"{workload}: check failed: {'; '.join(fails[:3])}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                               "ops": ops, "rounds": rounds, "metrics": metrics,
                               "failures": failures}, indent=1))
    return {"attempted": len(ops) * len(rounds), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chargepage" / "__init__.py").is_file():
        print(f"run.py: no chargepage package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    from selftest import run_self_test

    self_test_failures = run_self_test()
    for line in self_test_failures:
        print(f"self-test: {line}", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line = {"correct": not self_test_failures, **result}
        if args.workload == "all":
            line = {"workload": name, **line}
        print(json.dumps(line))
    return 0

if __name__ == "__main__":
    sys.exit(main())
