"""Command-line front end: each subcommand checks its flags, makes one library
call (page-curve and crosscheck go through ``routes``) and returns its rows and
its own meta keys. ``main`` reads the model of --model or --model-file, heads
the meta with tool, version, command and model, and writes csv or json with the
same numbers. Subcommands: dims, thermo, page-curve, exact, mc, crosscheck.

Exit codes: 0 success, 1 a verification ran and failed (a row with status
fail), 2 usage or domain error (including unreadable or unwritable paths), 3
internal invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__, routes
from .models import ChargeModel, GroupKind, catalog, catalog_names, \
    charge_str, load_model
from .sectors import block_table, sector_dims
from .thermo import density_interval, thermo_point
from .exactavg import ENTROPY, exact_average_entropy
from .montecarlo import McConfig, SectorSizeError, run as mc_run

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# shared plumbing

def _resolve_model(args) -> ChargeModel:
    """The model of --model or --model-file; argparse makes sure exactly one is given."""
    if args.model is not None:
        return catalog(args.model)
    try:
        return load_model(args.model_file)
    except OSError as exc:
        raise ValueError(f"--model-file: cannot read {args.model_file!r}: "
                         f"{exc.strerror}") from exc


def _parse_charge(text: str) -> int:
    """--q: physical charge ('1', '-2', '3/2', '0.5') to its doubled integer."""
    try:
        q2 = Fraction(text) * 2
        if q2.denominator == 1:
            return int(q2)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
        pass
    raise ValueError(f"--q must be an integer or half-integer such as 0, -2 or 3/2, "
                     f"got {text!r}")


def _parse_fraction(text: str) -> Fraction:
    """One --f value: a subsystem fraction strictly between 0 and 1."""
    try:
        f = Fraction(text)
        if 0 < f < 1:
            return f
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"--f takes fractions strictly between 0 and 1 such as 1/4 or 0.5, "
                     f"got {text!r}")


def _require(flag: str, value: int, low: int, high: int | None = None) -> None:
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{flag} must be {bound}, got {value}")


def _write(flag: str, path: str, lines) -> None:
    """Write ``lines`` to the file named by ``flag``; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"{flag}: cannot write {path!r}: {exc.strerror}") from exc


def _check_writable(args) -> None:
    """Refuse an unwritable --out, --dump or --plot before any work, creating no file."""
    for flag in ("--out", "--dump", "--plot"):
        path = getattr(args, flag[2:], None)
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        reason = ("Is a directory" if os.path.isdir(path)
                  else "No such file or directory" if not os.path.isdir(parent)
                  else "" if os.access(path if os.path.exists(path) else parent, os.W_OK)
                  else "Permission denied")
        if reason:
            raise ValueError(f"{flag}: cannot write {path!r}: {reason}")


def _parse_n_list(text: str) -> tuple[int, ...]:
    """--n-list: a comma list of system sizes, each >= 1."""
    try:
        ns = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--n-list must be a comma list of integers, got {text!r}") from None
    _require("--n-list", min(ns), 1)
    return ns


def _emit(rows: list[dict], meta: dict, args) -> None:
    meta = {"tool": "chargepage", "version": __version__, **meta}
    if args.format == "json":
        text = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# meta: {json.dumps(meta)}\n")
        if rows:
            writer = csv.DictWriter(buf, rows[0].keys(), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        _write("--out", args.out, [text])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_dims(args, model: ChargeModel) -> tuple[list[dict], dict]:
    if (args.na is None) != (args.q is None):
        raise ValueError("--na and --q must be given together")
    # every dimension printed, d * b included, is at most local_dim ** n: a bound that
    # can refuse an n a few bodies below where the largest dimension itself would fail
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    n_max = math.ceil(limit / math.log10(model.local_dim))
    if limit and args.n >= n_max:
        raise ValueError(f"--n must be < {n_max} here: dimensions up to {model.local_dim}**n "
                         f"would pass the {limit}-digit limit for printing integers, "
                         f"got {args.n}")
    meta = {"n": args.n}
    if args.na is None:
        table = sector_dims(model, args.n)
        rows = [{"charge": charge_str(q2), "dimension": str(d)}
                for q2, d in sorted(table.dims.items())]
    else:
        q2 = _parse_charge(args.q)
        table = block_table(model, args.n, args.na, q2)
        meta.update(n_a=args.na, q=charge_str(q2),
                    sector_dimension=str(table.sector_dimension))
        rows = [{"charge_a": charge_str(qa2), "dim_a": str(d), "dim_b": str(b),
                 "product": str(d * b)}
                for qa2, d, b in table.blocks]
    return rows, meta


def cmd_thermo(args, model: ChargeModel) -> tuple[list[dict], dict]:
    size = 99 if args.grid is None else args.grid
    _require("--grid", size, 1)
    lo, hi = density_interval(model)
    if model.group is GroupKind.SU2:
        lo = 0.0  # spins; s = 0 itself is the extremal point alpha0 = 0
    if args.s is not None:
        if args.s < lo:
            raise ValueError(f"--s = {args.s} is below the lowest density {lo}")
        grid = [args.s]
    else:
        span = hi - lo
        grid = [lo + i * span / (size + 1) for i in range(1, size + 1)]
    rows = []
    for s in grid:
        tp = thermo_point(model, s)
        rows.append({"s": s, "beta_star": tp.beta_star, "eta": tp.eta,
                     "eta_pp": tp.eta_pp, "c_star": tp.c_star, "alpha0": tp.alpha0})
    return rows, {}


def _plot_svg(rows, path, n):
    xs = [row["f"] for row in rows]
    ys = [row["total"] for row in rows]
    w, h, pad = 640, 420, 50
    y_lo, y_hi = min(ys), max(ys)
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return pad + (w - 2 * pad) * x

    def py(y):
        return h - pad - (h - 2 * pad) * (y - y_lo) / y_span

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" font-size="13">'
        f'subsystem fraction f</text>',
        f'<text x="14" y="{h // 2}" font-size="13" transform="rotate(-90 14 {h // 2})" '
        f'text-anchor="middle">average entropy at N={n}</text>',
        f'<text x="{pad}" y="{h - pad + 16}" font-size="11" text-anchor="middle">0</text>',
        f'<text x="{w - pad}" y="{h - pad + 16}" font-size="11" text-anchor="middle">1</text>',
        f'<text x="{pad - 6}" y="{py(y_lo) + 4}" font-size="11" text-anchor="end">'
        f'{y_lo:.3g}</text>',
        f'<text x="{pad - 6}" y="{py(y_hi) + 4}" font-size="11" text-anchor="end">'
        f'{y_hi:.3g}</text>',
        "</svg>",
    ]
    _write("--plot", path, ["\n".join(svg) + "\n"])


def cmd_page_curve(args, model: ChargeModel) -> tuple[list[dict], dict]:
    points = 19 if args.points is None else args.points
    _require("--n", args.n, 0)
    _require("--points", points, 1)
    if args.f is not None:
        fractions = [_parse_fraction(tok) for tok in args.f.split(",")]
    else:
        fractions = [Fraction(i, points + 1) for i in range(1, points + 1)]
    rows, exact_meta = routes.page_curve(model, args.n, args.s, fractions, args.exact)
    if args.plot:
        _plot_svg(rows, args.plot, args.n)
    return rows, {"n": args.n, "s": args.s, **exact_meta}


def cmd_exact(args, model: ChargeModel) -> tuple[list[dict], dict]:
    q2 = _parse_charge(args.q)
    res = exact_average_entropy(model, args.n, args.na, q2)
    rows = [{
        "n": args.n, "n_a": args.na, "q": charge_str(q2),
        "value": res.value, "y1": res.y1, "y2": res.y2, "y3": res.y3,
        "degenerate": res.degenerate,
    }]
    return rows, {"entropy": ENTROPY}


def cmd_mc(args, model: ChargeModel) -> tuple[list[dict], dict]:
    q2 = _parse_charge(args.q)
    _require("--samples", args.samples, 1)
    _require("--seed", args.seed, 0, 2**64 - 1)
    try:
        config = McConfig(model, args.n, args.na, q2, args.samples, args.seed)
    except SectorSizeError as exc:  # the result bound, the one check left to McConfig
        raise ValueError(f"--samples: {exc}") from None
    result = mc_run(config)
    rows = [{
        "n": args.n, "n_a": args.na, "q": charge_str(q2),
        "samples": args.samples, "seed": args.seed,
        "mean": result.mean, "std_error": result.std_error,
        "sample_variance": result.sample_variance,
    }]
    if args.dump:
        header = {"model": model.as_dict(), "n": args.n, "n_a": args.na,
                  "q": charge_str(q2), "samples": args.samples, "seed": args.seed}
        _write("--dump", args.dump, itertools.chain(
            ["# chargepage mc raw samples, one entropy per line\n",
             f"# meta: {json.dumps(header)}\n"],
            (repr(float(value)) + "\n" for value in result.entropies)))
    return rows, {"entropy": ENTROPY, "seed": args.seed, **result.plan}


def cmd_crosscheck(args, model: ChargeModel) -> tuple[list[dict], dict]:
    f = _parse_fraction(args.f)
    n_list = _parse_n_list(args.n_list)
    _require("--samples", args.samples, 2)  # one sample has no standard error
    _require("--seed", args.seed, 0, 2**64 - 1)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    rows = routes.crosscheck(model, f, args.s, n_list, args.samples, args.seed, args.tol)
    return rows, {"f": str(f), "s": args.s, "samples": args.samples, "seed": args.seed,
                  "tolerance": args.tol}


# ---------------------------------------------------------------------------

def _add_common(sub):
    model = sub.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="builtin model name "
                       f"({', '.join(catalog_names())})")
    model.add_argument("--model-file", help="path to a JSON model config")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """Reads "--q -3/2" and "--s -1e-3" as values; argparse knows only -N and -N.N."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chargepage",
        description="Typical entanglement entropy of fixed-charge sectors: "
                    "exact, asymptotic, and Monte Carlo routes.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dims", help="exact sector and block dimensions")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--na", type=int, help="subsystem size (with --q)")
    p.add_argument("--q", help="total charge, e.g. 0, -2, 3/2 (with --na)")
    p.set_defaults(func=cmd_dims)

    p = subs.add_parser("thermo", help="local thermodynamics at density s")
    _add_common(p)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--s", type=float, help="single charge density")
    grid.add_argument("--grid", type=int, help="interior grid size (default 99)")
    p.set_defaults(func=cmd_thermo)

    p = subs.add_parser("page-curve", help="asymptotic entropy vs fraction f")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--points", type=int, help="interior f-grid size (default 19)")
    grid.add_argument("--f", help="comma list of fractions, e.g. 1/4,1/2,3/4")
    p.add_argument("--exact", action="store_true",
                   help="add exact values at the nearest integer cuts")
    p.add_argument("--plot", help="write a standalone SVG line plot here")
    p.set_defaults(func=cmd_page_curve)

    p = subs.add_parser("exact", help="exact average entropy of one sector")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_exact)

    p = subs.add_parser("mc", help="Monte Carlo over Haar-random sector states")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", help="write raw per-sample entropies here")
    p.set_defaults(func=cmd_mc)

    p = subs.add_parser("crosscheck",
                        help="exact vs asymptotic vs Monte Carlo report")
    _add_common(p)
    p.add_argument("--n-list", required=True, help="comma list, e.g. 8,12")
    p.add_argument("--f", required=True, help="subsystem fraction, e.g. 1/2")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=2.0,
                   help="bound on the N-scaled exact-asymptotic difference")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_writable(args)
        model = _resolve_model(args)
        rows, meta = args.func(args, model)
        _emit(rows, {"command": args.command, "model": model.as_dict(), **meta}, args)
        return EXIT_VERIFY if any(row.get("status") == "fail" for row in rows) else EXIT_OK
    except ValueError as exc:
        print(f"chargepage: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"chargepage: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash is not a failed verification (exit 1)
        print(f"chargepage: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
