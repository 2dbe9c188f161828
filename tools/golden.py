#!/usr/bin/env python3
"""Byte identity of the command line between two source trees.

    python tools/golden.py PARENT CHANGE [--allow TEXT ...]

PARENT and CHANGE are checkouts of this repository, for example a `git
archive` of the parent commit and the working tree. The fixed argv list
``ARGVS`` below runs once per tree: one subprocess per tree, with that tree's
``src`` first on the path, calls ``chargepage.cli.main`` on each argv in a
working directory that holds the model files of ``MODEL_FILES``. For each
argv it records the exit code and the sha256 of stdout, stderr and every
file the run wrote (``--out``, ``--dump``, ``--plot``), and removes those
files before the next argv.

The last line printed is the summary: the number of argvs, the exit-code
counts, each tree's combined hash, how many argvs differ, every ``--allow``
given and the largest absolute difference of float cells. Where the trees
differ, the first differing argvs and cells are printed above it. An argv
may differ only if its text contains an ``--allow`` TEXT; the exit status is
0 when no other argv differs and 1 otherwise.

The list covers every subcommand, the six catalog models and the five
reducible models of ``tests/conftest.py``'s ``REDUCIBLE_PANEL`` (as
``--model-file``), csv and json output, written files, ``exact`` up to
N = 1500, exact page curves of one mirror pair and of many, in one process
and split, usage errors (exit 2), failing ``crosscheck`` rows (exit 1) and
fixed-seed ``mc`` runs with few samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

#: the reducible models of tests/conftest.py's REDUCIBLE_PANEL, as model files
PANEL = {
    "gapped.json": {"group": "U1", "multiplicities": {"-5": 1, "-3": 1, "3": 1, "5": 1}},
    "lopsided.json": {"group": "U1", "multiplicities": {"-1": 1, "1": 2}},
    "skewed.json": {"group": "U1", "multiplicities": {"0": 2, "2": 1, "6": 1}},
    "half-spins.json": {"group": "SU2", "multiplicities": {"1": 1, "3": 2}},
    "spin-0-1.json": {"group": "SU2", "multiplicities": {"0": 1, "2": 2}},
}

MODEL_FILES = {
    **{name: json.dumps(doc) for name, doc in PANEL.items()},
    "named.json": json.dumps({"name": "pair", "group": "U1",
                              "multiplicities": {"0": 1, "2": 1}}),
    "nonint-key.json": json.dumps({"group": "U1", "multiplicities": {"0.5": 1, "1": 1}}),
    "bad-group.json": json.dumps({"group": "U3", "multiplicities": {"0": 1, "2": 1}}),
    "list.json": "[1, 2]",
    "broken.json": "{",
}

# catalog model: (density s, --q at N = 8 and cut 4, --q at N = 1500 and cut 500)
CATALOG = {
    "u1-qubit": ("0.1", "0", "150"),
    "u1-qutrit": ("0.3", "1", "300"),
    "u1-2bosons": ("0.6", "4", "900"),
    "su2-qubit": ("0.2", "0", "150"),
    "su2-qutrit": ("0.3", "1", "300"),
    "su2-trimer": ("0.25", "1", "300"),
}

# panel model file: (density s, --q at N = 6 and cut 2)
PANEL_POINTS = {
    "gapped.json": ("0.5", "0"),
    "lopsided.json": ("0.2", "1"),
    "skewed.json": ("0.8", "4"),
    "half-spins.json": ("0.4", "1"),
    "spin-0-1.json": ("0.3", "1"),
}


def _argvs() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    sources = [("--model", name) for name in CATALOG] + [("--model-file", f) for f in PANEL]
    points = {**{name: (s, q8) for name, (s, q8, _) in CATALOG.items()}, **PANEL_POINTS}
    for flag, model in sources:
        m, (s, q) = (flag, model), points[model]
        out += [
            ("dims", *m, "--n", "6"),
            ("dims", *m, "--n", "6", "--na", "2", "--q", q, "--format", "json"),
            ("thermo", *m, "--grid", "9"),
            ("thermo", *m, "--s", s, "--format", "json"),
            ("page-curve", *m, "--n", "480", "--s", s, "--exact", "--points", "19"),
            ("page-curve", *m, "--n", "96", "--s", s, "--f", "1/4,1/3,1/2,3/4",
             "--format", "json"),
            ("exact", *m, "--n", "6", "--na", "2", "--q", q),
            ("mc", *m, "--n", "6", "--na", "2", "--q", q, "--samples", "64", "--seed", "3"),
            ("crosscheck", *m, "--n-list", "8,192", "--f", "1/2", "--s", s,
             "--samples", "50", "--seed", "11"),
        ]
    for name, (s, q8, q1500) in CATALOG.items():
        out += [
            ("dims", "--model", name, "--n", "8", "--na", "4", "--q", q8),
            ("exact", "--model", name, "--n", "1500", "--na", "500", "--q", q1500,
             "--format", "json"),
            ("mc", "--model", name, "--n", "8", "--na", "4", "--q", q8, "--samples", "300",
             "--seed", "20240809", "--format", "json"),
            ("crosscheck", "--model", name, "--n-list", "8,12", "--f", "1/4", "--s", s,
             "--samples", "200"),
        ]
    out += [
        # written files
        ("dims", "--model", "su2-trimer", "--n", "40", "--out", "dims.csv"),
        ("thermo", "--model", "u1-2bosons", "--format", "json", "--out", "thermo.json"),
        ("page-curve", "--model", "su2-qutrit", "--n", "300", "--s", "0.2", "--exact",
         "--plot", "curve.svg", "--out", "curve.csv"),
        ("page-curve", "--model", "u1-qubit", "--n", "1500", "--s", "-0.1", "--exact",
         "--points", "3", "--plot", "big.svg"),
        ("exact", "--model", "su2-qubit", "--n", "7", "--na", "3", "--q", "3/2",
         "--out", "exact.csv"),
        ("mc", "--model", "u1-qubit", "--n", "10", "--na", "5", "--q", "0", "--samples",
         "40", "--seed", "7", "--dump", "raw.txt", "--out", "mc.json", "--format", "json"),
        ("mc", "--model", "su2-qubit", "--n", "12", "--na", "6", "--q", "1", "--samples",
         "25", "--dump", "raw.txt"),
        ("dims", "--model-file", "named.json", "--n", "5"),
        ("exact", "--model", "u1-qubit", "--n", "8", "--na", "8", "--q", "0"),
        ("exact", "--model", "su2-trimer", "--n", "1500", "--na", "750", "--q", "0"),
        ("page-curve", "--model", "u1-qubit", "--n", "0", "--s", "0.1"),
        # one mirror pair, so one process, beside the many-pair curves above
        ("page-curve", "--model", "u1-qubit", "--n", "480", "--s", "0.1", "--exact",
         "--f", "1/2"),
        ("page-curve", "--model", "su2-trimer", "--n", "480", "--s", "0.25", "--exact",
         "--f", "1/4,3/4"),
        # work above routes.MIN_SPLIT_WORK, so two processes on a multi-CPU host
        ("page-curve", "--model", "su2-trimer", "--n", "480", "--s", "0.25", "--exact",
         "--points", "99"),
        # failing crosscheck rows (exit 1)
        ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.0",
         "--samples", "200", "--tol", "1e-9"),
        ("crosscheck", "--model", "su2-qubit", "--n-list", "12", "--f", "1/4", "--s", "0.2",
         "--samples", "100", "--format", "json"),
        ("crosscheck", "--model", "u1-qubit", "--n-list", "2,8,9", "--f", "1/2", "--s",
         "0.45", "--samples", "30"),
        # usage errors (exit 2)
        ("dims", "--model", "nope", "--n", "4"),
        ("dims", "--model-file", "missing.json", "--n", "4"),
        ("dims", "--model-file", "nonint-key.json", "--n", "3"),
        ("dims", "--model-file", "bad-group.json", "--n", "3"),
        ("dims", "--model-file", "list.json", "--n", "3"),
        ("dims", "--model-file", "broken.json", "--n", "3"),
        ("dims", "--model", "u1-qubit", "--n", "0"),
        ("dims", "--model", "u1-qubit", "--n", "4", "--na", "2"),
        ("dims", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "1/2"),
        ("dims", "--n", "4"),
        ("dims", "--model", "u1-qubit", "--model-file", "gapped.json", "--n", "4"),
        ("thermo", "--model", "u1-qubit", "--grid", "0"),
        ("thermo", "--model", "su2-qubit", "--s", "-0.1"),
        ("thermo", "--model", "u1-qubit", "--s", "0.5"),
        ("page-curve", "--model", "u1-qubit", "--n", "10", "--s", "0.7"),
        ("page-curve", "--model", "u1-qubit", "--n", "10", "--s", "0.1", "--f", "1/0"),
        ("page-curve", "--model", "u1-qubit", "--n", "10", "--s", "0.1", "--f", "1"),
        ("page-curve", "--model", "u1-qubit", "--n", "10", "--s", "0.1", "--plot",
         "missing/x.svg"),
        ("exact", "--model", "u1-qubit", "--n", "8", "--na", "9", "--q", "0"),
        ("exact", "--model", "u1-qubit", "--n", "8", "--na", "4", "--q", "x"),
        ("exact", "--model", "su2-qubit", "--n", "8", "--na", "4", "--q", "1/2"),
        ("mc", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "0", "--samples", "0"),
        ("mc", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "0", "--seed", "-1"),
        ("mc", "--model", "u1-qubit", "--n", "60", "--na", "30", "--q", "0"),
        ("mc", "--model", "u1-qubit", "--n", "6", "--na", "3", "--q", "0", "--out",
         "missing/x.csv"),
        ("crosscheck", "--model", "u1-qubit", "--n-list", "8,a", "--f", "1/2", "--s", "0.1"),
        ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.1",
         "--samples", "1"),
        ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.1",
         "--tol", "nan"),
        ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.6"),
        ("laplace-check", "--model", "u1-qubit"),
    ]
    return out


ARGVS = _argvs()

#: ten cheap argvs of ARGVS: every subcommand, a written file and usage errors
QUICK = [
    ("dims", "--model-file", "lopsided.json", "--n", "6"),
    ("dims", "--model", "su2-trimer", "--n", "8", "--na", "4", "--q", "1"),
    ("thermo", "--model-file", "spin-0-1.json", "--grid", "9"),
    ("page-curve", "--model", "u1-qubit", "--n", "96", "--s", "0.1", "--f",
     "1/4,1/3,1/2,3/4", "--format", "json"),
    ("exact", "--model", "su2-qubit", "--n", "7", "--na", "3", "--q", "3/2",
     "--out", "exact.csv"),
    ("mc", "--model", "su2-qubit", "--n", "6", "--na", "2", "--q", "0", "--samples", "64",
     "--seed", "3"),
    ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.0",
     "--samples", "200", "--tol", "1e-9"),
    ("dims", "--model-file", "nonint-key.json", "--n", "3"),
    ("dims", "--n", "4"),
    ("mc", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "0", "--samples", "0"),
]


def record(src: str, argvs: list[tuple[str, ...]]) -> list[dict]:
    """Run each argv through this process's chargepage (imported from ``src``)
    in the current directory; return one record of texts per argv."""
    sys.path.insert(0, src)
    from chargepage import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"chargepage came from {cli.__file__}, not from {src}")
    inputs = set(os.listdir("."))
    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        files = {}
        for name in sorted(set(os.listdir(".")) - inputs):
            files[name] = Path(name).read_text(encoding="utf-8", errors="replace")
            os.remove(name)
        records.append({"argv": list(argv), "code": code,
                        "texts": {"stdout": out.getvalue(), "stderr": err.getvalue(),
                                  **{f"file {name}": text for name, text in files.items()}}})
    return records


def _start(tree: str, argvs: list[tuple[str, ...]], base: Path) -> subprocess.Popen:
    """Record ``argvs`` against ``tree`` in a subprocess writing base/records.json."""
    src = str((Path(tree) / "src").resolve())
    if not (Path(src) / "chargepage" / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no src/chargepage")
    work = base / "work"
    work.mkdir(parents=True)
    for name, text in MODEL_FILES.items():
        (work / name).write_text(text, encoding="utf-8")
    (base / "argvs.json").write_text(json.dumps(argvs), encoding="utf-8")
    # argparse wraps its messages at COLUMNS; one BLAS thread keeps the two
    # trees, which run side by side, from contending for the cores
    env = {**os.environ, "COLUMNS": "80", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import golden; "
            "argvs = [tuple(a) for a in json.load(open(sys.argv[3]))]; "
            "json.dump(golden.record(sys.argv[2], argvs), open(sys.argv[4], 'w'))")
    return subprocess.Popen(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), src,
         str(base / "argvs.json"), str(base / "records.json")], cwd=work, env=env)


def run_trees(trees: list[str], argvs: list[tuple[str, ...]]) -> list[list[dict]]:
    """Records of ``argvs`` for each tree; the trees run side by side."""
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        bases = [Path(tmp) / str(i) for i in range(len(trees))]
        procs = [_start(tree, argvs, path) for tree, path in zip(trees, bases)]
        for tree, code in zip(trees, [proc.wait() for proc in procs]):
            if code != 0:
                raise SystemExit(f"{tree}: recording failed with exit code {code}")
        return [json.loads((path / "records.json").read_text(encoding="utf-8"))
                for path in bases]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hashes(records: list[dict]) -> list[tuple]:
    """(exit code, {stream: sha256}) per argv."""
    return [(rec["code"], {key: _sha(text) for key, text in rec["texts"].items()})
            for rec in records]


def combined_hash(records: list[dict]) -> str:
    return _sha(json.dumps([[rec["argv"], code, sums]
                            for rec, (code, sums) in zip(records, hashes(records))]))[:16]


_CELL = re.compile(r'[^\s,:\[\]{}"]+')
_FLOAT = re.compile(r"-?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?|-?inf|nan")


def _float_cell(cell: str) -> float | None:
    if _FLOAT.fullmatch(cell) and not cell.lstrip("-").isdigit():
        return float(cell)
    return None


def cell_diffs(old: str, new: str) -> list[tuple[int, int, str, str]]:
    """(line, cell, old, new) of every differing cell, cells split at , : [ ] { } " and
    blanks; a line present on one side only is one cell against ''."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    out = []
    for i in range(max(len(old_lines), len(new_lines))):
        a = _CELL.findall(old_lines[i]) if i < len(old_lines) else []
        b = _CELL.findall(new_lines[i]) if i < len(new_lines) else []
        if i >= len(old_lines) or i >= len(new_lines):
            out.append((i + 1, 1, " ".join(a), " ".join(b)))
            continue
        for j in range(max(len(a), len(b))):
            x, y = a[j] if j < len(a) else "", b[j] if j < len(b) else ""
            if x != y:
                out.append((i + 1, j + 1, x, y))
    return out


def _exit_counts(records: list[dict]) -> str:
    return ", ".join(f"{code}: {n}" for code, n in
                     sorted(Counter(rec["code"] for rec in records).items()))


def compare(parent: list[dict], change: list[dict], allow: list[str],
            show: int = 5) -> tuple[str, list[str], bool]:
    """(summary line, detail lines, whether only allowed argvs differ)."""
    details, differ, excused, allowed, max_diff = [], 0, 0, Counter(), 0.0
    for old, new, (code_a, sums_a), (code_b, sums_b) in zip(
            parent, change, hashes(parent), hashes(change)):
        if (code_a, sums_a) == (code_b, sums_b):
            continue
        differ += 1
        text = " ".join(old["argv"])
        allowed.update(p for p in allow if p in text)
        excused += any(p in text for p in allow)
        cells = []
        for key in sorted(sums_a.keys() | sums_b.keys()):
            if sums_a.get(key) == sums_b.get(key):
                continue
            for line, col, x, y in cell_diffs(old["texts"].get(key, ""),
                                              new["texts"].get(key, "")):
                fx, fy = _float_cell(x), _float_cell(y)
                if fx is not None and fy is not None:
                    max_diff = max(max_diff, abs(fx - fy))
                cells.append(f"    {key} line {line} cell {col}: {x!r} -> {y!r}")
        if differ <= show:
            codes = f" (exit {code_a} -> {code_b})" if code_a != code_b else ""
            details += [f"differs: {text}{codes}", *cells[:3]]
    counts = _exit_counts(parent)
    if _exit_counts(change) != counts:
        counts += " -> " + _exit_counts(change)
    allows = "".join(f" --allow {p!r} ({allowed[p]} differ)" for p in allow)
    summary = (f"golden: {len(parent)} argvs; exit {counts}; parent {combined_hash(parent)} "
               f"change {combined_hash(change)}; identical {len(parent) - differ}, "
               f"differ {differ}{allows}; max float diff {max_diff:.3g}")
    return summary, details, differ == excused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--allow", action="append", default=[], metavar="TEXT",
                        help="argvs whose text contains TEXT may differ (repeatable)")
    args = parser.parse_args(argv)
    parent, change = run_trees([args.parent, args.change], ARGVS)
    summary, details, ok = compare(parent, change, args.allow)
    print("\n".join(details + [summary]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
