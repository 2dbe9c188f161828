import csv
import io
import json
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from chargepage import cli, montecarlo, routes, sectors
from chargepage.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from chargepage.exactavg import exact_average_entropy
from chargepage.models import ChargeModel, GroupKind, catalog, catalog_names
from chargepage.thermo import density_interval

from conftest import REDUCIBLE_PANEL, random_small_models


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    meta_lines = [ln for ln in text.splitlines() if ln.startswith("# meta: ")]
    meta = json.loads(meta_lines[0][len("# meta: "):]) if meta_lines else {}
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    # DictReader files surplus cells under the key None and fills missing ones with None
    for row in rows:
        assert None not in row and None not in row.values(), f"malformed csv row {row}"
    return meta, rows


def test_dims_u1_qubit(capsys):
    code, out = invoke(capsys, "dims", "--model", "u1-qubit", "--n", "4")
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["model"]["group"] == "U1"
    got = {row["charge"]: row["dimension"] for row in rows}
    assert got == {"-2": "1", "-1": "4", "0": "6", "1": "4", "2": "1"}


def test_dims_su2_qubit(capsys):
    code, out = invoke(capsys, "dims", "--model", "su2-qubit", "--n", "4")
    assert code == 0
    _, rows = parse_csv(out)
    assert {r["charge"]: r["dimension"] for r in rows} == {"0": "2", "1": "3", "2": "1"}


def test_dims_block_rows_sum(capsys):
    code, out = invoke(capsys, "dims", "--model", "u1-qubit", "--n", "4",
                       "--na", "2", "--q", "0")
    assert code == 0
    meta, rows = parse_csv(out)
    assert sum(int(r["product"]) for r in rows) == 6
    assert meta["sector_dimension"] == "6"


def test_csv_and_json_carry_identical_numbers(capsys):
    code, csv_out = invoke(capsys, "thermo", "--model", "su2-trimer", "--s", "0.4")
    assert code == 0
    code, json_out = invoke(capsys, "thermo", "--model", "su2-trimer", "--s", "0.4",
                            "--format", "json")
    assert code == 0
    _, csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)["rows"]
    assert len(csv_rows) == len(json_rows) == 1
    for key, value in json_rows[0].items():
        assert repr(value) == csv_rows[0][key]


def test_thermo_grid_row_count(capsys):
    code, out = invoke(capsys, "thermo", "--model", "u1-qubit", "--grid", "99")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 99


def test_page_curve_snap_reporting(capsys):
    code, out = invoke(capsys, "page-curve", "--model", "u1-qubit", "--n", "8",
                       "--s", "0.1", "--f", "1/2", "--exact")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    # s = 0.1 over 8 bodies snaps to m = 1
    assert row["q_snapped"] == "1"
    assert float(row["s_snapped"]) == 0.125
    assert float(row["exact"]) > 0


def test_page_curve_exact_rows_blank_without_a_cut(capsys):
    for n in ("0", "1"):
        code, out = invoke(capsys, "page-curve", "--model", "u1-qubit", "--n", n,
                           "--s", "0.1", "--points", "3", "--exact")
        assert code == 0
        meta, rows = parse_csv(out)
        assert len(rows) == 3 and all(row["exact"] == "" for row in rows)
        assert meta["q_snapped"] is None
        assert meta["distinct_cuts"] == meta["convolutions"] == meta["tables"] == 0
        assert meta["processes"] == 0


def one_process(monkeypatch):
    """Report one usable CPU, so a page curve evaluates every table in this process."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)


def split_over(monkeypatch, processes):
    """Report ``processes`` usable CPUs and lift the work floor and the process cap,
    so a page curve with that many mirror pairs is split over that many processes."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: processes)
    monkeypatch.setattr(routes, "MIN_SPLIT_WORK", 0)
    monkeypatch.setattr(routes, "MAX_PROCESSES", processes)


def _density(model, u):
    lo, hi = density_interval(model)
    if model.group is GroupKind.SU2:
        lo = 0.0
    return lo + u * (hi - lo)


def model_file(tmp_path, model):
    """The path of a JSON model file written for ``model``."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.as_dict()), encoding="utf-8")
    return str(path)


def exact_curve(capsys, model_args, n, s, grid_args):
    code, out = invoke(capsys, "page-curve", *model_args, "--n", str(n), "--s",
                       repr(s), "--exact", "--format", "json", *grid_args)
    assert code == 0
    return json.loads(out)


def assert_cells_match_per_cut(doc, model, n, s):
    """Every exact cell equals exact_average_entropy at its own cut, bit for bit."""
    q2 = sectors.sector_dims(model, n).snap(s)
    filled = [row for row in doc["rows"] if row["exact"] != ""]
    assert filled
    for row in filled:
        assert row["q_snapped"] == doc["meta"]["q_snapped"]
        assert row["s_snapped"] == q2 / (2.0 * n)
        assert row["exact"] == exact_average_entropy(model, n, row["n_a"], q2).value


# odd N; more points than N, so f values share a cut; N even with the cut N/2;
# an asymmetric fraction list that includes 1/2
PAGE_GRIDS = ((33, ("--points", "19")), (7, ("--points", "30")),
              (16, ("--f", "1/2,1/4,3/4")), (21, ("--f", "1/2,1/3,9/10,1/7")))


@pytest.mark.parametrize("name", catalog_names())
def test_page_curve_exact_cells_equal_per_cut_average(capsys, name):
    model = catalog(name)
    s = _density(model, 0.37)
    for n, grid_args in PAGE_GRIDS:
        doc = exact_curve(capsys, ("--model", name), n, s, grid_args)
        assert_cells_match_per_cut(doc, model, n, s)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=random_small_models(), n=st.integers(2, 14),
       grid=st.sampled_from(PAGE_GRIDS), u=st.floats(0.2, 0.8))
def test_page_curve_exact_cells_equal_per_cut_average_custom_models(
        capsys, tmp_path, model, n, grid, u):
    lo, hi = density_interval(model)
    assume(hi > lo and (model.group is GroupKind.U1 or hi > 0))
    s = _density(model, u)
    doc = exact_curve(capsys, ("--model-file", model_file(tmp_path, model)), n, s, grid[1])
    assert_cells_match_per_cut(doc, model, n, s)


@pytest.mark.parametrize("n, grid_args", [(21, ("--points", "30")),
                                          (16, ("--f", "1/4,1/4")),
                                          (16, ("--f", "1/2,3/4"))])
def test_page_curve_convolves_each_body_count_once(capsys, monkeypatch, n, grid_args):
    one_process(monkeypatch)  # a forked child's calls never reach this counter
    calls = Counter()
    original = sectors._power_coefficients

    def counting(a, bodies):
        calls[bodies] += 1
        return original(a, bodies)

    monkeypatch.setattr(sectors, "_power_coefficients", counting)
    doc = exact_curve(capsys, ("--model", "su2-qutrit"), n, 0.4, grid_args)
    monkeypatch.undo()
    assert_cells_match_per_cut(doc, catalog("su2-qutrit"), n, 0.4)
    cuts = {row["n_a"] for row in doc["rows"]}
    assert calls.pop(n) == 1  # W(N) once, for the snap and every table
    assert calls == Counter(cuts | {n - n_a for n_a in cuts})
    meta = doc["meta"]
    assert meta["distinct_cuts"] == len(cuts)
    assert meta["convolutions"] == sum(calls.values()) + 1
    assert meta["q_snapped"] == doc["rows"][0]["q_snapped"]


@pytest.mark.parametrize("model", [
    catalog("u1-qubit"), catalog("u1-2bosons"),
    ChargeModel(GroupKind.U1, {-5: 1, -3: 1, 3: 1, 5: 1}),  # gapped lattice
    catalog("su2-qubit"), catalog("su2-trimer")], ids=lambda m: m.name or "u1-gapped")
@pytest.mark.parametrize("n", [21, 16])
def test_page_curve_evaluates_one_table_per_u1_mirror_pair(capsys, monkeypatch, tmp_path,
                                                          model, n):
    one_process(monkeypatch)  # a forked child's calls never reach this list
    evaluated = []
    original = routes.block_average_entropy

    def counting(table):
        evaluated.append(table.n_a)
        return original(table)

    monkeypatch.setattr(routes, "block_average_entropy", counting)
    s = _density(model, 0.37)
    doc = exact_curve(capsys, ("--model-file", model_file(tmp_path, model)), n, s,
                      ("--points", "30"))
    monkeypatch.undo()
    assert_cells_match_per_cut(doc, model, n, s)  # mirror cells too, bit for bit
    cuts = {row["n_a"] for row in doc["rows"]}
    assert n % 2 or n // 2 in cuts
    if model.group is GroupKind.U1:
        assert any(n - n_a in cuts for n_a in cuts if 2 * n_a != n)
        cuts = {min(n_a, n - n_a) for n_a in cuts}  # the half cut once
    assert sorted(evaluated) == sorted(cuts)
    assert doc["meta"]["tables"] == len(evaluated)


@pytest.mark.parametrize("model", [*map(catalog, catalog_names()), *REDUCIBLE_PANEL], ids=[
    *catalog_names(), "gapped", "lopsided", "skewed", "half-spins", "spin-0-1"])
@pytest.mark.parametrize("n, grid_args", [(40, ("--points", "9")), (33, ("--points", "7"))])
def test_page_curve_split_over_processes_gives_the_same_bytes(capsys, monkeypatch, tmp_path,
                                                               model, n, grid_args):
    args = ("page-curve", "--model-file", model_file(tmp_path, model), "--n", str(n),
            "--s", repr(_density(model, 0.37)), "--exact", "--format", "json", *grid_args)
    split_over(monkeypatch, 3)
    code, split = invoke(capsys, *args)
    assert code == 0
    one_process(monkeypatch)
    code, serial = invoke(capsys, *args)
    assert code == 0
    doc = json.loads(split)
    pairs = {min(row["n_a"], n - row["n_a"]) for row in doc["rows"]}
    assert len(pairs) >= 3
    assert doc["meta"]["processes"] == 3 and json.loads(serial)["meta"]["processes"] == 1
    assert split.replace('"processes": 3', '"processes": 1') == serial


def test_page_curve_one_pair_runs_in_one_process(capsys, monkeypatch):
    split_over(monkeypatch, 2)
    doc = exact_curve(capsys, ("--model", "su2-trimer"), 40, 0.3, ("--f", "1/4,3/4"))
    assert doc["meta"]["tables"] == 2 and doc["meta"]["processes"] == 1


@pytest.mark.parametrize("name, n, points, processes", [
    ("su2-trimer", 40, "19", 1),  # 19 tables x 40 x log2 8 = 2280, under the floor
    ("su2-qutrit", 480, "99", 1),  # 99 x 480 x log2 3 = 75317
    ("su2-trimer", 480, "99", 2),  # 99 x 480 x log2 8 = 142560: split, capped at two
])
def test_page_curve_splits_above_the_work_floor_into_two_processes(capsys, monkeypatch,
                                                                    name, n, points, processes):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    doc = exact_curve(capsys, ("--model", name), n, 0.3, ("--points", points))
    assert doc["meta"]["processes"] == processes


def test_fewer_tickets_than_pairs_still_cover_every_pair(capsys, monkeypatch):
    # a pipe that took 8 bytes before any reader holds two 4-byte tickets, so each
    # ticket covers every other one of the five pairs
    args = ("page-curve", "--model", "su2-qutrit", "--n", "24", "--s", "0.3", "--exact",
            "--points", "9", "--format", "json")
    one_process(monkeypatch)
    code, serial = invoke(capsys, *args)
    assert code == 0
    split_over(monkeypatch, 3)
    fpathconf = os.fpathconf
    monkeypatch.setattr(os, "fpathconf", lambda fd, name: 8 if name == "PC_PIPE_BUF"
                        else fpathconf(fd, name))
    code, split = invoke(capsys, *args)
    assert code == 0
    assert split.replace('"processes": 3', '"processes": 1') == serial


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
@pytest.mark.parametrize("call, fails_at", [("pipe", 1), ("fork", 1), ("fork", 2)])
def test_a_failed_pipe_or_fork_runs_the_rest_in_this_process(capsys, monkeypatch,
                                                               call, fails_at):
    # a process or memory limit makes os.fork raise BlockingIOError; the one-process
    # curve does not need it, so the split falls back to that rather than exit 3
    args = ("page-curve", "--model", "su2-qutrit", "--n", "24", "--s", "0.3", "--exact",
            "--points", "9", "--format", "json")
    one_process(monkeypatch)
    code, serial = invoke(capsys, *args)
    assert code == 0
    split_over(monkeypatch, 3)
    original, calls = getattr(os, call), []

    def failing(*a):
        calls.append(a)
        if len(calls) == fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return original(*a)

    fds = _open_fds()
    monkeypatch.setattr(os, call, failing)
    code, split = invoke(capsys, *args)
    monkeypatch.undo()
    assert code == 0
    assert json.loads(split)["meta"]["processes"] == fails_at
    assert split.replace(f'"processes": {fails_at}', '"processes": 1') == serial
    assert _open_fds() == fds
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_share_exits_three_and_leaves_no_child(capsys, monkeypatch, tmp_path, where):
    # su2-qutrit N = 24, 9 points: five pairs. Which process takes which pair is up
    # to the scheduler, so the patched average raises by process; with "child" this
    # process holds its first pair until the child has raised, so the child draws one
    argv = ["page-curve", "--model", "su2-qutrit", "--n", "24", "--s", "0.3", "--exact",
            "--points", "9"]
    split_over(monkeypatch, 2)
    assert main(argv) == EXIT_OK
    assert parse_csv(capsys.readouterr().out)[0]["processes"] == 2
    assert_no_child_left()
    original, parent, raised = routes.block_average_entropy, os.getpid(), tmp_path / "raised"

    def failing(table):
        if (os.getpid() == parent) == (where == "parent"):
            raised.touch()
            raise RuntimeError(f"raised in the {where}")
        deadline = time.monotonic() + 60
        while not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return original(table)

    monkeypatch.setattr(routes, "block_average_entropy", failing)
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"internal invariant violation: raised in the {where}" in captured.err
    assert_no_child_left()


def test_page_curve_memory_holds_one_mirror_pair(capsys, monkeypatch):
    # one exact_average_entropy at N/2 holds W(N), W(N/2) and one table; a
    # curve that kept all 99 tables alive peaked at 13x that
    one_process(monkeypatch)  # tracemalloc does not see a forked child
    model = catalog("su2-trimer")
    q2 = sectors.sector_dims(model, 480).snap(0.6)
    tracemalloc.start()
    try:
        exact_average_entropy(model, 480, 240, q2)
        single = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code, _ = invoke(capsys, "page-curve", "--model", "su2-trimer", "--n", "480",
                         "--s", "0.6", "--points", "99", "--exact")
        curve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert curve < 3 * single


@pytest.mark.parametrize("argv, flag", [
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1",
      "--points", "0", "--plot", "x.svg"), "--points"),
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1",
      "--points", "-3", "--exact"), "--points"),
    (("page-curve", "--model", "u1-qubit", "--n", "-4", "--s", "0.1"), "--n"),
    (("page-curve", "--model", "u1-qubit", "--n", "-4", "--s", "0.1",
      "--exact"), "--n"),
    (("thermo", "--model", "u1-qubit", "--grid", "-1"), "--grid"),
    (("thermo", "--model", "u1-qubit", "--grid", "0"), "--grid"),
    # one sample has std_error 0, so any difference from the exact value is z = inf
    (("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2", "--s", "0.0",
      "--samples", "1"), "--samples"),
])
def test_invalid_grid_sizes_are_usage_errors(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be >= " in captured.err
    assert not (tmp_path / "x.svg").exists()


def test_page_curve_exact_at_large_n(capsys):
    code, out = invoke(capsys, "page-curve", "--model", "u1-qubit", "--n", "600",
                       "--s", "0.1", "--f", "1/2", "--exact")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["exact"] != ""
    assert abs(float(rows[0]["exact"]) - float(rows[0]["total"])) < 0.5


def test_dims_at_large_n(capsys):
    code, out = invoke(capsys, "dims", "--model", "u1-qubit", "--n", "512")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 513
    assert sum(int(row["dimension"]) for row in rows) == 2**512


def test_page_curve_half_row_has_sqrt_deficit(capsys):
    code, out = invoke(capsys, "page-curve", "--model", "u1-qubit", "--n", "32",
                       "--s", "0.25", "--f", "1/4,1/2,3/4")
    assert code == 0
    _, rows = parse_csv(out)
    by_f = {row["f"]: row for row in rows}
    assert float(by_f["0.5"]["term_sqrtN"]) < 0
    assert float(by_f["0.25"]["term_sqrtN"]) == 0.0
    assert by_f["0.25"]["regime"] == "f_below_half"
    assert by_f["0.5"]["regime"] == "f_half"
    assert by_f["0.75"]["regime"] == "f_above_half"


def test_page_curve_plot(tmp_path, capsys):
    out_svg = tmp_path / "curve.svg"
    code, _ = invoke(capsys, "page-curve", "--model", "u1-qubit", "--n", "16",
                     "--s", "0.0", "--points", "9", "--plot", str(out_svg))
    assert code == 0
    text = out_svg.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "polyline" in text


def test_exact_subcommand_half_integer_charge(capsys):
    # five trimers couple to odd doubled spin, so j = 3/2 is reachable
    code, out = invoke(capsys, "exact", "--model", "su2-trimer", "--n", "5",
                       "--na", "2", "--q", "3/2")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["q"] == "3/2"
    assert float(rows[0]["value"]) > 0


def test_negative_values_parse_in_every_number_form(capsys):
    code, out = invoke(capsys, "exact", "--model", "u1-qubit", "--n", "5",
                       "--na", "2", "--q", "-3/2")
    assert code == 0 and parse_csv(out)[1][0]["q"] == "-3/2"
    # a density as repr() prints it near zero
    code, out = invoke(capsys, "thermo", "--model", "u1-qubit",
                       "--s", "-2.220446049250313e-16")
    assert code == 0 and float(parse_csv(out)[1][0]["s"]) == -2.220446049250313e-16


def test_mc_output_deterministic(capsys):
    argv = ("mc", "--model", "u1-qubit", "--n", "6", "--na", "3", "--q", "0",
            "--samples", "200", "--seed", "99")
    code_a, out_a = invoke(capsys, *argv)
    code_b, out_b = invoke(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_mc_meta_reports_sampler_plan(capsys):
    code, out = invoke(capsys, "mc", "--model", "su2-qubit", "--n", "10", "--na", "4",
                       "--q", "1", "--samples", "20", "--seed", "3", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    # blocks 2x9, 3x19 and 1x15: three shapes, largest min(d, b) = 3
    assert meta["sampler"] == "laguerre-bidiagonal"
    assert meta["shape_groups"] == 3
    assert meta["svd_groups"] == 0  # every block has m <= 32
    assert meta["max_min_dim"] == 3
    assert meta["chunk"] >= 1
    # 20 rows of 2*(1+2+3)-3 = 9 draws, and the largest solve call: 20 rows of
    # one 3x3 matrix, its 5 copied draws and about 6 values of numpy's ufunc
    # buffers, plus numpy's copy of one 3x3 matrix
    assert meta["batch_bytes"] == 8 * 20 * 9 + 8 * (20 * (3 * 3 + 5 * 3) + 3 * 3)
    assert meta["workers"] == 1  # far below the work floor


def test_mc_meta_counts_the_shape_groups_solved_by_svd(capsys):
    code, out = invoke(capsys, "mc", "--model", "u1-qubit", "--n", "14", "--na", "7",
                       "--q", "0", "--samples", "5", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    # blocks 1x1, 7x7, 21x21 and 35x35, two of each: only m = 35 lies in 33..128
    assert meta["shape_groups"] == 4
    assert meta["svd_groups"] == 1
    assert meta["max_min_dim"] == 35


def test_mc_meta_reports_workers_and_bytes_in_flight(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(montecarlo, "MIN_TASK_WORK", 1)
    code, out = invoke(capsys, "mc", "--model", "su2-qubit", "--n", "10", "--na", "4",
                       "--q", "1", "--samples", "20", "--seed", "3", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["workers"] == 3
    # each worker holds the chunk's draws and a solve call of its 7 of the 20
    # rows, the 3x3 group the largest
    assert meta["batch_bytes"] == 3 * (8 * 20 * 9 + 8 * (7 * (3 * 3 + 5 * 3) + 3 * 3))
    assert meta["batch_bytes"] <= montecarlo.MAX_BATCH_BYTES


def test_mc_dump_file(tmp_path, capsys):
    dump = tmp_path / "samples.txt"
    code, _ = invoke(capsys, "mc", "--model", "u1-qubit", "--n", "6", "--na", "3",
                     "--q", "0", "--samples", "25", "--seed", "4",
                     "--dump", str(dump))
    assert code == 0
    lines = dump.read_text(encoding="utf-8").splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    values = [float(ln) for ln in lines if not ln.startswith("#")]
    assert len(values) == 25
    assert any("seed" in ln for ln in header)


def test_crosscheck_passes_and_exit_zero(capsys):
    code, out = invoke(capsys, "crosscheck", "--model", "u1-qubit",
                       "--n-list", "8,12", "--f", "1/2", "--s", "0.0",
                       "--samples", "3000", "--seed", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [row["status"] for row in rows] == ["pass", "pass"]
    for row in rows:
        assert float(row["z"]) < 4  # 6.3e-5 per row, 1.3e-4 for both
        assert float(row["scaled_diff"]) < 2.0


def test_crosscheck_skips_infeasible(capsys):
    code, out = invoke(capsys, "crosscheck", "--model", "u1-qubit",
                       "--n-list", "8,9", "--f", "1/2", "--s", "0.0",
                       "--samples", "200", "--seed", "5")
    # each run's N = 8 row must pass its |z| < 4 check: 6.3e-5 each, 1.3e-4 for both
    assert code == 0  # skipped rows do not fail the run
    _, rows = parse_csv(out)
    assert rows[1]["status"] == "skipped"
    # a valid s that snaps onto the SU(2) boundary s = 0 at small N skips that row
    code, out = invoke(capsys, "crosscheck", "--model", "su2-qubit",
                       "--n-list", "2,8", "--f", "1/2", "--s", "0.1",
                       "--samples", "200", "--seed", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [row["status"] for row in rows] == ["skipped", "pass"]
    assert float(rows[0]["s_snapped"]) == 0.0 and "s > 0" in rows[0]["reason"]
    # a reason holding commas stays one quoted cell
    code, out = invoke(capsys, "crosscheck", "--model", "u1-qubit",
                       "--n-list", "2,8", "--f", "1/2", "--s", "0.45",
                       "--samples", "300")
    assert code == 0
    _, rows = parse_csv(out)
    assert [row["status"] for row in rows] == ["skipped", "skipped"]
    assert all(row["reason"] == "s = 0.5 outside open density interval (-0.5, 0.5); "
               "beta* diverges" for row in rows)


def test_failed_verification_exits_one(capsys):
    assert EXIT_VERIFY == 1
    code, out = invoke(capsys, "crosscheck", "--model", "u1-qubit", "--n-list", "8",
                       "--f", "1/2", "--s", "0.0", "--samples", "200", "--tol", "1e-9")
    assert code == EXIT_VERIFY
    assert parse_csv(out)[1][0]["status"] == "fail"


@pytest.mark.parametrize("text", [
    '{"group": "U1", "multiplicities": {"0": 1.5, "2": 1}}',
    '{"group": "U1", "multiplicities": {"0": true, "2": 1}}',
    '{"group": "U1", "multiplicities": [[0, 1], [2, 1]]}',
    "5",
    '{"group": 5, "multiplicities": {"0": 1, "2": 1}}',
])
def test_malformed_model_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    code = main(["dims", "--model-file", str(path), "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("chargepage: error: ") and captured.out == ""


def test_non_integer_charge_key_is_a_named_usage_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"group": "U1", "multiplicities": {"0.5": 1, "1": 1}}', encoding="utf-8")
    assert main(["dims", "--model-file", str(path), "--n", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "chargepage: error: charge key = '0.5' must be an integer\n")


def test_unreadable_model_file_is_a_usage_error(tmp_path, capsys):
    code = main(["dims", "--model-file", str(tmp_path / "missing.json"), "--n", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: --model-file: cannot read" in captured.err


@pytest.mark.parametrize("flag, argv", [
    ("--out", ("dims", "--model", "u1-qubit", "--n", "4")),
    ("--dump", ("mc", "--model", "u1-qubit", "--n", "6", "--na", "3", "--q", "0",
                "--samples", "5")),
    ("--plot", ("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1")),
])
def test_unwritable_path_is_a_usage_error(tmp_path, capsys, flag, argv):
    code = main([*argv, flag, str(tmp_path / "missing" / "x.txt")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: {flag}: cannot write" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, target, argv", [
    ("--dump", "missing/x.txt", ("mc", "--model", "u1-qubit", "--n", "16", "--na", "8",
                                 "--q", "0", "--samples", "2000")),
    ("--out", "missing/x.csv", ("mc", "--model", "u1-qubit", "--n", "6", "--na", "3",
                                "--q", "0")),
    ("--out", ".", ("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2",
                    "--s", "0.1")),
    ("--plot", ".", ("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1")),
    ("--out", "missing/x.csv", ("page-curve", "--model", "u1-qubit", "--n", "8",
                                "--s", "0.1")),
], ids=["mc-dump", "mc-out", "crosscheck-out-directory", "page-curve-plot-directory",
        "page-curve-out"])
def test_unwritable_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                      flag, target, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("an unwritable path must be refused before any work")

    for owner, name in ((cli, "mc_run"), (cli.routes, "page_curve"),
                        (cli.routes, "crosscheck")):
        monkeypatch.setattr(owner, name, no_work)
    code = main([*argv, flag, str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: {flag}: cannot write" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_a_usage_error(capsys):
    # /dev/full passes the writability check, then every write fails
    code = main(["dims", "--model", "u1-qubit", "--n", "4", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: --out: cannot write '/dev/full': No space left on device" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n_list, message", [
    ("8,x", "--n-list must be a comma list of integers, got '8,x'"),
    ("0", "--n-list must be >= 1, got 0"),
], ids=["8,x", "0"])
def test_bad_n_list_is_a_usage_error(capsys, n_list, message):
    assert main(["crosscheck", "--model", "u1-qubit", "--f", "1/2", "--s", "0.1",
                 "--n-list", n_list]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def crash(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "sector_dims", crash)
    assert main(["dims", "--model", "u1-qubit", "--n", "4"]) == EXIT_INTERNAL == 3
    assert "internal error: ZeroDivisionError" in capsys.readouterr().err


def test_invariant_violation_exits_three(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("block normalization broken")

    monkeypatch.setattr(cli, "sector_dims", broken)
    assert main(["dims", "--model", "u1-qubit", "--n", "4"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "internal invariant violation: block normalization broken" in captured.err
    assert captured.out == ""


def test_invalid_tolerance_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2",
              "--s", "0.0", "--tol", "nope"])
    assert exc.value.code == EXIT_USAGE == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_non_finite_or_non_positive_tolerance_is_a_usage_error(capsys, tol):
    # "scaled >= nan" is always false, so --tol nan would pass every row
    code = main(["crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/2",
                 "--s", "0.1", "--samples", "50", "--tol", tol])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: --tol must be finite and > 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("model, s", [("u1-qubit", "nan"), ("u1-qubit", "inf"),
                                      ("u1-qubit", "5"), ("u1-qubit", "-0.7"),
                                      ("su2-qubit", "0"), ("su2-qubit", "1e-12")])
def test_crosscheck_density_outside_the_domain_is_a_usage_error(capsys, model, s):
    # each of these used to exit 0 with every row skipped, having checked nothing
    code = main(["crosscheck", "--model", model, "--n-list", "8,12", "--f", "1/2",
                 "--s", s, "--samples", "50"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("chargepage: error: ") and captured.out == ""


def test_thermo_su2_density_below_zero_is_a_usage_error(capsys):
    code = main(["thermo", "--model", "su2-qubit", "--s", "-0.2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: --s = -0.2 is below the lowest density 0.0" in captured.err
    assert captured.out == ""
    code, out = invoke(capsys, "thermo", "--model", "su2-qubit", "--s", "0")
    assert code == 0 and float(parse_csv(out)[1][0]["s"]) == 0.0


F_ERROR = "--f takes fractions strictly between 0 and 1 such as 1/4 or 0.5, got "
Q_ERROR = "--q must be an integer or half-integer such as 0, -2 or 3/2, got "
SEED_ERROR = "--seed must be in [0, 18446744073709551615], got "


@pytest.mark.parametrize("argv, message", [
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1", "--f", ""),
     F_ERROR + "''"),
    (("dims", "--model", "u1-qubit", "--n", "4", "--na", "2"),
     "--na and --q must be given together"),
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1", "--f", "3/2"),
     F_ERROR + "'3/2'"),
    (("exact", "--model", "u1-qubit", "--n", "0", "--na", "0", "--q", "0"),
     "n_total = 0 must be >= 1"),
    (("exact", "--model", "u1-qubit", "--n", "5", "--na", "7", "--q", "0"),
     "n_a = 7 outside [0, 5]"),
    (("page-curve", "--model", "su2-qubit", "--n", "64", "--s", "1e-12", "--f", "1/2"),
     "SU2 asymptotics need charge density s > 0 with beta* < -1e-09; s = 1e-12"),
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1", "--f", "x"),
     F_ERROR + "'x'"),
    (("page-curve", "--model", "u1-qubit", "--n", "8", "--s", "0.1", "--f", "1/4,"),
     F_ERROR + "''"),
    (("crosscheck", "--model", "u1-qubit", "--n-list", "8", "--f", "1/0", "--s", "0.1"),
     F_ERROR + "'1/0'"),
    (("exact", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "x"),
     Q_ERROR + "'x'"),
    (("exact", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "1/0"),
     Q_ERROR + "'1/0'"),
    (("dims", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "1/3"),
     Q_ERROR + "'1/3'"),
    # --seed is checked before any work, whether or not a row reaches the exact leg
    (("crosscheck", "--model", "u1-qubit", "--n-list", "1", "--f", "1/2", "--s", "0.1",
      "--seed", "-1"), SEED_ERROR + "-1"),
    (("crosscheck", "--model", "u1-qubit", "--n-list", "4000", "--f", "1/2", "--s", "0.1",
      "--seed", "-1"), SEED_ERROR + "-1"),
    (("mc", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "0",
      "--seed", str(2**64)), SEED_ERROR + str(2**64)),
    (("mc", "--model", "u1-qubit", "--n", "4", "--na", "2", "--q", "0", "--samples", "0"),
     "--samples must be >= 1, got 0"),
    (("mc", "--model", "u1-qubit", "--n", "1", "--na", "1", "--q", "1/2"),
     "n = 1 has no bipartition: a cut needs n >= 2"),
    (("exact", "--model", "u1-qutrit", "--n", "10", "--na", "3", "--q", "99"),
     "charge 99 (doubled 198) is not realizable for u1-qutrit with n = 10"),
    (("dims", "--model", "u1-qubit", "--n", "0"), "n = 0 must be >= 1"),
])
def test_usage_errors_name_the_problem(capsys, argv, message):
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"chargepage: error: {message}" in captured.err and captured.out == ""


@pytest.mark.parametrize("n_a", [0, 3, 10])
def test_unrealizable_charge_message_names_the_model_at_every_cut(capsys, n_a):
    assert main(["exact", "--model", "u1-qutrit", "--n", "10", "--na", str(n_a),
                 "--q", "99"]) == EXIT_USAGE
    assert capsys.readouterr().err == ("chargepage: error: charge 99 (doubled 198) "
                                       "is not realizable for u1-qutrit with n = 10\n")


def test_model_file_flag(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"group": "U1",
                                "multiplicities": {"0": 1, "2": 2}}),
                    encoding="utf-8")
    code, out = invoke(capsys, "dims", "--model-file", str(path), "--n", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert {r["charge"]: r["dimension"] for r in rows} == {"0": "1", "1": "4", "2": "4"}


def test_model_file_named_like_json_is_read_as_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("{q}.json").write_text(json.dumps({"group": "U1", "multiplicities": {"0": 1, "2": 2}}),
                                encoding="utf-8")
    code, out = invoke(capsys, "dims", "--model-file", "{q}.json", "--n", "2")
    assert code == 0
    assert parse_csv(out)[0]["model"]["multiplicities"] == {"0": 1, "2": 2}


def test_model_file_takes_no_inline_json(capsys):
    doc = json.dumps({"group": "U1", "multiplicities": {"0": 1, "2": 2}})
    assert main(["dims", "--model-file", doc, "--n", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error: --model-file: cannot read" in captured.err and captured.out == ""


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "dims.csv"
    code, out = invoke(capsys, "dims", "--model", "u1-qubit", "--n", "2",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert "charge,dimension" in target.read_text(encoding="utf-8")


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "dims", "--model", "nonsense", "--n", "4")[0] == 2
    assert invoke(capsys, "dims", "--model", "u1-qubit", "--n", "4",
                  "--na", "2", "--q", "1/3")[0] == 2
    assert invoke(capsys, "page-curve", "--model", "su2-qubit", "--n", "8",
                  "--s", "0.0", "--f", "1/2")[0] == 2
    assert invoke(capsys, "exact", "--model", "u1-qubit", "--n", "4",
                  "--na", "2", "--q", "3")[0] == 2  # unrealizable charge


def test_snap_charge_lattice():
    model = catalog("su2-qutrit")
    assert sectors.sector_dims(model, 96).snap(0.4) in (76, 78)
    assert sectors.sector_dims(model, 96).snap(0.4) % 2 == 0  # stays on the even lattice
    qubit = catalog("u1-qubit")
    assert sectors.sector_dims(qubit, 8).snap(0.1) == 2  # m = 1
    assert sectors.sector_dims(qubit, 7).snap(0.0) == -1  # a tie goes to the lower charge


# argparse refuses each of these: an option the command would ignore (argparse
# counts an option equal to its default as absent, hence the default values),
# a removed command or option, and a missing or doubled model
IGNORED_OPTIONS = [
    ("laplace-check", "--model", "nope", "--model-file", "/nonexistent/x.json"),
    ("thermo", "--model", "u1-qubit", "--s", "0.1", "--closed-form"),
    ("dims", "--model", "u1-qubit", "--model-file", "m.json", "--n", "4"),
    ("dims", "--n", "4"),
    ("page-curve", "--model", "u1-qubit", "--n", "16", "--s", "0.1", "--points", "5",
     "--f", "1/2"),
    ("page-curve", "--model", "u1-qubit", "--n", "16", "--s", "0.1", "--points", "19",
     "--f", "1/2"),
    ("thermo", "--model", "u1-qubit", "--grid", "7", "--s", "0.1"),
    ("thermo", "--model", "u1-qubit", "--grid", "99", "--s", "0.1"),
]


@pytest.mark.parametrize("argv", IGNORED_OPTIONS, ids=[
    "laplace-check-model", "closed-form", "model-and-model-file", "no-model",
    "points-and-f", "default-points-and-f", "grid-and-s", "default-grid-and-s"])
def test_an_option_the_command_would_ignore_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_exact_routes_name_the_entropy_in_their_meta(capsys):
    model = ("--model", "su2-qubit", "--format", "json")
    for argv in (("exact", "--n", "6", "--na", "3", "--q", "0"),
                 ("mc", "--n", "6", "--na", "3", "--q", "0", "--samples", "20"),
                 ("page-curve", "--n", "8", "--s", "0.25", "--f", "1/2", "--exact")):
        code, out = invoke(capsys, *argv, *model)
        assert code == 0
        assert json.loads(out)["meta"]["entropy"] == "multiplicity-space"
