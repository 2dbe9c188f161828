"""tools/golden.py, the byte-identity check of the command line: its argv list
records the same bytes twice, and its comparison flags what it must."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402

from conftest import REDUCIBLE_PANEL  # noqa: E402


def test_quick_argvs_record_the_same_bytes_twice():
    assert set(golden.QUICK) <= set(golden.ARGVS)
    first, second = golden.run_trees([str(ROOT), str(ROOT)], golden.QUICK)
    assert golden.hashes(first) == golden.hashes(second)
    assert sorted({rec["code"] for rec in first}) == [0, 1, 2]
    assert "file exact.csv" in first[4]["texts"]


def test_argv_list_carries_the_reducible_panel():
    assert list(golden.PANEL.values()) == [model.as_dict() for model in REDUCIBLE_PANEL]


def _record(argv, stdout, stderr=""):
    return {"argv": argv, "code": 0, "texts": {"stdout": stdout, "stderr": stderr}}


def test_compare_flags_one_ulp_and_a_reworded_message_unless_allowed():
    parent = [_record(["exact"], "value\n1.244406323810347\n"),
              _record(["dims", "bad.json"], "", "error: must be an integer\n")]
    change = [_record(["exact"], "value\n1.2444063238103473\n"),
              _record(["dims", "bad.json"], "", "error: must lie in the integers\n")]
    summary, details, ok = golden.compare(parent, parent, [])
    assert ok and "differ 0" in summary and not details
    summary, details, ok = golden.compare(parent, change, ["bad.json"])
    assert not ok and "differ 2 --allow 'bad.json' (1 differ)" in summary
    assert "max float diff 2.22e-16" in summary
    assert "    stdout line 2 cell 1: '1.244406323810347' -> '1.2444063238103473'" in details
    summary, _, ok = golden.compare(parent, change, ["bad.json", "exact"])
    assert ok and "--allow 'exact' (1 differ)" in summary


def test_recording_subprocess_runs_under_the_address_space_cap(tmp_path):
    # a stand-in tree whose cli prints the soft RLIMIT_AS of the recording process
    package = tmp_path / "src" / "chargepage"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import resource\n\n\ndef main(argv):\n"
                                    "    print(resource.getrlimit(resource.RLIMIT_AS)[0])\n"
                                    "    return 0\n")
    ((rec,),) = golden.run_trees([str(tmp_path)], [("limit",)])
    assert rec["texts"]["stdout"] == f"{golden.CHILD_BYTES}\n" == f"{2**31}\n"
