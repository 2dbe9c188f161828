"""Names looked up by string must exist: the functions the benchmark's worker
times, every name the benchmark imports, and every entry of the package's
export lists."""

import ast
import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only as a script
    return module


def test_every_traced_name_resolves_in_chargepage():
    traced = load_worker().TRACED
    assert traced
    for mod_name, fn_name in traced:
        module = importlib.import_module(f"chargepage.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"chargepage.{mod_name}.{fn_name}"


def test_every_exported_name_resolves():
    # a removed name must leave no dangling entry in an __all__
    for mod_name in ("chargepage", "chargepage.asymptotics"):
        module = importlib.import_module(mod_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{mod_name}.{name}"


def test_every_name_the_benchmark_imports_resolves():
    # a move inside chargepage must not break a benchmark run
    imported = set()
    for path in sorted(WORKER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "chargepage":
                imported.update((node.module, alias.name) for alias in node.names)
    assert {name for _, name in imported} >= {
        "cli", "montecarlo", "McConfig", "run", "catalog", "weight_multiplicities",
        "exact_average_entropy", "average_entropy_asymptotic", "thermo_point"}
    for mod_name, name in sorted(imported):
        module = importlib.import_module(mod_name)
        assert hasattr(module, name) or importlib.util.find_spec(f"{mod_name}.{name}"), \
            f"from {mod_name} import {name}"
