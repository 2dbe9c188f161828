"""Names looked up by string must exist: the functions the benchmark's worker
times, and every entry of the package's export lists."""

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
