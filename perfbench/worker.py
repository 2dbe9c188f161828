"""One round of a workload in a fresh interpreter.

Reads a JSON spec on stdin, imports chargepage from the checkout's ``src``,
runs every operation once and prints one JSON record on stdout. A fresh
process per round means the ``lru_cache`` in ``sectors``, numpy state and
peak memory start from nothing in every round.

Spec: {"kind": "mc" | "cli", "ops": [...], "trace": bool, "setup_only": bool}
  mc op:  {"model", "n", "n_a", "q2", "samples", "seed"} -> montecarlo.run
  cli op: {"argv": [...]} -> cli.main, stdout captured
"""

import time

_T_START = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: functions timed by the tracer, as (module, name); each is patched under
#: every chargepage namespace that holds it. Inner-loop helpers such as
#: triangle_allowed and digamma are left unwrapped: their time is part of
#: their caller's self time, and a shim per call would swamp it.
TRACED = (
    ("sectors", "sector_dims"),
    ("sectors", "block_table"),
    ("sectors", "realizable_charges"),
    ("exactavg", "exact_average_entropy"),
    ("thermo", "thermo_point"),
    ("asymptotics", "average_entropy_asymptotic"),
    ("montecarlo", "run"),
    ("cli", "main"),
)


class Tracer:
    """Self time and call counts of wrapped functions, plus a few counters.

    Self time is a span's duration minus the spans of traced calls made
    inside it. Time spent in the tracer's own counting hooks is charged to
    no function.
    """

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counters = {"sectors.blocks": 0, "sectors.max_dim_bits": 0,
                         "montecarlo.samples": 0}
        self._stack = []

    def _count(self, name, args, result):
        if name == "sectors.block_table":
            self.counters["sectors.blocks"] += len(result.blocks)
            bits = result.sector_dimension.bit_length()
            if bits > self.counters["sectors.max_dim_bits"]:
                self.counters["sectors.max_dim_bits"] = bits
        elif name == "montecarlo.run":
            self.counters["montecarlo.samples"] += args[0].samples

    def wrap(self, name, fn):
        self.self_s[name] = 0.0
        self.calls[name] = 0
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                child = stack.pop()
                self.self_s[name] += (t1 - t0) - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += t1 - t0
            self._count(name, args, result)
            if stack:
                stack[-1] += perf() - t1
            return result

        return shim

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "chargepage" or key.startswith("chargepage.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"chargepage.{mod_name}"], fn_name)
            shim = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, shim)

    def report(self):
        out = {f"{name}.self_s": value for name, value in self.self_s.items()}
        out.update({f"{name}.calls": value for name, value in self.calls.items()})
        out.update(self.counters)
        return out


def _page_rows(text):
    keys = ("f", "n_a", "f_exact", "q_snapped", "s_snapped", "exact")
    return [{k: row[k] for k in keys} for row in json.loads(text)["rows"]]


def main():
    spec = json.load(sys.stdin)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "chargepage" / "__init__.py").is_file():
        sys.exit(f"worker: no chargepage package under {src}")
    sys.path.insert(0, str(src))

    import chargepage
    from chargepage import cli, montecarlo
    from chargepage.models import catalog

    if spec["kind"] == "mc":
        inputs = [montecarlo.McConfig(catalog(op["model"]), op["n"], op["n_a"],
                                      op["q2"], op["samples"], op["seed"])
                  for op in spec["ops"]]
    else:
        inputs = [list(op["argv"]) for op in spec["ops"]]
    t_setup = time.perf_counter()
    record = {"setup_s": t_setup - _T_START,
              "chargepage": str(Path(chargepage.__file__).resolve())}
    if spec.get("setup_only"):
        print(json.dumps(record))
        return

    tracer = Tracer() if spec.get("trace") else None
    if tracer:
        tracer.install()
    raw, op_s = [], []
    t0 = time.perf_counter()
    for item in inputs:
        t_op = time.perf_counter()
        try:
            if spec["kind"] == "mc":
                res = montecarlo.run(item)
                raw.append({"mean": res.mean, "std_error": res.std_error,
                            "samples": len(res.entropies)})
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(item)
                raw.append({"exit": code, "text": buf.getvalue()})
        except Exception as exc:  # an operation that raises counts as failed
            raw.append({"error": f"{type(exc).__name__}: {exc}"})
        op_s.append(time.perf_counter() - t_op)
    work_s = time.perf_counter() - t0

    results = []
    for item in raw:
        if "text" in item:
            try:
                item = {"exit": item["exit"], "rows": _page_rows(item["text"])}
            except (ValueError, KeyError) as exc:
                item = {"error": f"unparsable page-curve output: {exc}"}
        results.append(item)
    record.update(
        first_result_s=op_s[0], op_s=op_s, work_s=work_s, results=results,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        trace=tracer.report() if tracer else None)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
