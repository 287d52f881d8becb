"""Spans around calls into qnogo's public functions, installed from outside.

HOOKS is the one table of wrapped functions.  Each wrapper records a span
(name, start, end, parent span, operation id) in memory and may bump a
work counter.  A name that no longer exists is reported as missing
rather than failing the run, so refactors that merge or delete functions
need no benchmark edit.  `algebra` and `gates` are called per vector from
inside `verifier` and `dsl`; they get no spans, and their cost shows in
the self time of those layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# One Gram entry is a complex128.
_GRAM_ENTRY_BYTES = 16


def _count(name):
    def bump(tracer, result, call, parent):
        tracer.counts[name] += 1
    return bump


def _count_tokens(tracer, result, call, parent):
    tracer.counts["dsl.tokens"] += len(result[0])


def _count_states(tracer, result, call, parent):
    # bloch_set calls sample_bloch: count each family once, at its outermost span
    if parent is None or not tracer.spans[parent][0].startswith("states."):
        tracer.counts["states.family_states"] += len(result)


def _count_pairs(tracer, result, call, parent):
    tracer.counts["verifier.pairs_checked"] += len(call()["states"])


def _count_witness(tracer, result, call, parent):
    args = call()
    n = args["n_samples"]
    grams = 4 if args["t"].kind == "cnot" else 2
    tracer.counts["verifier.witness_pairs"] += n * (n - 1) // 2
    tracer.counts["verifier.witness_gram_bytes"] += grams * n * n * _GRAM_ENTRY_BYTES


def _count_evaluations(tracer, result, call, parent):
    tracer.counts["fidelity.evaluations"] += result.record.iterations


# (module, public function, span name, counter)
HOOKS = (
    ("qnogo.cli", "main", "cli.main", None),
    ("qnogo.cli", "emit", "cli.render", None),
    ("qnogo.cli", "cmd_circle_check", "cli.circle", None),
    ("qnogo.dsl", "tokenize", "dsl.frontend", _count_tokens),
    ("qnogo.dsl", "parse", "dsl.frontend", None),
    ("qnogo.dsl", "compile_unit", "dsl.frontend", None),
    ("qnogo.dsl", "check", "dsl.check", _count("dsl.machines_checked")),
    ("qnogo.states", "bloch_set", "states.family", _count_states),
    ("qnogo.states", "polar_set", "states.family", _count_states),
    ("qnogo.states", "equatorial_set", "states.family", _count_states),
    ("qnogo.states", "listed_set", "states.family", _count_states),
    ("qnogo.states", "sample_bloch", "states.family", _count_states),
    ("qnogo.verifier", "check_universal_gate", "verifier.gate_check", _count_pairs),
    ("qnogo.verifier", "check_cnot_universal", "verifier.cnot_check", _count_pairs),
    ("qnogo.verifier", "machine_deviation", "verifier.deviation",
     _count("verifier.deviation_calls")),
    ("qnogo.verifier", "witness_search", "verifier.witness", _count_witness),
    ("qnogo.verifier", "survey_random_unitaries", "verifier.survey", None),
    ("qnogo.fidelity", "uniform_grid", "fidelity.grid", None),
    ("qnogo.fidelity", "optimize_fidelity", "fidelity.optimize", _count_evaluations),
)

LAYERS = ("cli", "dsl", "states", "verifier", "fidelity")


class Tracer:
    """Holds spans and counters in memory while its hooks are installed.

    A span is [name, start_ns, end_ns, parent index or None, op id].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        for module_name, attr, span, counter in HOOKS:
            where = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(where)
                continue
            self._replace(original, self._wrap(original, span, counter, where))
        return self

    def _replace(self, original, wrapper) -> None:
        # every qnogo module that imported the function holds its own
        # reference, and a dispatch table such as cli._COMMANDS holds one more
        for name, module in list(sys.modules.items()):
            if name != "qnogo" and not name.startswith("qnogo."):
                continue
            namespace = vars(module)
            tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = wrapper
                        self._undo.append((table, key, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def _wrap(self, fn, span, counter, where):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [span, perf_counter_ns(), 0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                def call():
                    return signature.bind(*args, **kwargs).arguments
                try:
                    counter(self, result, call, parent)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the function changed shape; its time is still recorded
                    if f"{where} (counter)" not in self.missing:
                        self.missing.append(f"{where} (counter)")
            return result
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
