"""In-memory span tracer for the traced benchmark run.

Wrappers are installed on the names each caller looks up: `catring.modules`
binds the `intlin` functions through `from .intlin import ...`, and
`catring.cli` binds `complete`, `ext`, the serializers and the others the
same way, so one wrapper per function is set in every namespace that holds
it.  Methods are wrapped on their class.  `Tracer.uninstall` restores every
original; `assert_clean` proves that no wrapper is left in place.

A span records its name, start, end, parent span and operation id.  Spans
stay in flat arrays while the run lasts and are written out at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

from catring import cli, completion, intlin, modules, serialize

MARKER = "__perfbench_wrapper__"

# (metric prefix, function name, namespaces that bind it)
SPANNED = [
    ("completion", "complete", (completion, cli)),
    ("completion", "normal_form", (completion, cli)),
    ("completion", "verify_ring", (completion, cli)),
    ("completion", "random_associativity_probe", (completion, cli)),
    ("intlin", "solve_left", (intlin, modules)),
    ("intlin", "left_kernel", (intlin, modules)),
    ("intlin", "hnf", (intlin, modules)),
    ("intlin", "group_invariants", (intlin, modules)),
    ("intlin", "mat_mul", (intlin, modules)),
    ("modules", "free_cover", (modules,)),
    ("modules", "kernel_of", (modules,)),
    ("modules", "free_resolution", (modules, cli)),
    ("modules", "hom_module", (modules,)),
    ("modules", "ext", (modules, cli)),
    ("modules", "is_projective", (modules,)),
    ("modules", "projective_dimension", (modules, cli)),
    ("modules", "uct_terms", (modules, cli)),
    ("serialize", "load_json", (serialize, cli)),
    ("serialize", "ring_from_dict", (serialize, cli)),
    ("serialize", "module_from_dict", (serialize, cli)),
    ("serialize", "ring_to_dict", (serialize, cli)),
    ("serialize", "content_hash", (serialize, cli)),
    ("cli", "main", (cli,)),
]
SPANNED_METHODS = [("modules.GradedModule.validate", modules.GradedModule, "validate")]
# hot methods that only get a call counter, no span
COUNTED_METHODS = [
    ("completion.compose", completion.CategoryRing, "compose"),
    ("intlin.Lattice.add", intlin.Lattice, "add"),
]

BUILD_KS = (2, 3, 4, 5, 6)


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fn, _ in SPANNED]
    names += [name for name, _, _ in SPANNED_METHODS]
    return names


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name, _, _ in COUNTED_METHODS:
        units[f"{name}.calls"] = "count"
    units["completion.complete.failed_s"] = "s"
    for what in ("stabilized_at", "total_rank", "table_nnz"):
        for k in BUILD_KS:
            units[f"completion.{what}.k{k}"] = "count"
    units["intlin.cells"] = "count"
    units["modules.input_gens"] = "count"
    units["modules.resolution_entries"] = "count"
    units["serialize.bytes_read"] = "bytes"
    units["trace.spans"] = "count"
    units["trace.overhead_share"] = "share"
    return units


def module_gens(module) -> int:
    return sum(module.ngens(s) for s in module.slots)


def _all_targets():
    for layer, fn, owners in SPANNED:
        for owner in owners:
            yield owner, fn
    for _, cls, attr in SPANNED_METHODS + COUNTED_METHODS:
        yield cls, attr
    yield intlin, "_augmented_echelon"


def assert_clean() -> None:
    """Raise if any tracing wrapper is installed."""
    for owner, attr in _all_targets():
        if getattr(getattr(owner, attr), MARKER, False):
            raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1  # -1 marks set-up
        self.counts: dict[str, int] = {}
        self.failed_s = 0.0
        self.ring_stats: dict[int, tuple[int, int, int]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._modules_depth = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span_wrapper(self, name: str, fn, on_enter=None, on_exit=None, on_error=None):
        nid = self._name_id(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self.stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc, end[idx] - start[idx])
                raise
            end[idx] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(args, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def _count_wrapper(self, name: str, fn, amount=None):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- layer-specific hooks ------------------------------------------

    def _complete_exit(self, args, ring):
        k = ring.presentation.group_order
        if k not in self.ring_stats:
            nnz = sum(1 for vec in ring.table.values() if any(vec))
            self.ring_stats[k] = (ring.stabilized_at, ring.total_rank(), nnz)

    def _complete_error(self, exc, seconds):
        if isinstance(exc, completion.NotStabilizedError):
            self.failed_s += seconds

    def _modules_enter(self, args):
        # generators of the module handed to the modules layer from outside
        if args:
            arg = args[0]
            if isinstance(arg, modules.ModuleMap):
                arg = arg.source
            if isinstance(arg, modules.GradedModule):
                self._count("modules.input_gens", module_gens(arg))

    def _resolution_exit(self, args, res):
        self._count("modules.resolution_entries", sum(len(f.entries) for f in res.frees))

    def _load_enter(self, args):
        self._count("serialize.bytes_read", os.path.getsize(args[0]))

    def _modules_wrapper(self, name, fn, on_exit=None):
        span = self._span_wrapper(name, fn, on_exit=on_exit)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._modules_depth == 0:
                self._modules_enter(args)
            self._modules_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self._modules_depth -= 1

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        assert_clean()
        for layer, fn, owners in SPANNED:
            name = f"{layer}.{fn}"
            original = getattr(owners[0], fn)
            if name == "completion.complete":
                wrapper = self._span_wrapper(
                    name, original, on_exit=self._complete_exit, on_error=self._complete_error
                )
            elif name == "modules.free_resolution":
                wrapper = self._modules_wrapper(name, original, on_exit=self._resolution_exit)
            elif layer == "modules":
                wrapper = self._modules_wrapper(name, original)
            elif name == "serialize.load_json":
                wrapper = self._span_wrapper(name, original, on_enter=self._load_enter)
            else:
                wrapper = self._span_wrapper(name, original)
            for owner in owners:
                if getattr(owner, fn) is not original:
                    raise RuntimeError(f"{owner.__name__}.{fn} is not the function it re-exports")
                self._set(owner, fn, wrapper)
        for name, cls, attr in SPANNED_METHODS:
            self._set(cls, attr, self._span_wrapper(name, getattr(cls, attr)))
        for name, cls, attr in COUNTED_METHODS:
            self._set(cls, attr, self._count_wrapper(name, getattr(cls, attr)))
        # Sigma rows * (cols + rows) over every augmented echelon [A | I]
        self._set(
            intlin,
            "_augmented_echelon",
            self._count_wrapper(
                "intlin.cells", intlin._augmented_echelon,
                amount=lambda args: len(args[0]) * (args[1] + len(args[0])),
            ),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        assert_clean()

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i] - child[i])
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Every per-layer metric, keyed as in `per_layer_metric_units`."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        for name, _, _ in COUNTED_METHODS:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out["completion.complete.failed_s"] = self.failed_s
        for k in BUILD_KS:
            stab, rank, nnz = self.ring_stats.get(k, (0, 0, 0))
            out[f"completion.stabilized_at.k{k}"] = stab
            out[f"completion.total_rank.k{k}"] = rank
            out[f"completion.table_nnz.k{k}"] = nnz
        for name in ("intlin.cells", "modules.input_gens", "modules.resolution_entries",
                     "serialize.bytes_read"):
            out[name] = self.counts.get(name, 0)
        out["trace.spans"] = len(self.start)
        out["trace.overhead_share"] = overhead_share
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: op, index, parent, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            names, t0 = self.names, (self.start[0] if len(self.start) else 0.0)
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
