"""Per-layer host time for the traced run.

:func:`install` wraps the public entry points of each layer of the
program (class attributes and module functions) with a span that
records calls, inclusive time and self time.  Self time is a span's
duration minus the time of the wrapped spans it called, so the self
times of all layers plus the unattributed remainder add up to the
traced pass.

The wrappers must be installed before any ``Cpu``, ``AddressSpace`` or
``Program`` exists: decode closures and block codegen bind methods at
build time, and ``InOrderTiming.fetch`` is an instance slot bound to
``CacheHierarchy.fetch_access`` when the core is built, so the span
for the in-order fetch sits on that method.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Layer:
    calls: int = 0
    inclusive_s: float = 0.0    # outermost spans of this layer only
    self_s: float = 0.0
    depth: int = 0
    counts: Dict[str, float] = field(default_factory=lambda:
                                     defaultdict(float))


class Recorder:
    """Span stack plus per-layer totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: Dict[str, Layer] = defaultdict(Layer)
        self._stack: List[List[float]] = []

    def reset(self) -> None:
        self.layers.clear()

    def wrap(self, layer: str, fn: Callable, pre=None, post=None):
        """``fn`` inside a span of ``layer``.  ``pre(args)`` returns a
        token; ``post(counts, args, result, token)`` adds counts."""
        clock, stack, layers = self.clock, self._stack, self.layers

        @functools.wraps(fn)
        def span(*args, **kwargs):
            acc = layers[layer]
            token = pre(args) if pre is not None else None
            frame = [0.0]
            stack.append(frame)
            acc.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc.depth -= 1
                acc.calls += 1
                acc.self_s += duration - frame[0]
                if acc.depth == 0:
                    acc.inclusive_s += duration
                if stack:
                    stack[-1][0] += duration
            if post is not None:
                post(acc.counts, args, result, token)
            return result

        return span


# ----------------------------------------------------------------------
# count hooks
# ----------------------------------------------------------------------
def _cpu_snapshot(args):
    cpu = args[0]
    s = cpu.stats
    l1d, l1i = cpu.caches.l1d.stats(), cpu.caches.l1i.stats()
    tlb = cpu.tlb.stats()
    return (s.instructions, s.speculative_instructions, s.cycles,
            s.branches, s.mispredicts, l1d.hits, l1d.misses,
            l1i.hits, l1i.misses, tlb.hits, tlb.misses)


_CPU_COUNTS = ("instrs", "spec_instrs", "cycles", "branches",
               "mispredicts", "l1d_hits", "l1d_misses", "l1i_hits",
               "l1i_misses", "tlb_hits", "tlb_misses")


def _cpu_post(counts, args, result, before):
    after = _cpu_snapshot(args)
    for name, a, b in zip(_CPU_COUNTS, after, before):
        counts[name] += a - b


def _compile_post(counts, args, result, token):
    counts["emitted_instrs"] += len(result.program.instructions)


def _decode_post(counts, args, result, token):
    counts["ops"] += len(result)


def _shed_post(counts, args, result, token):
    counts["candidates"] += len(args[0])
    counts["victims"] += len(result)


def _serving_post(counts, args, result, token):
    counts["runs"] += 1
    counts["requests"] += result.requests
    counts["shed"] += result.shed
    counts["events"] += result.requests + result.succeeded + result.failed
    counts["steals"] += result.steals
    counts["utilization"] += result.utilization
    counts["p99_cycles"] += result.p99_cycles


# (layer, module, owner class or None for a module function, names,
#  pre, post)
BOUNDARIES = (
    ("wasm.compiler", "repro.wasm.compiler", "Compiler", ("compile",),
     None, _compile_post),
    ("wasm.strategies", "repro.wasm.strategies", "IsolationStrategy+",
     ("reserve_memory", "prepare", "grow_cost", "teardown_cost"),
     None, None),
    ("cpu.decode", "repro.cpu.decode", None, ("decode_program",),
     None, _decode_post),
    ("cpu.machine", "repro.cpu.machine", "Cpu", ("run",),
     _cpu_snapshot, _cpu_post),
    ("cpu.timing", "repro.cpu.cache", "CacheHierarchy", ("fetch_access",),
     None, None),
    ("cpu.timing", "repro.cpu.timing", "InOrderTiming", ("mem_access",),
     None, None),
    ("cpu.ooo", "repro.cpu.ooo", "OutOfOrderTiming",
     ("issue", "retire", "mem_access", "drain_pending"), None, None),
    ("core.state", "repro.core.state", "HfiState",
     ("hmov_address", "check_data_access", "enter", "exit"), None, None),
    ("os.address_space.access", "repro.os.address_space", "AddressSpace",
     ("check_access", "read", "write", "read_bytes", "write_bytes"),
     None, None),
    ("os.address_space.map", "repro.os.address_space", "AddressSpace",
     ("mmap", "munmap", "mprotect", "madvise_dontneed", "set_pkey"),
     None, None),
    ("runtime.serving", "repro.runtime.serving", "ServingSimulator",
     ("run",), None, _serving_post),
    ("runtime.supervisor", "repro.runtime.serving", None,
     ("shed_victims",), None, _shed_post),
    # construction is its own layer so ``runtime.pool.setup_s`` can
    # report it; both count towards ``runtime.pool.self_s``/``.calls``
    ("runtime.pool.init", "repro.runtime.pool", "ShardedInstancePool",
     ("__init__",), None, None),
    ("runtime.pool", "repro.runtime.pool", "ShardedInstancePool",
     ("acquire", "release", "flush_all"), None, None),
)


def _owners(module, owner: str) -> list:
    """The named class, or (``Name+``) it and every subclass in the
    module that defines its own methods."""
    if not owner.endswith("+"):
        return [getattr(module, owner)]
    base = getattr(module, owner[:-1])
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)]


def install(recorder: Recorder) -> None:
    """Wrap every boundary in :data:`BOUNDARIES`."""
    for layer, modname, owner, names, pre, post in BOUNDARIES:
        module = importlib.import_module(modname)
        for name in names:
            if owner is None:
                original = getattr(module, name)
                span = recorder.wrap(layer, original, pre, post)
                # replace every alias, e.g. ``from .decode import
                # decode_program`` in the machine module
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, name, None) is original):
                        setattr(other, name, span)
                continue
            for cls in _owners(module, owner):
                if name in vars(cls):
                    setattr(cls, name, recorder.wrap(
                        layer, vars(cls)[name], pre, post))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in report order.  Every name is emitted on every
#: workload; a layer that does not run reports 0.
PER_LAYER_UNITS = {
    "wasm.compiler.self_s": "s",
    "wasm.compiler.calls": "count",
    "wasm.compiler.emitted_instrs": "count",
    "wasm.strategies.self_s": "s",
    "wasm.strategies.calls": "count",
    "cpu.decode.self_s": "s",
    "cpu.decode.ops": "count",
    "cpu.machine.self_s": "s",
    "cpu.machine.ns_per_instr": "ns",
    "cpu.machine.instrs": "count",
    "cpu.machine.spec_ratio": "ratio",
    "cpu.timing.self_s": "s",
    "cpu.timing.calls": "count",
    "cpu.ooo.self_s": "s",
    "cpu.ooo.calls": "count",
    "core.state.self_s": "s",
    "core.state.calls": "count",
    "os.address_space.access_self_s": "s",
    "os.address_space.access_calls": "count",
    "os.address_space.map_self_s": "s",
    "os.address_space.map_calls": "count",
    "runtime.serving.self_s": "s",
    "runtime.serving.events": "count",
    "runtime.serving.us_per_event": "us",
    "runtime.supervisor.shed_self_s": "s",
    "runtime.supervisor.shed_calls": "count",
    "runtime.supervisor.shed_candidates_per_call": "count",
    "runtime.supervisor.shed_yield": "ratio",
    "runtime.pool.setup_s": "s",
    "runtime.pool.self_s": "s",
    "runtime.pool.calls": "count",
    "runtime.pool.steals": "count",
    "cpu.cache.l1d_miss_ratio": "ratio",
    "cpu.cache.l1i_miss_ratio": "ratio",
    "cpu.tlb.miss_ratio": "ratio",
    "cpu.predictors.mispredict_ratio": "ratio",
    "cpu.machine.ipc": "instr/cycle",
    "runtime.serving.shed_ratio": "ratio",
    "runtime.serving.utilization": "ratio",
    "runtime.serving.p99_cycles": "cycles",
    "paper.err_pct": "%",
    "trace.pass_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder: Recorder, passes: int, pass_s: float,
              median_pass_s: float, untraced_pass_s: float,
              paper_err_pct: Optional[float]) -> Dict[str, float]:
    """Per-pass metrics from ``passes`` traced passes of mean duration
    ``pass_s``.  The tracing overhead compares ``median_pass_s`` with
    the untraced ``wall_s``, which is also a median over passes."""
    L = recorder.layers
    empty = Layer()

    def layer(name: str) -> Layer:
        return L.get(name, empty)

    def per_pass(value: float) -> float:
        return value / passes

    out: Dict[str, float] = {}
    for name in ("wasm.compiler", "wasm.strategies", "cpu.decode",
                 "cpu.machine", "cpu.timing", "cpu.ooo", "core.state",
                 "runtime.serving"):
        out[f"{name}.self_s"] = per_pass(layer(name).self_s)
        out[f"{name}.calls"] = per_pass(layer(name).calls)
    for part in ("access", "map"):
        acc = layer(f"os.address_space.{part}")
        out[f"os.address_space.{part}_self_s"] = per_pass(acc.self_s)
        out[f"os.address_space.{part}_calls"] = per_pass(acc.calls)

    compiler = layer("wasm.compiler").counts
    out["wasm.compiler.emitted_instrs"] = per_pass(
        compiler.get("emitted_instrs", 0))
    out["cpu.decode.ops"] = per_pass(layer("cpu.decode").counts.get("ops", 0))

    machine = layer("cpu.machine")
    c = machine.counts
    executed = c.get("instrs", 0) + c.get("spec_instrs", 0)
    out["cpu.machine.instrs"] = per_pass(executed)
    out["cpu.machine.ns_per_instr"] = 1e9 * _ratio(machine.self_s, executed)
    out["cpu.machine.spec_ratio"] = _ratio(c.get("spec_instrs", 0), executed)
    out["cpu.machine.ipc"] = _ratio(c.get("instrs", 0), c.get("cycles", 0))
    out["cpu.cache.l1d_miss_ratio"] = _ratio(
        c.get("l1d_misses", 0), c.get("l1d_hits", 0) + c.get("l1d_misses", 0))
    out["cpu.cache.l1i_miss_ratio"] = _ratio(
        c.get("l1i_misses", 0), c.get("l1i_hits", 0) + c.get("l1i_misses", 0))
    out["cpu.tlb.miss_ratio"] = _ratio(
        c.get("tlb_misses", 0), c.get("tlb_hits", 0) + c.get("tlb_misses", 0))
    out["cpu.predictors.mispredict_ratio"] = _ratio(
        c.get("mispredicts", 0), c.get("branches", 0))

    serving = layer("runtime.serving")
    s = serving.counts
    runs = s.get("runs", 0)
    out["runtime.serving.events"] = per_pass(s.get("events", 0))
    out["runtime.serving.us_per_event"] = 1e6 * _ratio(serving.self_s,
                                                       s.get("events", 0))
    out["runtime.serving.shed_ratio"] = _ratio(s.get("shed", 0),
                                               s.get("requests", 0))
    out["runtime.serving.utilization"] = _ratio(s.get("utilization", 0), runs)
    out["runtime.serving.p99_cycles"] = _ratio(s.get("p99_cycles", 0), runs)

    shed = layer("runtime.supervisor")
    out["runtime.supervisor.shed_self_s"] = per_pass(shed.self_s)
    out["runtime.supervisor.shed_calls"] = per_pass(shed.calls)
    out["runtime.supervisor.shed_candidates_per_call"] = _ratio(
        shed.counts.get("candidates", 0), shed.calls)
    out["runtime.supervisor.shed_yield"] = _ratio(
        shed.counts.get("victims", 0), shed.counts.get("candidates", 0))

    pool, init = layer("runtime.pool"), layer("runtime.pool.init")
    out["runtime.pool.setup_s"] = per_pass(init.inclusive_s)
    out["runtime.pool.self_s"] = per_pass(pool.self_s + init.self_s)
    out["runtime.pool.calls"] = per_pass(pool.calls + init.calls)
    out["runtime.pool.steals"] = per_pass(s.get("steals", 0))

    out["paper.err_pct"] = paper_err_pct or 0.0
    self_total = sum(acc.self_s for acc in L.values())
    out["trace.pass_s"] = pass_s
    out["trace.unattributed_s"] = pass_s - per_pass(self_total)
    out["trace.overhead_pct"] = 100.0 * _ratio(
        median_pass_s - untraced_pass_s, untraced_pass_s)
    return {name: out[name] for name in PER_LAYER_UNITS}
