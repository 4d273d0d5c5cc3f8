"""The benchmark's four workloads: inputs, one timed pass, and its checks.

A workload is built once from a seed (:func:`build`) and then run pass
after pass (:func:`run_pass`).  One *operation* is one cell: a
(module, strategy) run on a fresh ``WasmRuntime`` for the CPU
workloads, or one (scheme) run of a fresh ``ServingSimulator`` for the
serving workloads.  A cell that fails any check counts as failed; it is
never dropped.

Only public entry points of the program are used here, so the traced
run (:mod:`layers`) sees exactly the calls a user's run makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

from repro.runtime.serving import ServingConfig, ServingSimulator
from repro.runtime.supervisor import Priority, Request
from repro.wasm import WasmRuntime, make_strategy
from repro.wasm import ir
from repro.wasm.interp import Interpreter
from repro.workloads import (
    COMPRESSION_ROUNDS,
    RESOLUTIONS,
    SIGHTGLASS_BENCHMARKS,
    SPEC_BENCHMARKS,
    graphite_reflow,
    jpeg_decode,
)

WORKLOADS = ("cpu-figures", "cpu-ooo-alu", "serve-steady", "serve-overload")

#: Every CPU module runs under each of these; the first is the
#: reference the others must agree with.
CPU_STRATEGIES = ("guard-pages", "bounds-check", "hfi")
MAX_INSTRUCTIONS = 30_000_000

#: The node of both serving workloads: 16 cores x 80 pooled slots.
SERVE_SCHEMES = ("hfi", "guard-pages", "mpk")
SERVE_CORES = 16
SERVE_SLOTS_PER_SHARD = 80
SERVE_TENANTS = 8
SERVE_HIGH = 0.08
SERVE_LOW = 0.20
SERVICE_CYCLES = (20_000, 120_000)
#: (offered load label, requests per scheme).  Overload reaches the
#: 1280 in-flight bound after ~3400 arrivals; the rest exercise shedding.
SERVE_POINTS = {"serve-steady": (0.8, 12_000),
                "serve-overload": (1.6, 6_000)}

#: Paper values for ``paper_err_pct``: Fig. 3 geomeans over SPEC and
#: the §6.2 font reflow, each normalized to guard pages.
PAPER_RATIOS = {"fig3_bounds_geomean": 1.347,
                "fig3_hfi_geomean": 0.9685,
                "font_bounds": 2022 / 1823,
                "font_hfi": 1677 / 1823}

#: Shape of each generated register-only kernel (cpu-ooo-alu).  The
#: seed picks operators, operands and constants, never the shape, so
#: every seed executes the same number of committed instructions.
ALU_KERNELS = 4
#: With ``acc``, ``lcg`` and two loop counters every local stays in a
#: register under all three strategies (bounds-check leaves 8).
ALU_LOCALS = ("x0", "x1", "x2", "x3")
ALU_OPS_PER_ITER = 10
ALU_OUTER, ALU_INNER = 26, 48
_MASK32 = 0xFFFF_FFFF


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything one workload needs, built once before the first pass."""

    workload: str
    seed: int
    #: CPU workloads: (module key, module) in canonical order.
    modules: List[Tuple[str, ir.Module]] = field(default_factory=list)
    #: CPU workloads: (module key, strategy) in run order.
    cells: List[Tuple[str, str]] = field(default_factory=list)
    timing: Optional[str] = None
    #: Serving workloads.
    requests: List[Request] = field(default_factory=list)
    load_label: float = 0.0
    load_measured: float = 0.0
    config: Optional[ServingConfig] = None
    #: CPU workloads: the reference interpreter's result per module.
    oracle: Dict[str, int] = field(default_factory=dict)


def alu_kernel(rng: random.Random, index: int) -> ir.Module:
    """A register-only loop nest: seeded ALU ops plus a branch on a
    linear congruential generator, so every seed mispredicts alike."""
    B = ir.BinaryOp
    ops = (B.ADD, B.SUB, B.XOR, B.OR, B.AND, B.MUL, B.SHL, B.SHR)
    body: List = [ir.Const(name, rng.randrange(1, 1 << 31))
                  for name in ALU_LOCALS]
    body += [ir.Const("acc", 0), ir.Const("lcg", rng.randrange(1 << 31))]
    inner: List = []
    for _ in range(ALU_OPS_PER_ITER):
        op = rng.choice(ops)
        dst, a = rng.choice(ALU_LOCALS), rng.choice(ALU_LOCALS)
        if op in (B.SHL, B.SHR):
            b: ir.Value = rng.randrange(1, 17)
        elif rng.random() < 0.3:
            b = rng.randrange(1, 1 << 20)
        else:
            b = rng.choice(ALU_LOCALS)
        inner.append(ir.BinOp(op, dst, a, b))
        inner.append(ir.BinOp(B.AND, dst, dst, _MASK32))
    inner += [
        ir.BinOp(B.MUL, "lcg", "lcg", 1103515245),
        ir.BinOp(B.ADD, "lcg", "lcg", 12345),
        ir.BinOp(B.AND, "lcg", "lcg", _MASK32),
        # taken one time in four, at random
        ir.If("lcg", ir.Cmp.LTU, 1 << 30,
              [ir.BinOp(B.ADD, "acc", "acc", rng.choice(ALU_LOCALS))],
              [ir.BinOp(B.XOR, "acc", "acc", rng.choice(ALU_LOCALS))]),
        ir.BinOp(B.AND, "acc", "acc", _MASK32),
    ]
    body.append(ir.Loop(ALU_OUTER, [ir.Loop(ALU_INNER, inner)]))
    body.append(ir.StoreGlobal("result", "acc"))
    return ir.Module(f"alu{index}", [ir.Function("main", body)],
                     globals=["result"])


def serving_requests(n: int, load: float, seed: int,
                     cores: int = SERVE_CORES) -> List[Request]:
    """Seeded open-loop tenant traffic whose offered load is ``load``.

    Poisson gaps are drawn, then rescaled so that :func:`offered_load`
    of the stream equals ``load`` (up to integer-cycle rounding).
    """
    rng = random.Random(seed)
    lo, hi = SERVICE_CYCLES
    service = [rng.randrange(lo, hi + 1) for _ in range(n)]
    raw = [rng.expovariate(1.0) for _ in range(n)]
    target_gap = (sum(service) / n) / (load * cores)
    # arrivals 2..n define the measured mean gap; the first arrival is
    # offset by its own (scaled) gap like every other
    scale = target_gap / (sum(raw[1:]) / (n - 1))
    requests: List[Request] = []
    clock = 0
    for index in range(n):
        clock += max(1, round(raw[index] * scale))
        draw = rng.random()
        priority = (Priority.HIGH if draw < SERVE_HIGH
                    else Priority.LOW if draw < SERVE_HIGH + SERVE_LOW
                    else Priority.NORMAL)
        requests.append(Request(
            index=index, tenant=f"tenant-{rng.randrange(SERVE_TENANTS)}",
            service_cycles=service[index], priority=priority,
            arrival_cycle=clock))
    return requests


def offered_load(requests: Sequence[Request],
                 cores: int = SERVE_CORES) -> float:
    """Mean bare service time over (mean interarrival gap x cores)."""
    n = len(requests)
    mean_service = sum(r.service_cycles for r in requests) / n
    mean_gap = ((requests[-1].arrival_cycle - requests[0].arrival_cycle)
                / (n - 1))
    return mean_service / (mean_gap * cores)


def build(workload: str, seed: int) -> Inputs:
    """Build every input of ``workload`` in a fixed order."""
    inputs = Inputs(workload=workload, seed=seed)
    if workload == "cpu-figures":
        # registry order: builders keep module-global temp counters
        for name, builder in SPEC_BENCHMARKS.items():
            inputs.modules.append((name, builder(1)))
        inputs.modules.append(("font", graphite_reflow()))
        for compression in COMPRESSION_ROUNDS:
            for resolution in RESOLUTIONS:
                inputs.modules.append((
                    f"jpeg-{resolution}-{compression}",
                    jpeg_decode(resolution, compression)))
    elif workload == "cpu-ooo-alu":
        inputs.timing = "ooo"
        rng = random.Random(seed)
        for i in range(ALU_KERNELS):
            inputs.modules.append((f"alu{i}", alu_kernel(rng, i)))
        inputs.modules.append(("fib2", SIGHTGLASS_BENCHMARKS["fib2"](1)))
    elif workload in SERVE_POINTS:
        load, n = SERVE_POINTS[workload]
        inputs.requests = serving_requests(n, load, seed)
        inputs.load_label = load
        inputs.load_measured = offered_load(inputs.requests)
        inputs.config = ServingConfig(
            n_cores=SERVE_CORES, slots_per_shard=SERVE_SLOTS_PER_SHARD,
            max_inflight=SERVE_CORES * SERVE_SLOTS_PER_SHARD)
        return inputs
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    inputs.cells = [(key, strategy) for key, _ in inputs.modules
                    for strategy in CPU_STRATEGIES]
    return inputs


def compute_oracle(inputs: Inputs) -> None:
    """Reference-interpreter result of every CPU module (untimed)."""
    for key, module in inputs.modules:
        result = Interpreter(module).run()
        inputs.oracle[key] = result.globals[module.globals[0]]


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    key: str
    strategy: str
    reason: str
    value: int
    stats: dict


@dataclass
class PassResult:
    wall_s: float
    sim_s: float            # host time inside WasmRuntime.run / ServingSimulator.run
    sim_ops: int            # simulated instructions or requests
    attempted: int
    failed: int
    digest: str
    instantiate_s: float = 0.0
    paper_err_pct: Optional[float] = None
    shed_ratio: float = 0.0
    #: Host slowness during the pass (:attr:`HostSpeed.factor`).
    speed: float = 1.0

    @property
    def sim_kops_per_s(self) -> float:
        return self.sim_ops / self.sim_s / 1e3

    @property
    def ref_wall_s(self) -> float:
        """``wall_s`` in reference seconds."""
        return self.wall_s / self.speed

    @property
    def ref_sim_kops_per_s(self) -> float:
        """``sim_kops_per_s`` per reference second."""
        return self.sim_kops_per_s * self.speed


def cpu_failures(results: Sequence[CellResult],
                 oracle: Dict[str, int]) -> List[CellResult]:
    """Cells that did not halt, disagree with the interpreter, or
    disagree with the reference strategy on the same module."""
    reference = {r.key: r.value for r in results
                 if r.strategy == CPU_STRATEGIES[0]}
    return [r for r in results
            if r.reason != "hlt" or r.value != oracle.get(r.key)
            or r.value != reference.get(r.key)]


def serve_failures(metrics: Sequence) -> List:
    """Serving runs that leave a request unaccounted for."""
    return [m for m in metrics
            if m.succeeded + m.failed + m.shed != m.requests]


def digest(parts) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def paper_error_pct(cycles: Dict[Tuple[str, str], int]) -> float:
    """Mean relative error (%) of the four normalized runtimes."""
    def ratio(key, strategy):
        return cycles[key, strategy] / cycles[key, "guard-pages"]

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    spec = list(SPEC_BENCHMARKS)
    sim = {"fig3_bounds_geomean": geomean(
               [ratio(k, "bounds-check") for k in spec]),
           "fig3_hfi_geomean": geomean([ratio(k, "hfi") for k in spec]),
           "font_bounds": ratio("font", "bounds-check"),
           "font_hfi": ratio("font", "hfi")}
    errors = [abs(sim[k] - paper) / paper
              for k, paper in PAPER_RATIOS.items()]
    return 100.0 * sum(errors) / len(errors)


def run_pass(inputs: Inputs, speed: HostSpeed) -> PassResult:
    """One pass over every cell.  ``speed`` runs the calibration kernel
    between cells; its time is left out of ``wall_s``."""
    speed.reset()
    if inputs.requests:
        result = _serve_pass(inputs, speed)
    else:
        result = _cpu_pass(inputs, speed)
    result.speed = speed.factor
    return result


def _cpu_pass(inputs: Inputs, speed: HostSpeed) -> PassResult:
    modules = dict(inputs.modules)
    results: List[CellResult] = []
    sim_s = instantiate_s = 0.0
    sim_ops = 0
    start = time.perf_counter()
    for key, strategy in inputs.cells:
        module = modules[key]
        t0 = time.perf_counter()
        runtime = WasmRuntime(timing=inputs.timing)
        instance = runtime.instantiate(module, make_strategy(strategy))
        t1 = time.perf_counter()
        result = runtime.run(instance, MAX_INSTRUCTIONS)
        t2 = time.perf_counter()
        stats = result.stats
        sim_ops += stats.instructions + stats.speculative_instructions
        value = runtime.space.read(instance.layout.globals_base)
        instantiate_s += t1 - t0
        sim_s += t2 - t1
        results.append(CellResult(key, strategy, result.reason, value,
                                  dataclasses.asdict(stats)))
        speed.after_work(time.perf_counter() - t0)
    wall = time.perf_counter() - start - speed.calib_s
    failed = cpu_failures(results, inputs.oracle)
    ordered = sorted(results, key=lambda r: (r.key, r.strategy))
    cycles = {(r.key, r.strategy): r.stats["cycles"] for r in results}
    return PassResult(
        wall_s=wall, sim_s=sim_s, sim_ops=sim_ops,
        attempted=len(results), failed=len(failed),
        digest=digest([[r.key, r.strategy, r.reason, r.value, r.stats]
                       for r in ordered]),
        instantiate_s=instantiate_s,
        paper_err_pct=(paper_error_pct(cycles)
                       if inputs.workload == "cpu-figures" else None))


def _serve_pass(inputs: Inputs, speed: HostSpeed) -> PassResult:
    runs = []
    sim_s = 0.0
    start = time.perf_counter()
    for scheme in SERVE_SCHEMES:
        t0 = time.perf_counter()
        simulator = ServingSimulator(scheme, inputs.config,
                                     seed=inputs.seed)
        t1 = time.perf_counter()
        runs.append(simulator.run(inputs.requests))
        t2 = time.perf_counter()
        sim_s += t2 - t1
        speed.after_work(t2 - t0)
    wall = time.perf_counter() - start - speed.calib_s
    failed = serve_failures(runs)
    requests = sum(m.requests for m in runs)
    return PassResult(
        wall_s=wall, sim_s=sim_s, sim_ops=requests,
        attempted=len(runs), failed=len(failed),
        digest=digest([[m.scheme, m.digest()] for m in runs]),
        shed_ratio=sum(m.shed for m in runs) / requests)
