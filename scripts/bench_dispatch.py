"""Benchmark the execution engines: wall-clock instructions/sec.

Measures the *simulator's own* speed (not simulated cycles) under the
``staged`` and ``blocks`` engines in one invocation, over two suites:

* **dispatch** — dispatch-bound kernels (a synthetic straight-line ALU
  kernel plus the loopy Sightglass/SPEC members) where the staged
  loop's per-instruction toll dominates.  Gated: the blocks engine
  must deliver >= 2.0x aggregate instructions/sec here.
* **mixed** — workloads dominated by engine-independent work
  (speculation windows, syscalls, cache-miss simulation, flat code
  profiles that never warm up).  Reported, not speed-gated: Amdahl
  bounds these near 1x no matter how fast block dispatch gets, and the
  warmup heuristic deliberately refuses to compile code that cannot
  amortize its compile cost.
* **dispatch_ooo** — the dispatch suite again under ``timing="ooo"``,
  where superblocks drive the out-of-order scoreboard.  Reported, not
  speed-gated: the scoreboard's per-instruction work is the same under
  both engines, so it bounds the speedup the way the mixed suite's
  engine-independent work does.

Every suite additionally gates on *fidelity*: simulated cycles and
instruction counts must be bit-identical across engines on every
workload, and ``copy.deepcopy`` must never run while the CPU does.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/bench_dispatch.py

Writes ``BENCH_dispatch_speedup.json`` (the shared bench envelope).
"""

import argparse
import copy
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_common import gate, write_envelope

OUT_DEFAULT = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_dispatch_speedup.json"

ENGINES = ("staged", "blocks")
SPEEDUP_FLOOR = 2.0

#: (suite, benchmark, strategy, scale).  The dispatch suite is the
#: gated one; the mixed suite documents the Amdahl-bounded rest.
DISPATCH_SUITE = [
    ("synthetic", "alu", "guard-pages", 8),
    ("synthetic", "alu", "hfi", 8),
    ("sightglass", "fib2", "guard-pages", 8),
    ("sightglass", "memmove", "hfi", 6),
    ("spec", "429.mcf", "hfi", 4),
]
MIXED_SUITE = [
    ("synthetic", "mem", "hfi", 6),
    ("sightglass", "keccak", "hfi", 6),
    ("sightglass", "xchacha20", "guard-pages", 6),
    ("spec", "400.perlbench", "hfi", 4),
    ("spec", "445.gobmk", "guard-pages", 4),
]


def build_alu_kernel(scale):
    """A hot straight-line ALU loop: the superblock best case."""
    from repro.wasm.ir import (BinOp, BinaryOp, Const, Function, Loop,
                               Module, StoreGlobal)
    ops = [Const("a", 1), Const("b", 2), Const("c", 3), Const("d", 4)]
    chain = []
    for _ in range(4):
        chain += [
            BinOp(BinaryOp.ADD, "a", "a", "b"),
            BinOp(BinaryOp.XOR, "b", "b", "c"),
            BinOp(BinaryOp.ADD, "c", "c", "d"),
            BinOp(BinaryOp.SUB, "d", "d", "a"),
        ]
    ops.append(Loop(scale * 1500, chain))
    ops.append(StoreGlobal("result", "a"))
    return Module("alu-kernel", [Function("main", ops)],
                  globals=["result"])


def build_mem_kernel(scale):
    """A load/store-dense loop: inlined memory fragments + checks."""
    from repro.wasm.ir import (BinOp, BinaryOp, Const, Function, Load,
                               Loop, Module, Store, StoreGlobal)
    ops = [Const("addr", 64), Const("acc", 0)]
    chain = []
    for i in range(4):
        chain += [
            Load("t", "addr", offset=8 * i),
            BinOp(BinaryOp.ADD, "acc", "acc", "t"),
            Store("addr", "acc", offset=8 * i + 256),
        ]
    chain.append(BinOp(BinaryOp.ADD, "addr", "addr", 8))
    ops.append(Loop(scale * 1000, chain))
    ops.append(StoreGlobal("result", "acc"))
    return Module("mem-kernel", [Function("main", ops)],
                  globals=["result"])


SYNTHETIC = {"alu": build_alu_kernel, "mem": build_mem_kernel}


class DeepcopyCounter:
    """Counts copy.deepcopy invocations while active."""

    def __init__(self):
        self.calls = 0
        self._real = copy.deepcopy

    def __enter__(self):
        def counting(x, memo=None):
            self.calls += 1
            return self._real(x, memo)
        copy.deepcopy = counting
        return self

    def __exit__(self, *exc):
        copy.deepcopy = self._real
        return False


def _builder(suite, name):
    if suite == "synthetic":
        return SYNTHETIC[name]
    if suite == "sightglass":
        from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS
        return SIGHTGLASS_BENCHMARKS[name]
    from repro.workloads.spec import SPEC_BENCHMARKS
    return SPEC_BENCHMARKS[name]


def bench_one(suite, name, strategy, scale, repeat, timing):
    """Run one workload under every engine; best-of-``repeat`` each."""
    from repro.wasm import WasmRuntime, make_strategy

    module = _builder(suite, name)(scale)
    engines = {}
    for engine in ENGINES:
        best = None
        executed = cycles = instructions = deepcopies = 0
        for _ in range(repeat):
            runtime = WasmRuntime(engine=engine, timing=timing)
            instance = runtime.instantiate(module, make_strategy(strategy))
            with DeepcopyCounter() as counter:
                t0 = time.perf_counter()
                result = runtime.run(instance,
                                     max_instructions=50_000_000)
                elapsed = time.perf_counter() - t0
            assert result.reason == "hlt", (name, result.reason)
            stats = runtime.cpu.stats
            executed = stats.instructions + stats.speculative_instructions
            instructions = stats.instructions
            cycles = stats.cycles
            deepcopies = counter.calls
            if best is None or elapsed < best:
                best = elapsed
        engines[engine] = {
            "seconds": round(best, 4),
            "ips": round(executed / best),
            "executed_instructions": executed,
            "instructions": instructions,
            "simulated_cycles": cycles,
            "deepcopy_calls": deepcopies,
        }
    base, opt = engines[ENGINES[0]], engines[ENGINES[1]]
    return {
        "workload": f"{suite}:{name}:{strategy}",
        "scale": scale,
        "engines": engines,
        "speedup": round(opt["ips"] / base["ips"], 2),
        "identical": (base["simulated_cycles"] == opt["simulated_cycles"]
                      and base["instructions"] == opt["instructions"]),
        "deepcopy_calls": sum(e["deepcopy_calls"]
                              for e in engines.values()),
    }


def run_suite(label, entries, repeat, timing="inorder"):
    rows = []
    for suite, name, strategy, scale in entries:
        row = bench_one(suite, name, strategy, scale, repeat, timing)
        rows.append(row)
        base, opt = (row["engines"][e] for e in ENGINES)
        print(f"[{label:12s}] {row['workload']:38s} "
              f"{base['ips']:>10,d} -> {opt['ips']:>10,d} instr/s "
              f"({row['speedup']:.2f}x, "
              f"{'identical' if row['identical'] else 'DIVERGED'}, "
              f"deepcopy={row['deepcopy_calls']})", flush=True)
    totals = {}
    for engine in ENGINES:
        instr = sum(r["engines"][engine]["executed_instructions"]
                    for r in rows)
        secs = sum(r["engines"][engine]["seconds"] for r in rows)
        totals[engine] = round(instr / secs)
    aggregate = round(totals[ENGINES[1]] / totals[ENGINES[0]], 2)
    return {"timing": timing, "workloads": rows, "aggregate_ips": totals,
            "aggregate_speedup": aggregate}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_DEFAULT)
    args = parser.parse_args()

    dispatch = run_suite("dispatch", DISPATCH_SUITE, args.repeat)
    mixed = run_suite("mixed", MIXED_SUITE, args.repeat)
    dispatch_ooo = run_suite("dispatch_ooo", DISPATCH_SUITE, args.repeat,
                             timing="ooo")
    all_rows = (dispatch["workloads"] + mixed["workloads"]
                + dispatch_ooo["workloads"])

    print(f"\ndispatch aggregate: {dispatch['aggregate_speedup']}x, "
          f"mixed aggregate: {mixed['aggregate_speedup']}x, "
          f"dispatch_ooo aggregate: "
          f"{dispatch_ooo['aggregate_speedup']}x\n")
    gates = {
        "dispatch_speedup": gate(
            dispatch["aggregate_speedup"] >= SPEEDUP_FLOOR,
            floor=SPEEDUP_FLOOR,
            aggregate=dispatch["aggregate_speedup"]),
        "cycle_identity": gate(
            all(r["identical"] for r in all_rows),
            diverged=[f"{r['workload']}@{suite['timing']}"
                      for suite in (dispatch, mixed, dispatch_ooo)
                      for r in suite["workloads"]
                      if not r["identical"]]),
        "no_deepcopy": gate(
            sum(r["deepcopy_calls"] for r in all_rows) == 0,
            calls=sum(r["deepcopy_calls"] for r in all_rows)),
    }
    payload = write_envelope(
        args.out, "dispatch_speedup",
        config={"engines": list(ENGINES), "engine": None,  # swept
                "timing": None,     # per suite: results.<suite>.timing
                "repeat": args.repeat,
                "speedup_floor": SPEEDUP_FLOOR,
                "dispatch_suite": [list(e) for e in DISPATCH_SUITE],
                "mixed_suite": [list(e) for e in MIXED_SUITE]},
        results={"dispatch": dispatch, "mixed": mixed,
                 "dispatch_ooo": dispatch_ooo},
        gates=gates)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
