"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import cells  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    recorder = layers.Recorder(clock)

    def leaf():
        clock.now += 2.0

    inner = recorder.wrap("inner", leaf)

    def outer_body():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 0.5

    outer = recorder.wrap("outer", outer_body)
    outer()
    L = recorder.layers
    assert L["inner"].calls == 2
    assert L["inner"].self_s == pytest.approx(4.0)
    assert L["outer"].self_s == pytest.approx(1.5)
    assert L["outer"].inclusive_s == pytest.approx(5.5)
    # the self times of all layers sum to the outermost span
    assert sum(a.self_s for a in L.values()) == pytest.approx(5.5)


def test_same_layer_nesting_counts_inclusive_once():
    clock = FakeClock()
    recorder = layers.Recorder(clock)

    def check():
        clock.now += 1.0

    wrapped_check = recorder.wrap("space", check)

    def read():
        clock.now += 0.25
        wrapped_check()

    wrapped_read = recorder.wrap("space", read)
    wrapped_read()
    acc = recorder.layers["space"]
    assert acc.calls == 2
    assert acc.self_s == pytest.approx(1.25)
    assert acc.inclusive_s == pytest.approx(1.25)


def test_per_layer_sums_to_pass_time():
    clock = FakeClock()
    recorder = layers.Recorder(clock)
    work = recorder.wrap("cpu.machine", lambda: setattr(
        clock, "now", clock.now + 3.0))
    work()
    work()
    # two passes of 4 s each: 3 s inside the wrapped layer, 1 s outside
    metrics = layers.per_layer(recorder, passes=2, pass_s=4.0,
                               median_pass_s=4.0, untraced_pass_s=3.2,
                               paper_err_pct=None)
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    self_sum = sum(v for k, v in metrics.items()
                   if k.endswith("self_s") and not k.startswith("trace"))
    assert self_sum == pytest.approx(3.0)
    assert (self_sum + metrics["trace.unattributed_s"]
            == pytest.approx(metrics["trace.pass_s"]))
    assert metrics["trace.overhead_pct"] == pytest.approx(25.0)


@pytest.mark.parametrize("load", [0.8, 1.6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_offered_load_matches_label(load, seed):
    requests = cells.serving_requests(4000, load, seed)
    assert cells.offered_load(requests) == pytest.approx(load, rel=1e-3)
    lo, hi = cells.SERVICE_CYCLES
    assert all(lo <= r.service_cycles <= hi for r in requests)
    arrivals = [r.arrival_cycle for r in requests]
    assert arrivals == sorted(arrivals)


def test_priority_mix():
    requests = cells.serving_requests(20_000, 0.8, 7)
    share = {p: sum(r.priority == p for r in requests) / len(requests)
             for p in {r.priority for r in requests}}
    assert share[cells.Priority.HIGH] == pytest.approx(0.08, abs=0.01)
    assert share[cells.Priority.LOW] == pytest.approx(0.20, abs=0.01)


def _cell(key, strategy, value, reason="hlt"):
    return cells.CellResult(key, strategy, reason, value, {})


def test_wrong_result_counts_as_failed():
    oracle = {"m": 42}
    good = [_cell("m", s, 42) for s in cells.CPU_STRATEGIES]
    assert cells.cpu_failures(good, oracle) == []
    wrong = good[:2] + [_cell("m", cells.CPU_STRATEGIES[2], 41)]
    assert [c.strategy for c in cells.cpu_failures(wrong, oracle)] == [
        cells.CPU_STRATEGIES[2]]


def test_no_halt_and_strategy_disagreement_fail():
    oracle = {"m": 42}
    stuck = [_cell("m", cells.CPU_STRATEGIES[0], 42),
             _cell("m", cells.CPU_STRATEGIES[1], 42, "instruction_limit")]
    assert len(cells.cpu_failures(stuck, oracle)) == 1
    # the reference strategy itself is wrong: every cell disagrees
    # with either the oracle or the reference
    skewed = [_cell("m", cells.CPU_STRATEGIES[0], 1),
              _cell("m", cells.CPU_STRATEGIES[1], 42)]
    assert len(cells.cpu_failures(skewed, oracle)) == 2


def test_unaccounted_serving_run_fails():
    class Metrics:
        def __init__(self, succeeded, failed, shed):
            self.requests = 10
            self.succeeded, self.failed, self.shed = succeeded, failed, shed

    runs = [Metrics(7, 1, 2), Metrics(7, 1, 1)]
    assert cells.serve_failures(runs) == [runs[1]]


def _walk(ops):
    for op in ops:
        yield op
        if isinstance(op, cells.ir.Loop):
            yield from _walk(op.body)
        elif isinstance(op, cells.ir.If):
            yield from _walk(op.then_body + op.else_body)


def test_alu_kernels_are_seeded_register_only_and_fixed_shape():
    from repro.wasm.interp import Interpreter

    a = cells.build("cpu-ooo-alu", 5)
    b = cells.build("cpu-ooo-alu", 5)
    c = cells.build("cpu-ooo-alu", 6)
    assert repr(a.modules) == repr(b.modules)
    assert repr(a.modules) != repr(c.modules)
    assert a.cells == b.cells
    ops = {}
    for inputs in (a, c):
        module = inputs.modules[0][1]
        ops[inputs.seed] = Interpreter(module).run().ops_executed
        assert not any(isinstance(op, (cells.ir.Load, cells.ir.Store))
                       for op in _walk(module.functions[0].body))
    assert ops[5] == ops[6]


def test_paper_error_is_zero_at_paper_ratios():
    cycles = {}
    for key in list(cells.SPEC_BENCHMARKS) + ["font"]:
        cycles[key, "guard-pages"] = 1000
    for key in cells.SPEC_BENCHMARKS:
        cycles[key, "bounds-check"] = 1347
        cycles[key, "hfi"] = 968.5
    cycles["font", "bounds-check"] = 1000 * 2022 / 1823
    cycles["font", "hfi"] = 1000 * 1677 / 1823
    assert cells.paper_error_pct(cycles) == pytest.approx(0.0, abs=1e-9)



def test_host_speed_keeps_share_and_scales_to_reference():
    clock = FakeClock()
    chunk_s = 0.25      # a power of two, so the sums below are exact

    def kernel():
        clock.now += chunk_s

    speed = hostspeed.HostSpeed(share=0.1, clock=clock, kernel=kernel)
    speed.after_work(100 * chunk_s)
    assert speed.chunks == 10
    speed.after_work(5 * chunk_s)       # tops up to a tenth again
    assert speed.chunks == 11
    assert speed.calib_s == pytest.approx(11 * chunk_s)
    assert speed.factor == pytest.approx(
        chunk_s / hostspeed.REFERENCE_CHUNK_S)
    speed.reset()
    assert (speed.chunks, speed.calib_s, speed.work_s) == (0, 0.0, 0.0)


def test_reference_scaling_of_a_pass():
    result = cells.PassResult(wall_s=3.0, sim_s=2.0, sim_ops=4000,
                              attempted=1, failed=0, digest="", speed=1.5)
    assert result.ref_wall_s == pytest.approx(2.0)
    assert result.sim_kops_per_s == pytest.approx(2.0)
    assert result.ref_sim_kops_per_s == pytest.approx(3.0)


def test_calibration_chunk_allocates_no_container():
    import gc

    hostspeed.chunk()
    gc.collect()
    before = gc.get_count()[0]
    hostspeed.chunk()
    assert gc.get_count()[0] - before < 5
