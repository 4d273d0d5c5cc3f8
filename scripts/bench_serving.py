#!/usr/bin/env python
"""Tail latency vs offered load: HFI vs guard pages vs MPK.

Drives the discrete-event serving simulator
(``repro.runtime.serving``) at escalating open-loop offered loads —
0.5x, 0.8x, 0.95x, and a bursty 1.2x of node capacity — over a
16-core node whose cores each own an 80-slot pool shard (1280 pooled
instances), and reports sustained goodput plus p50/p99/p999 latency
per isolation scheme.  Each scheme pays its *measured* costs: HFI's
serialized zero-cost-call round trip with batched teardown,
guard-pages' per-request madvise teardown, MPK's wrpkru round trip.

Gates:

1. **Accounting**: every offered request ends in exactly one of
   succeeded/failed/shed at every load point.
2. **Scale**: the overload point drives at least 1000 concurrent
   in-flight sandboxes at peak.
3. **The paper's shape**: at the highest load HFI's goodput is at
   least that of guard pages (batched teardown must not lose).

Writes ``BENCH_serving.json`` (the shared bench envelope) at the repo
root.

Run:  python scripts/bench_serving.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from bench_common import gate, write_envelope
from repro.runtime import (
    SERVING_SCHEMES,
    ServingConfig,
    arrival_process,
    build_requests,
    simulate_serving,
)

SEED = 2023
REQUESTS = 12_000
CORES = 16
SLOTS_PER_SHARD = 80
SERVICE_CYCLES = (20_000, 120_000)
#: (offered load multiplier, arrival process); load is relative to
#: ideal capacity (bare service time, no protection overheads), so
#: every scheme sees the IDENTICAL request stream at each point — the
#: paper's identical-offered-load methodology.
LOAD_POINTS = ((0.5, "poisson"), (0.8, "poisson"), (0.95, "poisson"),
               (1.2, "mmpp"), (1.6, "poisson"))
PEAK_INFLIGHT_FLOOR = 1000


def shared_workload(load, arrival):
    """One request stream per load point, shared by every scheme."""
    mean_service = sum(SERVICE_CYCLES) / 2.0
    process = arrival_process(arrival, mean_service / (load * CORES), SEED)
    return build_requests(process, REQUESTS, seed=SEED,
                          service_cycles=SERVICE_CYCLES)


def main():
    config = ServingConfig(n_cores=CORES, slots_per_shard=SLOTS_PER_SHARD,
                           max_inflight=CORES * SLOTS_PER_SHARD)
    results = {"schemes": {}}
    all_accounted = True
    peak_seen = 0
    goodput_at_peak = {}
    shed_at_peak = {}
    workloads = {point: shared_workload(*point) for point in LOAD_POINTS}
    for scheme in SERVING_SCHEMES:
        rows = []
        for load, arrival in LOAD_POINTS:
            metrics = simulate_serving(
                scheme, seed=SEED, config=config,
                requests=workloads[(load, arrival)])
            metrics.arrival = arrival
            all_accounted = all_accounted and metrics.accounted
            peak_seen = max(peak_seen, metrics.peak_inflight)
            if (load, arrival) == LOAD_POINTS[-1]:
                goodput_at_peak[scheme] = metrics.goodput_rps
                shed_at_peak[scheme] = metrics.shed
            rows.append({
                "load": load,
                "arrival": arrival,
                "goodput_rps": round(metrics.goodput_rps, 1),
                "throughput_rps": round(metrics.throughput_rps, 1),
                "p50_ms": round(metrics.p50_ms, 4),
                "p99_ms": round(metrics.p99_ms, 4),
                "p999_ms": round(metrics.p999_ms, 4),
                "p50_cycles": metrics.p50_cycles,
                "p99_cycles": metrics.p99_cycles,
                "p999_cycles": metrics.p999_cycles,
                "shed": metrics.shed,
                "failed": metrics.failed,
                "steals": metrics.steals,
                "peak_inflight": metrics.peak_inflight,
                "utilization": round(metrics.utilization, 4),
                "accounted": metrics.accounted,
            })
            print(f"{scheme:12s} load={load:4.2f} {arrival:7s}  "
                  f"goodput={metrics.goodput_rps:11,.0f} req/s  "
                  f"p50={metrics.p50_ms:6.3f}ms  "
                  f"p99={metrics.p99_ms:6.3f}ms  "
                  f"p999={metrics.p999_ms:6.3f}ms  "
                  f"shed={metrics.shed:5d}  "
                  f"peak={metrics.peak_inflight:4d}")
        results["schemes"][scheme] = rows

    results["peak_inflight_seen"] = peak_seen
    print()
    payload = write_envelope(
        os.path.join(os.path.dirname(__file__), "..",
                     "BENCH_serving.json"),
        "serving",
        config={"seed": SEED, "requests_per_point": REQUESTS,
                "cores": CORES, "slots_per_shard": SLOTS_PER_SHARD,
                "load_points": [{"load": load, "arrival": arrival}
                                for load, arrival in LOAD_POINTS]},
        results=results,
        gates={
            "accounting": gate(all_accounted),
            "scale": gate(peak_seen >= PEAK_INFLIGHT_FLOOR,
                          floor=PEAK_INFLIGHT_FLOOR, peak=peak_seen),
            "hfi_wins_at_overload": gate(
                goodput_at_peak["hfi"] >= goodput_at_peak["guard-pages"]
                and shed_at_peak["hfi"] <= shed_at_peak["guard-pages"],
                goodput_hfi=round(goodput_at_peak["hfi"]),
                goodput_guard_pages=round(
                    goodput_at_peak["guard-pages"])),
        })
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
