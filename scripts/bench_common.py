"""Shared JSON envelope for the ``scripts/bench_*`` family.

Every benchmark writes the same top-level shape so CI and tooling can
consume any ``BENCH_*.json`` uniformly::

    {
      "schema_version": 1,
      "bench": "<name>",
      "python": "3.x.y",
      "wall_s": 4.7,      # script wall-clock up to the envelope
      "host": {"platform": "...", "cpu_count": 2},
      "config":  {...},   # the knobs that shaped the run
      "results": {...},   # the measurements
      "gates": {          # named pass/fail criteria with detail
        "<gate>": {"passed": true, ...}
      },
      "ok": true          # conjunction of every gate
    }

Benchmarks keep their own ``config``/``results`` vocabulary; only the
envelope — and the rule that anything a script exits nonzero over must
appear as a gate — is shared.  ``wall_s`` and ``host`` say how long the
run took and where; they sit outside ``config``/``results``/``gates``
so those stay comparable across hosts and changes.
"""

import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict

SCHEMA_VERSION = 1

#: Scripts import this module first thing, so ``wall_s`` spans the run.
_STARTED = time.perf_counter()


def gate(passed, **detail) -> Dict:
    """One named pass/fail criterion with its supporting numbers."""
    return {"passed": bool(passed), **detail}


def _backend_defaults() -> Dict:
    """The process-wide execution/timing backends at envelope time.

    Every result in a ``BENCH_*.json`` was produced by *some* engine
    and timing model; a payload that does not say which is ambiguous
    the moment a second backend exists.  Benchmarks that sweep
    backends override these keys in their own ``config``."""
    try:
        from repro.cpu import machine
    except ImportError:
        return {"engine": None, "timing": None}
    return {"engine": machine.DEFAULT_ENGINE,
            "timing": machine.timing_seam.DEFAULT_TIMING}


def envelope(bench: str, config: Dict, results: Dict,
             gates: Dict[str, Dict]) -> Dict:
    config = dict(config)
    for key, value in _backend_defaults().items():
        config.setdefault(key, value)
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "python": sys.version.split()[0],
        "wall_s": round(time.perf_counter() - _STARTED, 3),
        "host": {"platform": platform.platform(),
                 "cpu_count": os.cpu_count()},
        "config": config,
        "results": results,
        "gates": gates,
        "ok": all(g["passed"] for g in gates.values()),
    }


def write_envelope(path, bench: str, config: Dict, results: Dict,
                   gates: Dict[str, Dict]) -> Dict:
    """Assemble, write, and summarize one benchmark payload.

    Returns the payload; ``payload["ok"]`` is the process exit gate.
    """
    payload = envelope(bench, config, results, gates)
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for name, g in gates.items():
        detail = ", ".join(f"{k}={v}" for k, v in g.items()
                           if k != "passed")
        print(f"gate {name:28s} {'OK  ' if g['passed'] else 'FAIL'} "
              f"{detail}")
    print(f"wrote {path.resolve()}")
    return payload
