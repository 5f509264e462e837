"""Write pins.json: digests of the canonical outputs the benchmark checks.

    python3 perfbench/make_pins.py

Covers every pinned operation any seed can draw (all n = 3 and n = 4 sums
with k1 <= 3, every Coxeter braid the oracles workload can draw, the census
and the two-strand values).  Run it only on a commit whose outputs are
trusted; the committed pins were written at the commit that introduced the
benchmark, and a change that alters a canonical output fails the benchmark
until the change is shown to be right and the pins are rewritten.
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

import worker  # noqa: E402 - after turning off byte-code writes

if __name__ == "__main__":
    pins = {}
    for op in worker.pin_space():
        pins[op.name] = worker.digest(op.canon(op.run()))
    with open(worker.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(pins)} pins to {worker.PINS}")
