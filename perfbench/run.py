"""Benchmark for coxlinks: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sums|census|oracles --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each repetition of the workload runs in a fresh interpreter
(``worker.py``), back to back, for about ``--seconds``: another one starts
while at least half of it fits in the time left, and at least three run.  Set-up is measured by those repetitions
and by extra set-up-only starts, and every metric is the median over the
repetitions.  With ``--trace 1`` the repetitions alternate between untraced
and traced; the traced ones give the per-layer metrics, and the difference
of the two walls is ``trace.overhead_s``.

Every output is checked (see ``worker.py``), and the files of the checkout
are hashed before and after the run: a run that changes one is incorrect.
Byte code is cached under ``.bench_build/`` so that importing does not write
into ``src/``.  A human-readable table of the metrics precedes the last
line, which is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status 2 means there was nothing to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
MIN_REPETITIONS = 3
TIME_LIMIT_S = 170
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_op_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(Exception):
    """The benchmark could not measure: a worker crashed or ran out of time."""


def snapshot(root: str) -> dict:
    """Digest of every file under ``root`` except build output and ``.git``."""
    digests = {}
    for directory, subdirs, files in os.walk(root):
        if directory == root:
            subdirs[:] = [d for d in subdirs if d not in (BUILD, ".git")]
        for name in files:
            path = os.path.join(directory, name)
            if os.path.islink(path):
                digests[path] = "link:" + os.readlink(path)
                continue
            with open(path, "rb") as handle:
                digests[path] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def start_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(ROOT, BUILD, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cached byte code, as users have
    command = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} worker ran past the time limit") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions, alternating untraced and traced ones when tracing."""
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = [start_worker(workload, seed, deadline, "--setup-only")
              for _ in range(SETUP_PROBES)]
    kinds = itertools.cycle((False, True) if trace else (False,))
    repetitions = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        traced = next(kinds)
        flags = ("--trace",) if traced else ()
        repetitions.append(dict(start_worker(workload, seed, deadline, *flags),
                                traced=traced))
        now = time.monotonic()
        if len(repetitions) >= MIN_REPETITIONS and now + (now - started) / 2 > begin + seconds:
            return probes, repetitions


def median_of(records: list, key: str) -> float:
    return statistics.median(record[key] for record in records)


def summarize(probes: list, repetitions: list, trace: bool) -> tuple:
    """End-to-end metrics, and per-layer ones (``None`` when absent)."""
    plain = [r for r in repetitions if not r["traced"]]
    end_to_end = {
        "setup_s": median_of(probes + repetitions, "setup_s"),
        "wall_s": median_of(plain, "wall_s"),
        "slowest_op_s": median_of(plain, "slowest_op_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    if not trace:
        return end_to_end, {}
    traced = [r for r in repetitions if r["traced"]]
    layers = {}
    for name, entry in traced[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced]
        value = None if None in values else statistics.median(values)
        layers[name] = {"value": value, "unit": entry["unit"]}
    layers["trace.overhead_s"] = {
        "value": median_of(traced, "wall_s") - end_to_end["wall_s"], "unit": "s"}
    return end_to_end, layers


def main(argv=None) -> int:  # noqa: ANN001
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sums", "census", "oracles"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coxlinks", "__init__.py")):
        print(f"perfbench: no coxlinks package under {ROOT}/src; run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        return 2
    before = snapshot(ROOT)
    try:
        probes, repetitions = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    after = snapshot(ROOT)
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))

    attempted = sum(r["attempted"] for r in repetitions)
    failed = sum(r["failed"] for r in repetitions)
    end_to_end, layers = summarize(probes, repetitions, bool(args.trace))
    layers_shown = dict(layers)
    if args.trace:
        layers["error_rate"] = {"value": failed / attempted, "unit": "ratio"}

    for record in repetitions:
        for failure in record["failures"]:
            print(f"FAILED {failure}")
    for path in changed:
        print(f"CHANGED {os.path.relpath(path, ROOT)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(repetitions)} "
          f"repetitions, {len(probes)} set-up probes, "
          f"{sum(r['warnings'] for r in repetitions)} warnings")
    for record in repetitions:
        kind = "traced" if record["traced"] else "untraced"
        print(f"  {kind} repetition: wall {record['wall_s']:.3f} s, slowest "
              f"{record['slowest_op']} {record['slowest_op_s']:.3f} s")
    print(f"  {'error_rate':32} {failed / attempted:14.6g} ratio")
    for name, unit in END_TO_END:
        print(f"  {name:32} {end_to_end[name]:14.6g} {unit}")
    for name, entry in layers_shown.items():
        value = "absent" if entry["value"] is None else f"{entry['value']:14.6g}"
        print(f"  {name:32} {value:>14} {entry['unit']}")

    if args.trace:
        metrics = {name: {"value": 0 if e["value"] is None else e["value"],
                          "unit": e["unit"]} for name, e in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0 and not changed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
