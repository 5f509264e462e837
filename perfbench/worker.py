"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload sums --seed 1 [--setup-only] [--trace]

``run.py`` starts one worker per repetition, so every repetition pays for the
import and for the package's lazy caches the way a command-line user does.
The worker imports ``coxlinks`` from ``src/`` of the checkout, builds the
workload's inputs from the seed, runs the operations back to back with
nothing in between, and only then checks every output: against an
independent oracle where one exists, otherwise against a digest of its
canonical string in ``pins.json``.  The last line of its standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import sys
import time
import warnings
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PINS = os.path.join(HERE, "pins.json")
sys.path.insert(0, SRC)

SERIES_WEIGHTS = {"a": 1, "q": 1, "t": 1}
SERIES_DEGREE = 40  # the CLI's default --degree

# The n = 4 draw takes one k from each stratum of |k| = k1 + k2 + k3.  The
# cost of a sum grows with |k|, so stratifying keeps the workload's total
# cost close to the same for every seed while each k can still be drawn.
N4_STRATA = ((0, 1), (2,), (3,), (4,), (5,), (6,), (7,), (8, 9))
CENSUS_N = 7
COXETER_SIZES = range(3, 7)
RANDOM_BRAIDS = 20
TWO_STRAND_INDICES = range(-10, 11)


class Op(NamedTuple):
    """One timed operation and the checks its output must pass.

    ``canon`` maps the output to the canonical string whose digest is pinned
    under ``name`` in ``pins.json``; ``verify`` returns ``None`` or a
    description of the mismatch with an independent oracle.
    """

    name: str
    run: Callable[[], object]
    canon: Optional[Callable[[object], str]] = None
    verify: Optional[Callable[[object], Optional[str]]] = None


def layer(name: str):  # noqa: ANN201
    """The module ``coxlinks.<name>`` (the package re-exports a function
    ``homfly`` that shadows the module of that name)."""
    return importlib.import_module(f"coxlinks.{name}")


def later(module, name: str, *args) -> Callable[[], object]:  # noqa: ANN001
    """Call ``module.name(*args)``, looking the name up at call time.

    The traced run replaces module attributes after set-up; a late lookup is
    what makes the operation go through those wrappers.
    """
    return lambda: getattr(module, name)(*args)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def monotone_ks(n: int, top: int = 3) -> list:
    """Every weakly decreasing ``k`` of length ``n - 1`` with ``k1 <= top``."""
    return sorted(
        tuple(reversed(c))
        for c in itertools.combinations_with_replacement(range(top + 1), n - 1)
    )


def draw_n4(seed: int) -> list:
    rng = random.Random(seed)
    space = monotone_ks(4)
    return [
        rng.choice([k for k in space if sum(k) in sizes]) for sizes in N4_STRATA
    ]


# -- sums --------------------------------------------------------------------


def _sum_text(output) -> str:  # noqa: ANN001
    result, series = output
    return f"{result.value}\n{series}"


def _matches_two_strand(index: int):  # noqa: ANN202
    def verify(output) -> Optional[str]:  # noqa: ANN001
        from coxlinks.twostrand import homology_T2_odd

        result, series = output
        expected = homology_T2_odd(index).value
        if result.value != expected:
            return "value differs from homology_T2_odd"
        if series != expected.truncate_series(SERIES_WEIGHTS, SERIES_DEGREE):
            return "series differs from the expansion of homology_T2_odd"
        return None

    return verify


def sum_op(localization, n: int, k: tuple) -> Op:  # noqa: ANN001
    def run():  # noqa: ANN202
        result = localization.calibrated_superpolynomial(n, k)
        return result, result.truncated(SERIES_DEGREE)

    name = f"superpoly n={n} k={','.join(map(str, k))}"
    if n == 2:
        return Op(name, run, verify=_matches_two_strand(k[0]))
    return Op(name, run, canon=_sum_text)


def sums_ops(seed: int) -> list:
    localization = layer("localization")
    cases = [(2, (index,)) for index in range(1, 6)]
    cases += [(3, k) for k in monotone_ks(3)]
    cases += [(4, k) for k in draw_n4(seed)]
    return [sum_op(localization, n, k) for n, k in cases]


# -- census ------------------------------------------------------------------


def _cli_run(cli, *argv: str) -> Callable[[], tuple]:  # noqa: ANN001
    def run() -> tuple:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["--format", "plain", *argv])
        return code, buffer.getvalue()

    return run


def _cli_text(output) -> str:  # noqa: ANN001
    code, text = output
    return f"exit {code}\n{text}"


def _first_line_is(expected: str):  # noqa: ANN202
    def verify(output) -> Optional[str]:  # noqa: ANN001
        code, text = output
        first = text.split("\n", 1)[0]
        if code != 0 or first != expected:
            return f"exit {code}, first line {first!r}, expected {expected!r}"
        return None

    return verify


def _check_chart_listing(output) -> Optional[str]:  # noqa: ANN001
    total = math.factorial(CENSUS_N)
    problem = _first_line_is(f"charts n={CENSUS_N}: {total} records")(output)
    if problem:
        return problem
    lines = output[1].splitlines()[1:]
    commuting = sum(line.endswith("commutes=True") for line in lines)
    if len(lines) != total or commuting != 2 ** (CENSUS_N - 1):
        return f"{len(lines)} charts listed, {commuting} commuting"
    return None


def _check_gyt_report(output) -> Optional[str]:  # noqa: ANN001
    charts = layer("charts")
    code, text = output
    expected = f"gyt n={CENSUS_N}: {math.factorial(CENSUS_N)} charts,"
    if code != 0 or not text.startswith(expected):
        return f"exit {code}, report starts {text[:60]!r}"
    images = len(charts.standard_tableau_images(CENSUS_N))
    if not images == charts.count_standard_tableaux(CENSUS_N) == 232:
        return f"{images} standard tableau images"
    return None


def _chart_labels(output) -> str:  # noqa: ANN001
    return "\n".join(str(chart.label.flat_key()) for chart in output)


def _hook_count(output) -> Optional[str]:  # noqa: ANN001
    if len(output) != 2 ** (CENSUS_N - 1):
        return f"{len(output)} commuting charts"
    return None


def census_ops(seed: int) -> list:  # noqa: ARG001 - the census does not vary
    charts, cli = layer("charts"), layer("cli")
    n = str(CENSUS_N)
    total = math.factorial(CENSUS_N)
    return [
        Op(f"cli charts {n}", _cli_run(cli, "charts", n), _cli_text,
           _check_chart_listing),
        Op(f"cli weights {n}", _cli_run(cli, "weights", n), _cli_text,
           _first_line_is(f"weights n={n}: {total} records")),
        Op(f"cli gyt {n}", _cli_run(cli, "gyt", n), _cli_text, _check_gyt_report),
        Op(f"cli degenerate {n}", _cli_run(cli, "degenerate", n), _cli_text),
        Op(f"commuting_charts {n}", later(charts, "commuting_charts", CENSUS_N),
           _chart_labels, _hook_count),
    ]


# -- oracles -----------------------------------------------------------------


def coxeter_op(homfly, n: int, k: tuple) -> Op:  # noqa: ANN001
    braid = homfly.coxeter_braid(n, (), k)
    name = f"homfly coxeter n={n} k={','.join(map(str, k))}"
    return Op(name, later(homfly, "homfly", braid), canon=str)


def _random_braid_text(rng: random.Random) -> str:
    strands = rng.randint(2, 4)
    letters = [
        f"s{rng.randint(1, strands - 1)}{rng.choice(('', '^-1'))}"
        for _ in range(rng.randint(1, 8))
    ]
    return f"strands={strands} " + " ".join(letters)


def _matches_resolver(braid):  # noqa: ANN001, ANN202
    def verify(value) -> Optional[str]:  # noqa: ANN001
        from coxlinks._planar_skein import resolve_homfly

        if value != resolve_homfly(braid):
            return "differs from the planar skein resolver"
        return None

    return verify


def _passed(report) -> Optional[str]:  # noqa: ANN001
    return None if report["passed"] else "report did not pass"


def _is_true(value) -> Optional[str]:  # noqa: ANN001
    return None if value is True else f"returned {value!r}"


def two_strand_ops(twostrand) -> list:  # noqa: ANN001
    return [
        Op(f"twostrand {column} {index}", later(twostrand, function, index),
           canon=str)
        for column, function in (("odd", "homology_T2_odd"),
                                 ("even", "homology_T2_even"))
        for index in TWO_STRAND_INDICES
    ]


def oracles_ops(seed: int) -> list:
    homfly, mfcheck = layer("homfly"), layer("mfcheck")
    rng = random.Random(seed)
    ops = [
        coxeter_op(homfly, n, tuple(rng.randint(0, 1) for _ in range(n - 1)))
        for n in COXETER_SIZES
        for _ in range(2)
    ]
    for _ in range(RANDOM_BRAIDS):
        braid = homfly.parse_braid(_random_braid_text(rng))
        ops.append(Op(f"homfly {braid.to_text()}", later(homfly, "homfly", braid),
                      verify=_matches_resolver(braid)))
    ops += [
        Op(f"containment_suite n={n}",
           later(mfcheck, "containment_suite", n, 500, seed + n), verify=_passed)
        for n in range(2, 6)
    ]
    ops.append(Op("negative_control n=5",
                  later(mfcheck, "negative_control", 5, 200, seed), verify=_passed))
    ops.append(Op("symbolic_gid_check n=4",
                  later(mfcheck, "symbolic_gid_check", 4), verify=_is_true))
    return ops + two_strand_ops(layer("twostrand"))


WORKLOADS = {"sums": sums_ops, "census": census_ops, "oracles": oracles_ops}


def pin_space() -> list:
    """Every pinned operation any seed can draw, for ``make_pins.py``."""
    homfly, localization = layer("homfly"), layer("localization")
    ops = [sum_op(localization, n, k) for n in (3, 4) for k in monotone_ks(n)]
    ops += census_ops(0)
    ops += [
        coxeter_op(homfly, n, k)
        for n in COXETER_SIZES
        for k in itertools.product((0, 1), repeat=n - 1)
    ]
    return ops + two_strand_ops(layer("twostrand"))


# -- timing and checking ---------------------------------------------------------


def time_ops(ops: list, tracer=None) -> dict:  # noqa: ANN001
    """Run ``ops`` back to back; an exception is an output, not an abort."""
    outputs, seconds, warned = [], [], 0
    if tracer is not None:
        tracer.enabled = True
    begin = time.perf_counter()
    for op in ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                output = exc
            seconds.append(time.perf_counter() - start)
        warned += len(caught)
        outputs.append(output)
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.enabled = False
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowest = max(range(len(ops)), key=seconds.__getitem__)
    return {
        "outputs": outputs,
        "wall_s": wall,
        "slowest_op_s": seconds[slowest],
        "slowest_op": ops[slowest].name,
        "peak_rss_mb": peak,
        "warnings": warned,
    }


def check_ops(ops: list, outputs: list) -> list:
    """Descriptions of every output that raised or failed its check."""
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    failures = []
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            failures.append(f"{op.name}: raised {type(output).__name__}: {output}")
            continue
        try:
            problem = op.verify(output) if op.verify else None
            if problem is None and op.canon is not None:
                if digest(op.canon(output)) != pins.get(op.name):
                    problem = "differs from the value pinned in pins.json"
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.name}: {problem}")
    return failures


def main(argv=None) -> int:  # noqa: ANN001
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then stop")
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans while the operations run")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    ops = WORKLOADS[args.workload](args.seed)
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        timed = time_ops(ops, tracer)
        outputs = timed.pop("outputs")
        failures = check_ops(ops, outputs)
        result.update(timed, attempted=len(ops), failed=len(failures),
                      failures=failures[:5])
        if tracer is not None:
            output_bytes = sum(
                len(output[1].encode())
                for op, output in zip(ops, outputs)
                if op.name.startswith("cli ") and isinstance(output, tuple)
            )
            result["layers"] = tracer.metrics(output_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
