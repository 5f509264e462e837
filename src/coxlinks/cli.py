"""Command-line front end: every computation behind one ``coxlinks`` binary.

Global flags come before the subcommand::

    coxlinks [--format plain|tree] [--degree D] [--seed S] <command> ...

Output formats:

* ``plain`` — stable, line-oriented text; one record per line where the
  command produces many.
* ``tree`` — a single JSON document ``{"command": ..., "records": [...]}``
  with sorted keys.  Polynomial fields are strings in the canonical
  grammar, so the document round-trips through ``json.loads`` plus
  :func:`coxlinks.polyalg.parse_poly`.

Exit codes: 0 success; 2 argument or validation error (every library
error is reported with the module it came from and a one-line remedy);
3 a consistency check ran and failed (``check``, ``mfcheck``).

Both formats are bit-stable for a fixed configuration: the only
randomness is seeded (``--seed``, default 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import __version__, acceptance
from .charts import (
    NestedSetPair,
    all_charts,
    gyt_injectivity_report,
    is_commutative,
    monomial_vector,
    word_str,
)
from .errors import (
    BraidSyntaxError,
    CapacityError,
    ConsistencyError,
    CoxlinksError,
    DegenerateChartError,
    ExpansionError,
    NotDivisibleError,
    SingularMatrixError,
)
from .homfly import coxeter_braid, homfly, parse_braid
from .localization import calibrated_superpolynomial, detect_degenerate
from .mfcheck import containment_suite
from .twostrand import homology_T2_even, homology_T2_odd
from .weights import weight_data

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3

_REMEDIES = [
    (BraidSyntaxError, "write the braid as 'strands=N s1 s2^-1 ...'"),
    (CapacityError, "stay inside the documented size caps (see --help and docstrings)"),
    (DegenerateChartError, "run 'weights <n>': the charts with dimT0 > 0 have a fixed direction"),
    (SingularMatrixError, "supply an invertible matrix g"),
    (ExpansionError, "denominator factors must have positive weighted degree; raise --degree weights"),
    (NotDivisibleError, "the value is genuinely rational; keep its denominator"),
    (ConsistencyError, "internal invariant violated — please report the full command line"),
    (ValueError, "check the argument ranges described in --help"),
]


def _module_of(exc: BaseException) -> str:
    """The deepest package module in the traceback, for error reporting."""
    module = "cli"
    trace = exc.__traceback__
    while trace is not None:
        name = trace.tb_frame.f_globals.get("__name__", "")
        if name.startswith("coxlinks."):
            module = name.split(".", 1)[1]
        trace = trace.tb_next
    return module


def _report_error(exc: BaseException) -> int:
    remedy = next(
        (text for kind, text in _REMEDIES if isinstance(exc, kind)),
        "re-run with --format tree for the full record",
    )
    print(f"error [{_module_of(exc)}]: {exc}", file=sys.stderr)
    print(f"remedy: {remedy}", file=sys.stderr)
    return EXIT_USAGE


def _int_list(text: str) -> Tuple[int, ...]:
    """Parse '2,1' (or '2, 1') into (2, 1); empty string means ()."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _emit(
    args: argparse.Namespace, records: Callable[[], List[dict]], lines: Iterable[str]
) -> None:
    """Print ``lines`` (plain) or the document of ``records()`` (tree).

    Each format builds only what it prints: ``records`` is called and
    ``lines`` iterated only for their own format.
    """
    if args.format == "tree":
        document = {"command": args.command, "records": records()}
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _label_fields(label: NestedSetPair) -> str:
    return "sx={} sy={}".format(
        json.dumps([sorted(level) for level in label.sx]),
        json.dumps([sorted(level) for level in label.sy]),
    )


# -- subcommand handlers -------------------------------------------------------


def _cmd_charts(args: argparse.Namespace) -> int:
    charts = all_charts(args.n)
    lines = (
        "label {label} monomials={monomials} commutes={commutes}".format(
            label=_label_fields(chart.label),
            monomials=json.dumps([word_str(word) for word in monomial_vector(chart)]),
            commutes=is_commutative(chart),
        )
        for chart in charts
    )
    _emit(
        args,
        lambda: [chart.to_record() for chart in charts],
        chain([f"charts n={args.n}: {len(charts)} records"], lines),
    )
    return EXIT_OK


def _cmd_weights(args: argparse.Namespace) -> int:
    charts = all_charts(args.n)
    # A generator, consumed once by either format, so each WeightData is
    # freed as soon as its line or record is built.
    rows = ((data, data.fixed_dim()) for data in map(weight_data, charts))
    lines = (
        "wx={wx} wy={wy} dimT0={t0} dimOb0={ob0} inequality={ineq}"
        " vanishing_factors={vf}".format(
            wx=json.dumps(data.wx),
            wy=json.dumps(data.wy),
            t0=fixed["dimT0"],
            ob0=fixed["dimOb0"],
            ineq=fixed["inequality"],
            vf=fixed["vanishing_factors"],
        )
        for data, fixed in rows
    )
    _emit(
        args,
        lambda: [
            {**data.to_record(), "label": data.chart.label.to_record(), "fixed_dim": fixed}
            for data, fixed in rows
        ],
        chain([f"weights n={args.n}: {len(charts)} records"], lines),
    )
    return EXIT_OK


def _cmd_superpoly(args: argparse.Namespace) -> int:
    result = calibrated_superpolynomial(args.n, args.k, args.link_s)
    record = result.to_record()
    record["truncated"] = str(result.truncated(args.degree))
    lines = [
        f"P(n={args.n}, k={list(args.k)}, link_s={list(args.link_s)})"
        f" = {result.value}",
        f"shift_exponent = {result.shift_exponent}",
        f"in_conjecture_regime = {result.in_conjecture_regime}",
        f"series to total degree {args.degree}: {record['truncated']}",
    ]
    _emit(args, lambda: [record], lines)
    return EXIT_OK


def _cmd_twostrand(args: argparse.Namespace) -> int:
    compute = homology_T2_odd if args.column == "odd" else homology_T2_even
    result = compute(args.index)
    record = result.to_record()
    record["truncated"] = str(
        result.value.truncate_series({"a": 1, "q": 1, "t": 1}, args.degree)
    )
    lines = [
        f"H_2strand_{args.column}({args.index}) = {result.value}",
        f"t-parities = {sorted(result.t_parities())}",
        f"series to total degree {args.degree}: {record['truncated']}",
    ]
    _emit(args, lambda: [record], lines)
    return EXIT_OK


def _cmd_homfly(args: argparse.Namespace) -> int:
    braid = parse_braid(args.braid)
    value = homfly(braid)
    record = braid.to_record()
    record["homfly"] = str(value)
    lines = [
        f"braid: {braid.to_text()}",
        f"writhe = {braid.writhe()}, components = {braid.components()}",
        f"homfly = {value}",
    ]
    _emit(args, lambda: [record], lines)
    return EXIT_OK


def _cmd_coxbraid(args: argparse.Namespace) -> int:
    braid = coxeter_braid(args.n, args.link_s, args.k)
    record = braid.to_record()
    lines = [
        braid.to_text(),
        f"writhe = {braid.writhe()}, components = {braid.components()}",
    ]
    _emit(args, lambda: [record], lines)
    return EXIT_OK


def _cmd_degenerate(args: argparse.Namespace) -> int:
    flagged = detect_degenerate(args.n)
    lines = [f"degenerate charts at n={args.n}: {len(flagged)}"] + [
        f"label {_label_fields(chart.label)}" for chart in flagged
    ]
    _emit(args, lambda: [chart.to_record() for chart in flagged], lines)
    return EXIT_OK


def _cmd_gyt(args: argparse.Namespace) -> int:
    report = gyt_injectivity_report(args.n)
    groups = report["collisions"]
    lines = [
        f"gyt n={args.n}: {report['total']} charts, {len(groups)} collision groups"
    ]
    for group in groups:
        lines.append(f"collision on cells {json.dumps(group['gyt'])}:")
        for label in group["labels"]:
            lines.append(
                f"  sx={json.dumps(label['sx'])} sy={json.dumps(label['sy'])}"
            )
    _emit(args, lambda: [report], lines)
    return EXIT_OK


def _cmd_mfcheck(args: argparse.Namespace) -> int:
    report = containment_suite(args.n, args.samples, args.seed)
    lines = [
        f"mfcheck n={args.n}: {args.samples} samples, seed {args.seed}: "
        + ("all passed" if report["passed"] else f"{len(report['failures'])} failures")
    ]
    _emit(args, lambda: [report], lines)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_check(args: argparse.Namespace) -> int:
    results = acceptance.run(args.level, args.seed)
    records = [result.to_record() for result in results]
    passed = sum(result.passed for result in results)
    lines = [result.line() for result in results]
    lines.append(f"{passed}/{len(results)} criteria passed (level {args.level})")
    _emit(args, lambda: records, lines)
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


# -- parser --------------------------------------------------------------------


def _arg(*flags: str, **options) -> tuple:  # noqa: ANN003
    """One ``add_argument`` call, as its flags and options."""
    return flags, options


def _link_s_arg(note: str) -> tuple:
    help_text = f"skipped generator indices ({note}comma list)"
    return _arg("--link-s", type=_int_list, default=(), dest="link_s", help=help_text)


_GLOBAL_OPTIONS = (
    _arg("--version", action="version", version=__version__),
    _arg("--format", choices=("plain", "tree"), default="plain",
         help="plain text lines or one JSON document (default: plain)"),
    _arg("--degree", type=int, default=40,
         help="truncation degree for series output (default: 40)"),
    _arg("--seed", type=int, default=0, help="seed for the randomized suites (default: 0)"),
)
_N = _arg("n", type=_positive_int)
_K = _arg("--k", type=_int_list, required=True, help="comma list, length n-1")

#: Each subcommand: its name, help, handler and ``add_argument`` calls.
_COMMANDS = (
    ("charts", "enumerate all chart records for size n", _cmd_charts, [_N]),
    ("weights", "weight and fixed-dimension data per chart", _cmd_weights, [_N]),
    ("superpoly", "fixed-point superpolynomial for (n, k, link_s)", _cmd_superpoly,
     [_N, _K, _link_s_arg("experimental; ")]),
    ("twostrand", "closed-form two-strand homology", _cmd_twostrand,
     [_arg("column", choices=("odd", "even")),
      _arg("index", type=int, help="k for odd columns, n for even columns")]),
    ("homfly", "HOMFLY polynomial of a braid closure", _cmd_homfly,
     [_arg("braid", help="braid word, e.g. 'strands=2 s1 s1 s1'")]),
    ("coxbraid", "the quasi-Coxeter braid word for (n, k, link_s)", _cmd_coxbraid,
     [_N, _K, _link_s_arg("")]),
    ("degenerate", "charts with vanishing localization factors", _cmd_degenerate, [_N]),
    ("gyt", "tableau-image injectivity report", _cmd_gyt, [_N]),
    ("mfcheck", "seeded determinant/containment suite", _cmd_mfcheck,
     [_arg("--n", type=_positive_int, required=True),
      _arg("--samples", type=_positive_int, default=500)]),
    ("check", "run the acceptance suite", _cmd_check,
     [_arg("--level", choices=("quick", "full"), default="quick",
           help="quick: fast all-green subset; full: all eleven criteria")]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coxlinks", description=__doc__.split("\n\n")[0])
    for flags, options in _GLOBAL_OPTIONS:
        parser.add_argument(*flags, **options)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, specs in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for flags, options in specs:
            sub.add_argument(*flags, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CoxlinksError, ValueError) as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
