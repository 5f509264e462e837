"""End-to-end CLI: text contracts, tree JSON round trips, exit codes."""

import hashlib
import json
import re

import pytest

from coxlinks import cli
from coxlinks.cli import EXIT_CHECK_FAILED, main
from coxlinks.polyalg import parse_poly
from coxlinks.weights import weight_data

AQT = ("a", "q", "t")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- plain format -----------------------------------------------------------------------


def test_charts_header_and_record_count(capsys):
    code, out, err = run(capsys, "charts", "3")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "charts n=3: 6 records"
    assert len(lines) == 7
    assert all(line.startswith("label sx=") for line in lines[1:])


def test_superpoly_calibrated_output(capsys):
    code, out, _ = run(capsys, "superpoly", "2", "--k", "1")
    assert code == 0
    assert "P(n=2, k=[1], link_s=[]) = (a*q^2*t^-1 + a^2*t^-1 + a*q^-2*t) / (1 - q^2)" in out
    assert "shift_exponent = 1" in out
    assert "in_conjecture_regime = True" in out


def test_superpoly_equals_twostrand_closed_form(capsys):
    _, superpoly_out, _ = run(capsys, "superpoly", "2", "--k", "2")
    _, twostrand_out, _ = run(capsys, "twostrand", "odd", "2")
    value_of = lambda text: text.splitlines()[0].split(" = ", 1)[1]
    assert value_of(superpoly_out) == value_of(twostrand_out)


def test_twostrand_reports_parity(capsys):
    _, out, _ = run(capsys, "twostrand", "odd", "1")
    assert "t-parities = [1]" in out


def test_homfly_trefoil(capsys):
    code, out, _ = run(capsys, "homfly", "strands=2 s1 s1 s1")
    assert code == 0
    assert "homfly = -a^4 + a^2*z^2 + 2*a^2" in out
    assert "writhe = 3, components = 1" in out


def test_coxbraid_output(capsys):
    code, out, _ = run(capsys, "coxbraid", "3", "--k", "1,1")
    assert code == 0
    assert out.splitlines()[0] == "strands=3 s2 s1 s1 s2 s2 s1 s2 s2"
    assert "writhe = 8" in out


def test_degenerate_census(capsys):
    code, out, _ = run(capsys, "degenerate", "4")
    assert code == 0
    assert out.splitlines()[0] == "degenerate charts at n=4: 2"
    code, out, _ = run(capsys, "degenerate", "3")
    assert out.splitlines()[0] == "degenerate charts at n=3: 0"


def test_gyt_collision_counts(capsys):
    _, out, _ = run(capsys, "gyt", "3")
    assert out.splitlines()[0] == "gyt n=3: 6 charts, 0 collision groups"
    _, out, _ = run(capsys, "gyt", "4")
    assert out.splitlines()[0] == "gyt n=4: 24 charts, 2 collision groups"


def test_weights_listing(capsys):
    _, out, _ = run(capsys, "weights", "2")
    lines = out.strip().splitlines()
    assert lines[0] == "weights n=2: 2 records"
    assert "inequality=True" in lines[1]


def test_degree_flag_controls_truncation(capsys):
    _, narrow, _ = run(capsys, "--degree", "6", "twostrand", "odd", "1")
    _, wide, _ = run(capsys, "--degree", "12", "twostrand", "odd", "1")
    narrow_series = narrow.splitlines()[-1]
    wide_series = wide.splitlines()[-1]
    assert len(wide_series) > len(narrow_series)


def _no_sum(*args):
    raise AssertionError("the value was computed before the degree was checked")


@pytest.mark.parametrize(
    "argv, compute",
    [
        (("superpoly", "5", "--k", "1,1,1,1"), "calibrated_superpolynomial"),
        (("twostrand", "odd", "1"), "homology_T2_odd"),
    ],
)
def test_out_of_range_degree_exits_before_the_value_is_computed(
    capsys, monkeypatch, argv, compute
):
    monkeypatch.setattr(cli, compute, _no_sum)
    code, out, err = run(capsys, "--degree", "401", *argv)
    assert code == 2 and out == ""
    assert err == (
        "error [polyalg]: a series expansion is limited to |bound| <= 400; got |bound| = 401\n"
        "remedy: stay inside the documented size caps (the error names its cap; README lists all)\n"
    )


# -- tree format --------------------------------------------------------------------------


def test_tree_output_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "tree", "twostrand", "odd", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "records"}
    assert payload["command"] == "twostrand"
    (record,) = payload["records"]
    numerator = parse_poly(record["numerator"], tuple(record["variables"]))
    assert numerator == parse_poly("a*q^2*t^-1 + a^2*t^-1 + a*q^-2*t", AQT)
    assert record["denominator_factors"] == [["q^2", 1]]


def test_tree_output_is_bit_stable(capsys):
    _, first, _ = run(capsys, "--format", "tree", "charts", "3")
    _, second, _ = run(capsys, "--format", "tree", "charts", "3")
    assert first == second
    assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first


# -- byte identity of the chart listings -------------------------------------------------

# SHA-256 of stdout.  The charts and weights digests were pinned when plain
# lines were still formatted from the tree records; the gyt and degenerate
# digests were pinned while all_charts still validated every label and read
# its pivots off it.
LISTING_DIGESTS = {
    ("plain", "charts"): "75731631734f31769cfd4c2fd536266d4f7e3d198d22077c14b1f4e32100d4af",
    ("plain", "degenerate"): "32d823449daf718ee36003597b003cb4605437626f0f920fca42f1af30af60bd",
    ("plain", "gyt"): "6aa07cb3f023e31093b133f898232d758c5bd35c8b9991ca757769a74406941c",
    ("plain", "weights"): "dbee570c076c7aef3e1a153861a9cb41ffdeb81757374b58df83d5079ff914fa",
    ("tree", "charts"): "81092aede3eab8af9ddf59ef9d9ee8588c749a2c62bb12079cbdf52c3e83b850",
    ("tree", "degenerate"): "a9cac8c492deb43dcb103e2407b14e47f6b07b9d3fb520e15666a3b18a83272a",
    ("tree", "gyt"): "3ecfd838b986e68e8a3d25b92af5edf4cbc611b49bde41f2924790bc6843e833",
    ("tree", "weights"): "819342c55f1be38eb5a2c5a264a6b91335a2c754cb823caca7ec4337db265555",
}


@pytest.mark.parametrize("fmt,command", sorted(LISTING_DIGESTS))
def test_chart_listings_are_byte_identical(capsys, fmt, command):
    code, out, err = run(capsys, "--format", fmt, command, "5")
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == LISTING_DIGESTS[(fmt, command)]


def _plain_fields(line):
    """``name=value`` fields of a listing line; a JSON value may hold spaces."""
    return dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line))


def test_plain_chart_lines_match_tree_records(capsys):
    _, plain, _ = run(capsys, "charts", "4")
    _, tree, _ = run(capsys, "--format", "tree", "charts", "4")
    lines = plain.splitlines()[1:]
    records = json.loads(tree)["records"]
    assert len(lines) == len(records) == 24
    for line, record in zip(lines, records):
        fields = _plain_fields(line)
        assert json.loads(fields["sx"]) == record["label"]["sx"]
        assert json.loads(fields["sy"]) == record["label"]["sy"]
        assert json.loads(fields["monomials"]) == record["monomials"]
        assert fields["commutes"] == str(record["commutes"])


def test_plain_weight_lines_match_tree_records(capsys):
    _, plain, _ = run(capsys, "weights", "4")
    _, tree, _ = run(capsys, "--format", "tree", "weights", "4")
    lines = plain.splitlines()[1:]
    records = json.loads(tree)["records"]
    assert len(lines) == len(records) == 24
    for line, record in zip(lines, records):
        fields = _plain_fields(line)
        assert json.loads(fields["wx"]) == record["wx"]
        assert json.loads(fields["wy"]) == record["wy"]
        fixed = record["fixed_dim"]
        assert int(fields["dimT0"]) == fixed["dimT0"]
        assert int(fields["dimOb0"]) == fixed["dimOb0"]
        assert fields["inequality"] == str(fixed["inequality"])
        assert int(fields["vanishing_factors"]) == fixed["vanishing_factors"]


def _plain_and_tree(capsys, command, n):
    """The plain record lines (header dropped) and the tree records."""
    _, plain, _ = run(capsys, command, str(n))
    _, tree, _ = run(capsys, "--format", "tree", command, str(n))
    return plain.splitlines()[1:], json.loads(tree)["records"]


# The int-list (and word-list) fields of each command's plain lines, and
# the matching fields of its tree records.
_LIST_FIELDS = {
    "charts": (
        ("sx", "sy", "monomials"),
        lambda record: (record["label"]["sx"], record["label"]["sy"], record["monomials"]),
    ),
    "weights": (("wx", "wy"), lambda record: (record["wx"], record["wy"])),
    "degenerate": (
        ("sx", "sy"),
        lambda record: (record["label"]["sx"], record["label"]["sy"]),
    ),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("command", sorted(_LIST_FIELDS))
def test_plain_list_fields_are_the_json_of_the_tree_fields(capsys, command, n):
    # Byte for byte, so a change of spacing or quoting in the plain lines shows.
    names, tree_fields = _LIST_FIELDS[command]
    lines, records = _plain_and_tree(capsys, command, n)
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        fields = _plain_fields(line)
        assert [fields[name] for name in names] == list(map(json.dumps, tree_fields(record)))


@pytest.mark.parametrize("n", range(1, 7))
def test_plain_gyt_lines_are_the_json_of_the_tree_report(capsys, n):
    lines, (report,) = _plain_and_tree(capsys, "gyt", n)
    expected = []
    for group in report["collisions"]:
        expected.append(f"collision on cells {json.dumps(group['gyt'])}:")
        expected += [
            f"  sx={json.dumps(label['sx'])} sy={json.dumps(label['sy'])}"
            for label in group["labels"]
        ]
    assert lines == expected


def test_weights_prints_each_line_before_the_next_chart(monkeypatch):
    events = []

    def traced_weight_data(chart):
        events.append("data")
        return weight_data(chart)

    monkeypatch.setattr(cli, "weight_data", traced_weight_data)
    monkeypatch.setattr(cli, "print", lambda line: events.append("line"), raising=False)
    assert main(["weights", "4"]) == 0
    assert events == ["line"] + ["data", "line"] * 24


class _Counted(list):
    """A list that counts how often an f-string formats it; ``json`` never does."""

    formats = 0

    def __format__(self, spec):
        _Counted.formats += 1
        return super().__format__(spec)


def _counted_report(report):
    """``report`` with the fields its plain lines print wrapped in counters."""
    groups = [
        {
            "gyt": _Counted(group["gyt"]),
            "labels": [
                {**label, "sx": _Counted(label["sx"]), "sy": _Counted(label["sy"])}
                for label in group["labels"]
            ],
        }
        for group in report["collisions"]
    ]
    return {**report, "collisions": groups}


@pytest.mark.parametrize("fmt, formatted", [("plain", (2, 100)), ("tree", (0, 0))])
def test_gyt_and_degenerate_format_only_the_lines_they_print(
    capsys, monkeypatch, fmt, formatted
):
    # Plain output formats the 2 labels of 'degenerate 4' and, for 'gyt 5',
    # the cells of 20 collision groups and the sx and sy of their 40 labels.
    labels = []
    label_fields = cli._label_fields
    report = cli.gyt_injectivity_report
    monkeypatch.setattr(
        cli, "_label_fields", lambda label: labels.append(label) or label_fields(label)
    )
    monkeypatch.setattr(cli, "gyt_injectivity_report", lambda n: _counted_report(report(n)))
    monkeypatch.setattr(_Counted, "formats", 0)
    assert main(["--format", fmt, "degenerate", "4"]) == 0
    assert main(["--format", fmt, "gyt", "5"]) == 0
    capsys.readouterr()
    assert (len(labels), _Counted.formats) == formatted


# -- exit codes and error reporting ----------------------------------------------------------


def test_bad_braid_reports_module_and_remedy(capsys):
    code, out, err = run(capsys, "homfly", "garbage")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0].startswith("error [homfly]: missing strands=<n> header")
    assert err.splitlines()[1].startswith("remedy: write the braid as")


def test_text_before_braid_header_is_rejected(capsys):
    code, out, err = run(capsys, "homfly", "s1 s1 s1 strands=2")
    assert code == 2
    assert out == ""
    assert err.startswith("error [homfly]: missing strands=<n> header (at position 0)")


def test_repeated_link_s_is_rejected(capsys):
    code, out, err = run(capsys, "coxbraid", "3", "--k", "0,0", "--link-s", "1,1")
    assert code == 2
    assert out == ""
    assert "link_s has repeated entries: (1, 1)" in err


def test_capacity_error_exit(capsys):
    code, _, err = run(capsys, "charts", "12")
    assert code == 2
    assert "error [charts]:" in err
    assert "remedy:" in err


@pytest.mark.parametrize(
    "argv, module",
    [
        (["coxbraid", "3", "--k", "0,0", "--link-s", "5"], "homfly"),
        (["superpoly", "3", "--k", "1"], "localization"),
        (["superpoly", "8", "--k", "0,0,0,0,0,0,0"], "localization"),
        (["charts", "12"], "charts"),
        (["weights", "10"], "charts"),
        (["gyt", "8"], "charts"),
        (["degenerate", "8"], "weights"),
        (["homfly", "strands=7 s1"], "homfly"),
        (["mfcheck", "--n", "40", "--samples", "1"], "mfcheck"),
    ],
)
def test_bad_arguments_name_the_module_of_their_command(capsys, argv, module):
    # The shared argument rules live in coxlinks.errors; an error is reported
    # from the module that applied them.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error [{module}]: ")
    assert "[errors]" not in err


def test_mfcheck_size_cap_exits_with_remedy(capsys):
    code, out, err = run(capsys, "mfcheck", "--n", "40", "--samples", "1")
    assert code == 2 and out == ""
    assert "error [mfcheck]: an mfcheck suite is limited to n <= 12" in err
    assert "remedy: stay inside the documented size caps" in err


def test_mfcheck_passes(capsys):
    code, out, _ = run(capsys, "mfcheck", "--n", "3", "--samples", "40")
    assert code == 0
    assert "all passed" in out


def test_check_quick_is_green(capsys):
    code, out, _ = run(capsys, "check", "--level", "quick")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_full_reports_known_failure(capsys):
    code, out, _ = run(capsys, "check", "--level", "full")
    assert code == EXIT_CHECK_FAILED
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1 and "tableau-injectivity" in failing[0]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
