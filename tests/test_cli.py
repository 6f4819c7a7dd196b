"""End-to-end command-line tests driving main(argv) directly."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import avgmix.analysis
import avgmix.cli
import avgmix.discrete as discrete
import avgmix.exact
import avgmix.mixing
from avgmix.cli import main
from avgmix.exact import NotAnnihilatingError

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_end_loop_path_golden(capsys):
    payload = run_json(
        capsys,
        "compute", "--family", "path:6", "--loops", "0=2,5=2",
    )
    assert payload["avg_mixing"][0][0] == "599/1926"
    assert Fraction(payload["avg_mixing"][0][1]) == F(218, 1926)
    assert Fraction(payload["avg_mixing"][2][3]) == F(527, 1926)
    assert payload["common_denominator"] == "1926"
    assert payload["disc_char"] == "1664064"
    assert payload["simple_spectrum"] is True
    assert payload["certificates"]["d2_integral"] is True


def test_compute_graph6_two_path(capsys):
    payload = run_json(capsys, "compute", "--graph6", "A_")
    assert payload["avg_mixing"] == [["1/2", "1/2"], ["1/2", "1/2"]]
    assert payload["min_poly"] == ["-1", "0", "1"]


def test_compute_laplacian_basis(capsys):
    payload = run_json(
        capsys, "compute", "--family", "path:3", "--basis", "laplacian"
    )
    expected = [
        [F(7, 18), F(2, 9), F(7, 18)],
        [F(2, 9), F(5, 9), F(2, 9)],
        [F(7, 18), F(2, 9), F(7, 18)],
    ]
    got = [[Fraction(x) for x in row] for row in payload["avg_mixing"]]
    assert got == expected


def test_compute_matrix_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"n": 3, "weights": [[0, 2, 0], [2, 0, 1], [0, 1, 0]]})
    )
    payload = run_json(capsys, "compute", "--matrix-file", str(path))
    rows = [[Fraction(x) for x in row] for row in payload["avg_mixing"]]
    assert all(sum(row) == 1 for row in rows)


@pytest.mark.parametrize("weight", [1.7, True])
def test_compute_matrix_file_rejects_non_integer_weight(tmp_path, capsys, weight):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"n": 3, "weights": [[0, weight, 0], [weight, 0, 1], [0, 1, 0]]})
    )
    code, out, err = run(capsys, "compute", "--matrix-file", str(path))
    assert code == 2
    assert out == ""
    assert "(0, 1)" in err


@pytest.mark.parametrize("weights", [[1, 2], 5])
def test_compute_matrix_file_rejects_malformed_rows(tmp_path, capsys, weights):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"weights": weights}))
    code, out, err = run(capsys, "compute", "--matrix-file", str(path))
    assert code == 2
    assert "list of rows" in err


def test_compute_matrix_file_accepts_integer_valued_floats(tmp_path, capsys):
    ints = [[0, 2, 0], [2, 0, 1], [0, 1, 0]]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"weights": [[float(w) for w in row] for row in ints]}))
    from_floats = run_json(capsys, "compute", "--matrix-file", str(path))
    path.write_text(json.dumps({"weights": ints}))
    assert from_floats == run_json(capsys, "compute", "--matrix-file", str(path))


def _order_file(tmp_path, subcommand, n, size):
    """argv reading a matrix or unitary file of the size x size identity
    with 'n' set to n."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    key = "weights" if subcommand == "compute" else "entries"
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"n": n, key: rows}))
    flag = "--matrix-file" if subcommand == "compute" else "--unitary-file"
    return (subcommand, flag, str(path))


FILE_KINDS = [("compute", "matrix file"), ("discrete", "unitary file")]


@pytest.mark.parametrize("subcommand, what", FILE_KINDS)
@pytest.mark.parametrize("n, size", [(True, 1), (2.0, 2), ("2", 2)])
def test_file_order_must_be_a_json_integer(tmp_path, capsys, subcommand, what, n, size):
    # an 'n' of another JSON type is refused, never coerced to the row count
    code, out, err = run(capsys, *_order_file(tmp_path, subcommand, n, size))
    assert (code, out) == (2, "")
    assert f"error: {what} 'n' must be an integer" in err


@pytest.mark.parametrize("subcommand, what", FILE_KINDS)
def test_file_order_must_match_the_rows(tmp_path, capsys, subcommand, what):
    code, out, err = run(capsys, *_order_file(tmp_path, subcommand, 3, 2))
    assert (code, out) == (2, "")
    assert f"error: {what} 'n' does not match the" in err
    assert run(capsys, *_order_file(tmp_path, subcommand, 2, 2))[0] == 0


def test_compute_json_matrix_round_trips(capsys):
    payload = run_json(capsys, "compute", "--family", "path:6",
                       "--loops", "0=2,5=2")
    for row in payload["avg_mixing"]:
        for cell in row:
            assert str(Fraction(cell)) == cell


def test_compute_csv_format(capsys):
    code, out, err = run(
        capsys, "compute", "--family", "path:2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    marker = lines.index("# approximate decimal values, 12 significant digits")
    assert [float(x) for x in lines[marker + 1].split(",")] == [0.5, 0.5]
    assert "n,2" in lines


def _third_file(tmp_path):
    path = tmp_path / "third.json"
    rows = [["2/3", "-2/3", "1/3"], ["1/3", "2/3", "2/3"], ["2/3", "1/3", "-2/3"]]
    path.write_text(json.dumps({"n": 3, "entries": rows}))
    return str(path)


@pytest.mark.parametrize(
    "argv", [("compute", "--family", "cycle:7"), ("discrete", "--unitary-file")]
)
def test_csv_cells_match_the_json_payload(tmp_path, capsys, argv):
    # non-dyadic entries: each CSV cell is the JSON fraction p/q rounded
    if argv[0] == "discrete":
        argv += (_third_file(tmp_path),)
    cells = run_json(capsys, *argv)["avg_mixing"]
    assert any(c.endswith(("/49", "/121")) for row in cells for c in row)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    marker = lines.index("# approximate decimal values, 12 significant digits")
    expected = []
    for row in cells:
        values = []
        for cell in row:
            p, _, q = cell.partition("/")
            values.append(format(int(p) / int(q or 1), ".12g"))
        expected.append(",".join(values))
    assert lines[marker + 1 : marker + 1 + len(cells)] == expected


def test_compute_pretty_format(capsys):
    code, out, err = run(
        capsys, "compute", "--family", "path:6", "--loops", "0=2,5=2",
        "--format", "pretty",
    )
    assert code == 0
    assert "599/1926" in out
    assert "avg_mixing" in out


def _every_subcommand(tmp_path):
    """One argv per subcommand, a scheme file that fails its axioms included."""
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    adj = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    rest = [[1 - ident[i][j] - adj[i][j] for j in range(3)] for i in range(3)]
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([ident, adj, rest]))
    return [
        ["compute", "--family", "path:3"],
        ["verify", "--family", "cycle:5"],
        ["analyze", "--family", "path:4", "--pair", "0,3"],
        ["scheme", "--q", "13", "--d", "2"],
        ["scheme", "--matrix-file", str(scheme)],
        ["discrete", "--unitary-file", _third_file(tmp_path)],
    ]


def test_csv_and_pretty_name_every_json_key(tmp_path, capsys):
    for argv in _every_subcommand(tmp_path):
        code = main(argv)
        keys = list(json.loads(capsys.readouterr().out))
        for fmt, starts in (("csv", (",", ".")), ("pretty", (":",))):
            assert main([*argv, "--format", fmt]) == code
            lines = capsys.readouterr().out.splitlines()
            missing = [
                key
                for key in keys
                if not any(
                    line == key or line.startswith(tuple(key + s for s in starts))
                    for line in lines
                )
            ]
            assert missing == [], (argv, fmt)


def test_csv_prints_lists_and_every_matrix(tmp_path, capsys):
    code, out, _ = run(capsys, "compute", "--family", "path:3", "--format", "csv")
    assert code == 0
    assert "min_poly,0,-2,0,1" in out.splitlines()
    assert "pair,0,3" in run(
        capsys, "analyze", "--family", "path:4", "--pair", "0,3", "--format", "csv"
    )[1].splitlines()
    argv = ["discrete", "--unitary-file", _third_file(tmp_path)]
    payload = run_json(capsys, *argv)
    lines = run(capsys, *argv, "--format", "csv")[1].splitlines()
    # the approximate comment comes once, before the first matrix's rows
    marker = "# approximate decimal values, 12 significant digits"
    assert lines.count(marker) == 1
    assert lines.index(marker) == lines.index("avg_mixing") + 1
    for key in ("literal", "physical"):
        start = lines.index(key) + 1
        assert lines[start : start + 3] == [
            ",".join(format(float(F(x)), ".12g") for x in row) for row in payload[key]
        ]


def _csv_rows(key, value):
    """The key,value rows a JSON value should read back as from CSV;
    matrices are left out."""
    if isinstance(value, list) and value and isinstance(value[0], dict):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        return [row for k, v in value.items() for row in _csv_rows(f"{key}.{k}", v)]
    if isinstance(value, list) and value and isinstance(value[0], list):
        return []
    return [[key, *map(str, value if isinstance(value, list) else [value])]]


def test_csv_fields_round_trip_through_a_csv_reader(tmp_path, capsys):
    # a field with a comma is quoted, not spilled into extra columns
    scheme = tmp_path / "not_a_scheme.json"
    scheme.write_text("[[[1,0,0],[0,1,0],[0,0,1]],[[0,1,0],[1,1,1],[0,1,0]]]")
    argvs = [*_every_subcommand(tmp_path), ["scheme", "--matrix-file", str(scheme)]]
    for argv in argvs:
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == code
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        expected = [row for k, v in payload.items() for row in _csv_rows(k, v)]
        assert [row for row in expected if row not in rows] == [], argv
    detail = payload["violations"][1]["detail"]
    assert "," in detail and ["violations.1.detail", detail] in rows


def test_pretty_prints_dicts_and_lists_of_dicts_as_pairs(tmp_path, capsys):
    # a list of dicts (scheme violations) prints one k=v line per item,
    # not a Python repr
    scheme = tmp_path / "not_a_scheme.json"
    scheme.write_text("[[[1,0,0],[0,1,0],[0,0,1]],[[0,1,0],[1,1,1],[0,1,0]]]")
    argvs = [*_every_subcommand(tmp_path), ["scheme", "--matrix-file", str(scheme)]]
    for argv in argvs:
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "pretty"]) == code
        out = capsys.readouterr().out
        assert "{'" not in out, argv
        lines = out.splitlines()
        for key, value in payload.items():
            items = value if isinstance(value, list) else [value]
            if not items or not all(isinstance(item, dict) for item in items):
                continue
            pairs = [
                ", ".join(f"{k}={v}" for k, v in item.items()) for item in items
            ]
            if isinstance(value, list):
                start = lines.index(f"{key}:") + 1
                assert lines[start : start + len(pairs)] == [f"  {p}" for p in pairs]
            else:
                assert f"{key}: {pairs[0]}" in lines
    assert len(payload["violations"]) == 2


def test_pretty_prints_every_matrix_as_a_table(tmp_path, capsys):
    argv = ["discrete", "--unitary-file", _third_file(tmp_path), "--format", "pretty"]
    lines = run(capsys, *argv)[1].splitlines()
    start = lines.index("literal:") + 1
    assert lines[start : start + 3] == [
        "   51/121  -48/121   8/121",
        "  -48/121   51/121   8/121",
        "    8/121    8/121  83/121",
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_odd_cycle_passes(capsys):
    payload = run_json(capsys, "verify", "--family", "cycle:9")
    assert payload["passed"] is True
    assert payload["checks"]["closed_form"] is True


def test_verify_even_cycle_passes(capsys):
    payload = run_json(capsys, "verify", "--family", "cycle:4")
    assert payload["checks"]["closed_form"] is True


def test_verify_path_laplacian_closed_form(capsys):
    payload = run_json(
        capsys, "verify", "--family", "path:7", "--basis", "laplacian"
    )
    assert payload["checks"]["closed_form"] is True


def test_verify_complete_graph_uses_pseudocyclic_form(capsys):
    payload = run_json(capsys, "verify", "--family", "complete:4")
    assert payload["checks"]["closed_form"] is True


@pytest.mark.parametrize("descriptor", ["PATH:6", " cycle:5", "Complete:4 "])
def test_verify_closed_form_on_any_spelling(capsys, descriptor):
    # the descriptor is read as `family` reads it: blanks dropped, any case
    payload = run_json(capsys, "verify", "--family", descriptor)
    assert payload["checks"]["closed_form"] is True


def test_verify_single_check_selection(capsys):
    payload = run_json(
        capsys, "verify", "--family", "path:5", "--check", "psd"
    )
    assert set(payload["checks"]) == {"psd"}
    assert payload["passed"] is True


def test_verify_loops_skip_closed_form(capsys):
    payload = run_json(
        capsys, "verify", "--family", "path:6", "--loops", "0=2,5=2"
    )
    assert "closed_form" not in payload["checks"]
    assert payload["passed"] is True


def test_verify_csv_lists_checks(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "cycle:5", "--format", "csv"
    )
    assert code == 0
    assert "checks.stochastic,True" in out
    assert "passed,True" in out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_path_end_pair(capsys):
    payload = run_json(
        capsys, "analyze", "--family", "path:4", "--pair", "0,3"
    )
    assert payload["cospectral"] is True
    assert payload["strongly_cospectral"] is True
    assert payload["pst"]["status"] == "CANDIDATE"
    assert payload["span_class"] == "IJT"


def test_analyze_cycle_pair_blocked(capsys):
    payload = run_json(
        capsys, "analyze", "--family", "cycle:5", "--pair", "0,1"
    )
    assert payload["cospectral"] is True
    assert payload["strongly_cospectral"] is False
    assert payload["pst"]["status"] == "BLOCKED"
    assert payload["pst"]["no_pst_anywhere"] is True
    assert payload["span_class"] == "IJ"
    assert payload["walk_regular"] is True


def test_analyze_without_pair(capsys):
    payload = run_json(capsys, "analyze", "--family", "path:3")
    assert "cospectral" not in payload
    assert payload["walk_regular"] is False


def _record_calls(monkeypatch, name, sizes):
    """Wrap the engine function name in every module that holds it, and
    append the order of the matrix of each call to sizes."""
    modules = (avgmix.exact, avgmix.mixing, avgmix.analysis, discrete)
    engine = next(getattr(m, name) for m in modules if hasattr(m, name))

    def recorded(rows, *args, **kwargs):
        sizes.append(len(rows))
        return engine(rows, *args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is engine:
            monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("name", ["cycle:13", "path:12"])
def test_analyze_builds_one_resolvent_and_no_deleted_char_poly(
    capsys, monkeypatch, name
):
    # every answer of analyze comes off the one report: cospectrality and
    # walk-regularity read its vertex classes, not n - 1 vertex char polys.
    # cycle:13 is distance-regular of diameter 6, so its one resolvent is
    # that of the 7 x 7 distance quotient
    resolvents, char_polys = [], []
    _record_calls(monkeypatch, "_radical_resolvent", resolvents)
    _record_calls(monkeypatch, "_charpoly_mod", char_polys)
    n = int(name.split(":")[1])
    size = n // 2 + 1 if name.startswith("cycle") else n
    payload = run_json(capsys, "analyze", "--family", name, "--pair", "0,1")
    assert resolvents == [size]
    assert char_polys == [size]
    assert payload["cospectral"] is name.startswith("cycle")
    assert payload["walk_regular"] is name.startswith("cycle")


def test_analyze_bad_pair(capsys):
    code, out, err = run(
        capsys, "analyze", "--family", "path:3", "--pair", "0,9"
    )
    assert code == 2
    assert "error:" in err


# a vertex is a plain decimal, as a family field is: int() would read
# "1_0" as 10 and "+1", " 1" and the Arabic-Indic digit one as 1
@pytest.mark.parametrize(
    "pair", ["0,x", "0", "0,1,2", "0,1.5", "1_0,2", "+1,2", " 1,2", "\u0661,2"]
)
def test_analyze_malformed_pair_names_the_option(capsys, pair):
    code, out, err = run(
        capsys, "analyze", "--family", "path:3", "--pair", pair
    )
    assert code == 2
    assert out == ""
    assert f"--pair {pair!r}" in err


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def test_scheme_cyclotomic_13_2(capsys):
    payload = run_json(capsys, "scheme", "--q", "13", "--d", "2")
    assert payload["ok"] is True
    assert payload["valencies"] == [1, 6, 6]
    assert payload["multiplicities"] == [1, 6, 6]
    assert payload["pseudocyclic"] is True
    assert payload["koppinen_ok"] is True
    assert payload["formula_ok"] is True


def test_scheme_cyclotomic_7_3(capsys):
    payload = run_json(capsys, "scheme", "--q", "7", "--d", "3")
    assert payload["pseudocyclic"] is True
    assert payload["formula_ok"] is True


def test_scheme_rejects_path_partition_with_witness(tmp_path, capsys):
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    adj = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    rest = [
        [1 - ident[i][j] - adj[i][j] for j in range(3)] for i in range(3)
    ]
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps([ident, adj, rest]))
    code, out, err = run(capsys, "scheme", "--matrix-file", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    axioms = {v["axiom"] for v in payload["violations"]}
    assert "d" in axioms


def test_scheme_accepts_file_input(tmp_path, capsys):
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rest = [[1 - ident[i][j] for j in range(4)] for i in range(4)]
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"matrices": [ident, rest]}))
    payload = run_json(capsys, "scheme", "--matrix-file", str(path))
    assert payload["ok"] is True
    assert payload["pseudocyclic"] is True


@pytest.mark.parametrize(
    "data, message",
    [
        ([5], "matrix 0 must be a list of rows"),
        ([[[1, 0], [0, 1]], 5], "matrix 1 must be a list of rows"),
        ([[[1, 0], 5]], "matrix 0 must be a list of rows"),
        ([[[1.5]]], "matrix 0 must have integer entries"),
        ([[[True]]], "matrix 0 must have integer entries"),
    ],
)
def test_scheme_rejects_malformed_matrix_file(tmp_path, capsys, data, message):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "scheme", "--matrix-file", str(path))
    assert code == 2
    assert message in err


def test_scheme_argument_validation(capsys):
    code, _, err = run(capsys, "scheme", "--q", "13")
    assert code == 2
    code, _, err = run(capsys, "scheme")
    assert code == 2


def test_scheme_unsupported_cyclotomic(capsys):
    code, _, err = run(capsys, "scheme", "--q", "7", "--d", "2")
    assert code == 2
    assert "unsupported" in err


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------


def write_rotation(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "entries": [["3/5", "4/5"], ["-4/5", "3/5"]],
            }
        )
    )
    return str(path)


def test_discrete_defaults_to_physical(tmp_path, capsys):
    payload = run_json(
        capsys, "discrete", "--unitary-file", write_rotation(tmp_path)
    )
    assert payload["mode"] == "physical"
    assert payload["avg_mixing"] == [["1/2", "1/2"], ["1/2", "1/2"]]
    assert payload["literal"] == [["1/2", "-1/2"], ["-1/2", "1/2"]]
    assert payload["literal_equals_physical"] is False


def test_discrete_literal_mode(tmp_path, capsys):
    payload = run_json(
        capsys,
        "discrete",
        "--unitary-file", write_rotation(tmp_path),
        "--mode", "literal",
    )
    assert payload["avg_mixing"] == payload["literal"]


def test_discrete_integer_entries_and_agreement(tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"n": 2, "entries": [[0, 1], [1, 0]]}))
    payload = run_json(capsys, "discrete", "--unitary-file", str(path))
    assert payload["literal_equals_physical"] is True


def test_discrete_rejects_non_orthogonal(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 1], [0, 1]]}))
    code, _, err = run(capsys, "discrete", "--unitary-file", str(path))
    assert code == 2
    assert "orthogonal" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_discrete_builds_one_trace_form(tmp_path, capsys, monkeypatch, fmt):
    # both limits come from one trace form, and stdout matches the output
    # of the two separate limit functions byte for byte
    argv = ("discrete", "--unitary-file", _third_file(tmp_path), "--format", fmt)
    calls = []
    engine = discrete._trace_form
    monkeypatch.setattr(discrete, "_trace_form", lambda v: calls.append(1) or engine(v))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    monkeypatch.setattr(
        discrete,
        "avg_mixing_limits",
        lambda u: (discrete.avg_mixing_literal(u), discrete.avg_mixing_physical(u)),
    )
    assert run(capsys, *argv) == (0, out, "")
    assert len(calls) == 3
    if fmt == "json":
        payload = json.loads(out)
        assert payload["physical"][0] == ["51/121", "51/121", "19/121"]
        assert payload["literal"][0] == ["51/121", "-48/121", "8/121"]


@pytest.mark.parametrize("entries", [5, [[1, 0], 5]])
def test_discrete_rejects_malformed_entries(tmp_path, capsys, entries):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"entries": entries}))
    code, _, err = run(capsys, "discrete", "--unitary-file", str(path))
    assert code == 2
    assert "'entries' must be a list of rows" in err


def test_discrete_rejects_an_entry_over_zero(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"entries": [["1/0", 0], [0, 1]]}))
    code, out, err = run(capsys, "discrete", "--unitary-file", str(path))
    assert (code, out) == (2, "")
    assert "error: unitary file has an entry over 0" in err


# ---------------------------------------------------------------------------
# internal errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "error",
    [
        ArithmeticError("tr(M B_j) must be divisible by n - j"),
        NotAnnihilatingError("psi(M) != 0"),
    ],
)
@pytest.mark.parametrize("command", ["compute", "verify", "analyze"])
def test_engine_hard_check_failures_exit_3(capsys, monkeypatch, error, command):
    # a failed hard check in the engine is an internal fault, not a failed
    # verification (1) or unusable input (2)
    def broken(rows):
        raise error

    monkeypatch.setattr(avgmix.mixing, "_trace_form", broken)
    code, out, err = run(capsys, command, "--family", "path:4")
    assert (code, out) == (3, "")
    assert err == f"internal invariant violated: {error}\n"


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------


def test_two_sources_rejected(capsys):
    code, _, err = run(
        capsys, "compute", "--family", "path:3", "--graph6", "A_"
    )
    assert code == 2


def test_no_source_rejected(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 2


def test_bad_graph6_rejected(capsys):
    code, _, err = run(capsys, "compute", "--graph6", "\x01bad")
    assert code == 2


def test_non_ascii_graph6_rejected(capsys):
    # "Bé" once read as the empty graph on 3 vertices
    code, out, err = run(capsys, "compute", "--graph6", "Bé")
    assert (code, out) == (2, "")
    assert "non-ASCII" in err and "byte offset 1" in err


def test_bad_loops_rejected(capsys):
    code, _, err = run(
        capsys, "compute", "--family", "path:3", "--loops", "0:2"
    )
    assert code == 2


def test_missing_file_rejected(capsys):
    code, _, err = run(
        capsys, "compute", "--matrix-file", "/no/such/file.json"
    )
    assert code == 2


def test_laplacian_with_loops_rejected(capsys):
    code, _, err = run(
        capsys,
        "compute", "--family", "path:3", "--loops", "0=1",
        "--basis", "laplacian",
    )
    assert code == 2


def test_unknown_family_rejected(capsys):
    code, _, err = run(capsys, "compute", "--family", "hypercube:3")
    assert code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


def test_broken_pipe_exits_quietly_with_sigpipe_status(tmp_path, capsys, monkeypatch):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["compute", "--family", "path:4"])
        # the descriptor now points at devnull, so late writes vanish
        os.write(fd, b"late")
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


@pytest.mark.parametrize(
    "loops, message",
    [
        ("0=1.7", "weight at (0, 0) is not an integer: 1.7"),
        ("0=true", "weight at (0, 0) is not an integer: True"),
        ("0=x", "loop entry '0=x'"),
        ("x=2", "loop entry 'x=2'"),
        # a vertex named twice is ambiguous, and an empty list is no list
        ("0=2,0=3", "loop entry '0=3' names vertex 0 twice"),
        ("", "loop entry ''"),
        # a vertex is a plain decimal, as a family field is: int() would
        # read each of these as vertex 1 or 11
        ("1_1=2", "loop entry '1_1=2'"),
        ("+1=2", "loop entry '+1=2'"),
        (" 1=2", "loop entry ' 1=2'"),
        ("\u0661=2", "loop entry '\u0661=2'"),
    ],
)
def test_loop_weights_follow_the_library_rules(capsys, loops, message):
    code, _, err = run(capsys, "compute", "--family", "path:3", "--loops", loops)
    assert code == 2
    assert message in err


def test_integer_valued_float_loop_weight_accepted(capsys):
    as_float = run_json(capsys, "compute", "--family", "path:3", "--loops", "0=2.0")
    assert as_float == run_json(capsys, "compute", "--family", "path:3", "--loops", "0=2")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

# Each call's options, then the same subcommand without them: a reused
# parser must not carry an option over to the next call.
REUSED_PARSER_CALLS = [
    ["analyze", "--family", "cycle:5", "--pair", "0,1"],
    ["analyze", "--family", "cycle:5"],
    ["verify", "--family", "path:4", "--check", "psd"],
    ["verify", "--family", "path:4"],
    ["compute", "--family", "path:3", "--format", "csv"],
    ["compute", "--family", "path:3"],
]

# Counts ArgumentParser constructions across `import avgmix.cli` and then
# one `main` call per argv, printing one JSON object.
PARSER_COUNTING_SCRIPT = """
import argparse, contextlib, io, json, sys

made = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init

import avgmix.cli

after_import = list(made)
outputs, codes, counts = [], [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(avgmix.cli.main(argv))
    outputs.append(out.getvalue())
    counts.append(len(made))
print(json.dumps({"after_import": after_import, "made": made,
                  "counts": counts, "codes": codes, "outputs": outputs}))
"""


def _python(*args):
    src = os.path.dirname(os.path.dirname(avgmix.cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120, check=False,
    )


def test_parser_is_built_once_on_the_first_call_and_not_at_import():
    proc = _python("-c", PARSER_COUNTING_SCRIPT, json.dumps(REUSED_PARSER_CALLS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["after_import"] == []
    # the subcommands are parsers too, made with the top-level one
    assert result["made"].count("avgmix") == 1
    assert len(set(result["counts"])) == 1
    assert result["codes"] == [0] * len(REUSED_PARSER_CALLS)

    outputs = result["outputs"]
    assert "pair" in json.loads(outputs[0])
    assert "pair" not in json.loads(outputs[1])
    assert set(json.loads(outputs[2])["checks"]) == {"psd"}
    assert set(json.loads(outputs[3])["checks"]) == {
        "stochastic", "psd", "integrality", "closed_form",
    }
    assert not outputs[4].lstrip().startswith("{")
    assert json.loads(outputs[5])["avg_mixing"]

    for argv, out in zip(REUSED_PARSER_CALLS, outputs):
        fresh = _python("-m", "avgmix.cli", *argv)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == out, argv
