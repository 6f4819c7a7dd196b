"""End-to-end command-line tests driving main(argv) directly."""

import io
import json
import os
import sys
from fractions import Fraction

import pytest

import avgmix.cli
import avgmix.discrete as discrete
from avgmix.cli import main

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


def test_compute_pretty_format(capsys):
    code, out, err = run(
        capsys, "compute", "--family", "path:6", "--loops", "0=2,5=2",
        "--format", "pretty",
    )
    assert code == 0
    assert "599/1926" in out
    assert "avg_mixing" in out


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


def test_analyze_bad_pair(capsys):
    code, out, err = run(
        capsys, "analyze", "--family", "path:3", "--pair", "0,9"
    )
    assert code == 2
    assert "error:" in err


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
    path = tmp_path / "third.json"
    rows = [["2/3", "-2/3", "1/3"], ["1/3", "2/3", "2/3"], ["2/3", "1/3", "-2/3"]]
    path.write_text(json.dumps({"n": 3, "entries": rows}))
    argv = ("discrete", "--unitary-file", str(path), "--format", fmt)
    calls = []
    engine = discrete._trace_form
    monkeypatch.setattr(discrete, "_trace_form", lambda v: calls.append(1) or engine(v))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    monkeypatch.setattr(
        avgmix.cli,
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
    ],
)
def test_loop_weights_follow_the_library_rules(capsys, loops, message):
    code, _, err = run(capsys, "compute", "--family", "path:3", "--loops", loops)
    assert code == 2
    assert message in err


def test_integer_valued_float_loop_weight_accepted(capsys):
    as_float = run_json(capsys, "compute", "--family", "path:3", "--loops", "0=2.0")
    assert as_float == run_json(capsys, "compute", "--family", "path:3", "--loops", "0=2")
