"""CLI contract: subcommands, output formats, exit codes."""

import json

import pytest

from factorbench import complete_graph, cycle_graph, emit_graph6, path_graph, star_graph
from factorbench.cli import build_parser, main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_toughness_lines(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(
        "\n".join(
            [emit_graph6(complete_graph(5)), emit_graph6(cycle_graph(4)), ""]
        )
    )
    code, out, err = run_cli(capsys, ["toughness", str(path)])
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines[0].startswith("4/1")
    assert lines[1].startswith("1/1")
    assert "witness={" in lines[1]


def test_toughness_continues_past_parse_errors(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("not graph6 ***\n" + emit_graph6(complete_graph(3)) + "\n")
    code, out, err = run_cli(capsys, ["toughness", str(path)])
    assert code == 2
    assert "line 1" in err
    assert out.splitlines() == ["2/1 witness={}"]


def test_toughness_empty_input_is_success(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, err = run_cli(capsys, ["toughness", str(path)])
    assert code == 0 and out == ""


def test_factor_find_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    path.write_text(emit_graph6(cycle_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "2", "--b", "2", "--find"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "exists"
    assert len(payload["factorEdges"]) == 4

    p4 = tmp_path / "p4.g6"
    p4.write_text(emit_graph6(path_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(p4), "--a", "2", "--b", "3"])
    assert code == 1
    payload = json.loads(out)
    assert payload == {"S": [], "T": [0, 3], "delta": -2, "verdict": "none"}


def test_factor_star_decomposition_included(tmp_path, capsys):
    path = tmp_path / "claw.g6"
    path.write_text(emit_graph6(star_graph(3)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", "3", "--find"])
    assert code == 0
    payload = json.loads(out)
    assert payload["stars"] == [{"center": 0, "leaves": [1, 2, 3]}]
    # the forest is pruned from the printed factor
    for g, b in [(complete_graph(4), 3), (complete_graph(5), 2), (cycle_graph(5), 2)]:
        path.write_text(emit_graph6(g) + "\n")
        code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", str(b), "--find"])
        payload = json.loads(out)
        factor = {tuple(e) for e in payload["factorEdges"]}
        assert code == 0 and payload["stars"]
        for star in payload["stars"]:
            for leaf in star["leaves"]:
                assert tuple(sorted((star["center"], leaf))) in factor


def test_factor_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("***\n")
    code, _, err = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", "2"])
    assert code == 2 and "error" in err


def test_factor_refuses_budget(capsys):
    # factor builds every factor in polynomial time, so nothing takes a budget
    with pytest.raises(SystemExit) as exc:
        main(["factor", "-", "--a", "2", "--b", "2", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_factor_decides_k_factor_parity(tmp_path, capsys):
    # K9 has no 3-factor (9 * 3 is odd); it used to exhaust the search budget
    path = tmp_path / "k9.g6"
    path.write_text(emit_graph6(complete_graph(9)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "3", "--b", "3"])
    assert code == 1
    assert json.loads(out) == {"verdict": "none"}


def test_avoid_edge_mode(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    path.write_text(emit_graph6(cycle_graph(4)) + "\n")
    code, out, _ = run_cli(
        capsys,
        ["avoid", str(path), "--mode", "edge", "--edge", "0,1", "--a", "2", "--b", "3"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["conclusion"] is False
    assert payload["counterexample"]["certificate"]["S"] == []


@pytest.mark.parametrize("edge", ["0", "0,1,2", "a,b"])
def test_avoid_malformed_edge_is_usage_error(capsys, monkeypatch, edge):
    argv = ["avoid", "-", "--mode", "edge", "--edge", edge, "--a", "2", "--b", "3"]
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument --edge: expected two integers as 'u,v', got {edge!r}\n")
    assert "Traceback" not in err


def test_avoid_edge_outside_the_graph_is_usage_error(capsys, monkeypatch):
    argv = ["avoid", "-", "--mode", "edge", "--edge", "0,9", "--a", "2", "--b", "3"]
    code, out, err = run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: (0, 9) is not an edge of the graph\n")


def test_avoid_edge_beyond_the_vertices_is_usage_error(capsys, monkeypatch):
    argv = ["avoid", "-", "--mode", "edge", "--edge", "5,6", "--a", "2", "--b", "3"]
    code, out, err = run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: (5, 6) is not an edge of the graph\n")


def test_avoid_matching_mode_verified(tmp_path, capsys):
    path = tmp_path / "k6.g6"
    path.write_text(emit_graph6(complete_graph(6)) + "\n")
    code, out, _ = run_cli(
        capsys,
        ["avoid", str(path), "--mode", "matching", "--a", "2", "--b", "3", "--n", "1"],
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "verified"


def test_avoid_edges_mode_vacuous(tmp_path, capsys):
    path = tmp_path / "claw.g6"
    path.write_text(emit_graph6(star_graph(3)) + "\n")
    code, out, _ = run_cli(
        capsys, ["avoid", str(path), "--mode", "edges", "--m", "2", "--n", "1"]
    )
    payload = json.loads(out)
    assert payload["outcome"] == "vacuous"
    # deleting any claw edge strands a leaf, so the conclusion also fails
    assert code == 1
    assert payload["conclusion"] is False


def test_avoid_edges_mode_refuses_m_1(tmp_path, capsys):
    # B is proved for 1 <= n <= m/2, so m = 1 is refused before any work
    path = tmp_path / "p4.g6"
    path.write_text(emit_graph6(path_graph(4)) + "\n")
    code, out, err = run_cli(
        capsys, ["avoid", str(path), "--mode", "edges", "--m", "1", "--n", "1"]
    )
    assert code == 2 and out == ""
    assert err == "error: m must be >= 2, got 1\n"


def test_avoid_refuses_budget(capsys):
    # no avoid mode runs the constructive search
    argv = ["avoid", "-", "--mode", "vertices", "--a", "1", "--b", "2", "--n", "1",
            "--budget", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_avoid_missing_parameter_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    path.write_text(emit_graph6(cycle_graph(4)) + "\n")
    code, out, err = run_cli(
        capsys, ["avoid", str(path), "--mode", "vertices", "--a", "2", "--b", "3"]
    )
    assert code == 2 and out == ""
    assert err == "error: avoid --mode vertices requires --n\n"


CAP_VARIABLES = ("FACTORBENCH_CAP_N", "FACTORBENCH_CAP_DELETIONS")


def not_read(name):
    # a set FACTORBENCH_CAP_* variable is refused whatever its value, like an unknown flag
    return f"error: environment variable {name} is not read; --cap-deletions is the only cap\n"


def run_to_exit(capsys, argv, stdin, monkeypatch):
    """``run_cli``, also where argparse refuses the command line by SystemExit."""
    try:
        return run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out, err


# subcommands that take no cap flag still refuse the cap variables
CAPLESS_ARGVS = (
    ["toughness", "-"],
    ["factor", "-", "--a", "1", "--b", "2"],
    ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1"],
)


@pytest.mark.parametrize(
    "name, argv",
    [
        pytest.param(name, argv, id=name if argv[0] == "toughness" else f"{argv[0]}-{name}")
        for argv in CAPLESS_ARGVS
        for name in CAP_VARIABLES
    ],
)
def test_non_integer_cap_variable_is_usage_error(capsys, monkeypatch, name, argv):
    monkeypatch.setenv(name, "twelve")
    code, out, err = run_cli(capsys, argv, stdin="", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", not_read(name))


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cap_deletions_defaults_to_the_avoidance_default():
    from factorbench.avoidance import DEFAULT_CAP_DELETIONS

    args = build_parser().parse_args(["avoid", "--mode", "edge"])
    assert args.cap_deletions == DEFAULT_CAP_DELETIONS == 500


def test_cap_variable_is_read_on_every_call(capsys, monkeypatch):
    # the parser is cached, but every call looks at the environment again;
    # K5 under vertex deletion with n = 1: five deletions
    argv = ["avoid", "-", "--mode", "vertices", "--a", "2", "--b", "3", "--n", "1"]
    monkeypatch.setenv("FACTORBENCH_CAP_DELETIONS", "1")
    code, out, err = run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", not_read("FACTORBENCH_CAP_DELETIONS"))
    monkeypatch.delenv("FACTORBENCH_CAP_DELETIONS")
    code, out, err = run_cli(
        capsys, argv + ["--cap-deletions", "1"], stdin="D~{\n", monkeypatch=monkeypatch
    )
    assert (code, out, err) == (3, "", "error: 5 deletions exceed the cap of 1\n")
    code, out, err = run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
    assert code == 0 and err == "" and json.loads(out)["outcome"] == "verified"


# the end of stderr for each refusal; argparse prints its usage line first
NEGATIVE_CAPS = {
    # avoid has no --cap-n flag any more
    "flag-cap-n": (["--cap-n", "-1"], {}, "error: unrecognized arguments: --cap-n -1\n"),
    "flag-cap-deletions": (
        ["--cap-deletions", "-5"], {},
        "error: argument --cap-deletions: must be an integer >= 0, got '-5'\n",
    ),
    "env-cap-deletions": (
        [], {"FACTORBENCH_CAP_DELETIONS": "-5"}, not_read("FACTORBENCH_CAP_DELETIONS")
    ),
    "env-cap-n": ([], {"FACTORBENCH_CAP_N": "-3"}, not_read("FACTORBENCH_CAP_N")),
}

# the parameters of each avoid mode; the edge mode's check takes no cap
AVOID_MODES = {
    "vertices": ["--a", "2", "--b", "3", "--n", "1"],
    "edges": ["--m", "2", "--n", "1"],
    "matching": ["--a", "2", "--b", "3", "--n", "1"],
    "edge": ["--edge", "0,1", "--a", "2", "--b", "3"],
}


@pytest.mark.parametrize("mode", list(AVOID_MODES))
@pytest.mark.parametrize("case", list(NEGATIVE_CAPS))
def test_negative_cap_is_usage_error_before_any_work(capsys, monkeypatch, case, mode):
    import factorbench.avoidance as avoidance
    import factorbench.cli as cli
    import factorbench.factors as factors
    from factorbench.avoidance import THEOREMS

    def no_work(*args, **kwargs):
        raise AssertionError("input, premise, flow or deletion work ran before the refusal")

    for row in THEOREMS.values():
        if row.mode:
            monkeypatch.setattr(avoidance, row.check, no_work)
    monkeypatch.setattr(avoidance, "theorem_premises", no_work)
    monkeypatch.setattr(factors, "solve", no_work)
    monkeypatch.setattr(cli, "parse_graph6", no_work)
    flags, env, message = NEGATIVE_CAPS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = ["avoid", "-", "--mode", mode, *AVOID_MODES[mode], *flags]
    code, out, err = run_to_exit(capsys, argv, "D~{\n", monkeypatch)
    assert (code, out) == (2, "")
    assert err.endswith(message)


@pytest.mark.parametrize("name", CAP_VARIABLES)
def test_negative_cap_variable_is_usage_error_on_every_subcommand(
    capsys, monkeypatch, tmp_path, name
):
    import factorbench.cli as cli
    from factorbench.campaign import CampaignConfig

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the cap variable was refused")

    for work in ("_read_lines", "isolated_toughness", "check_ab_factor", "extremal_sharpness",
                 "run_campaign"):
        monkeypatch.setattr(cli, work, no_work)
    monkeypatch.setattr(CampaignConfig, "from_file", no_work)
    monkeypatch.setenv(name, "-3")
    avoid = ["avoid", "-", "--mode", "vertices", *AVOID_MODES["vertices"]]
    for argv in (*CAPLESS_ARGVS, avoid, ["campaign", str(tmp_path / "campaign.cfg")]):
        code, out, err = run_cli(capsys, argv, stdin="D~{\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", not_read(name)), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "{missing}", "--a", "1", "--b", "2"],
        ["avoid", "{missing}", "--mode", "edge", "--edge", "0,1", "--a", "2", "--b", "3"],
        ["campaign", "{missing}"],
    ],
    ids=["factor", "avoid", "campaign"],
)
def test_missing_file_is_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent")
    code, out, err = run_cli(capsys, [a.format(missing=missing) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "absent" in err and "Traceback" not in err


def test_avoid_runs_the_check_bound_on_avoidance(tmp_path, capsys, monkeypatch):
    import factorbench.avoidance as avoidance
    from factorbench.avoidance import AvoidanceVerdict

    calls = []

    def fake_check(g, a, b, n, **limits):
        calls.append((g.n, a, b, n, sorted(limits)))
        return AvoidanceVerdict("C", {"a": a, "b": b, "n": n}, ())

    monkeypatch.setattr(avoidance, "check_matching_deletion", fake_check)
    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(
        capsys, ["avoid", str(path), "--mode", "matching", "--a", "1", "--b", "2", "--n", "1"]
    )
    assert code == 0 and json.loads(out)["outcome"] == "verified"
    assert calls == [(5, 1, 2, 1, ["cap_deletions"])]


def test_avoid_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "k6.g6"
    path.write_text(emit_graph6(complete_graph(6)) + "\n")
    code, _, err = run_cli(
        capsys,
        [
            "avoid", str(path), "--mode", "vertices",
            "--a", "2", "--b", "3", "--n", "1", "--cap-deletions", "2",
        ],
    )
    assert code == 3 and "cap" in err


def test_extremal_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["witnessRatio"] == "9/4"
    assert payload["threshold"] == "7/3"
    assert payload["strictlyBelow"] is True
    assert payload["identity"] == {"aT_minus_d": 4, "bS": 3}
    assert payload["violation"]["S"] == [0]


# sha256 of the 604-byte stdout of `extremal --m 1 --a 2 --b 3 --n 1`
# and of the 1,457-byte stdout of `extremal --m 3 --a 3 --b 4 --n 1`;
# extremal reads no budget, so `--budget` must not change them
EXTREMAL_1231_SHA256 = "d977582ae52d71bce3774913fd2453ce8096d3f8cebbee1e585382f623c78da1"
EXTREMAL_3341_SHA256 = "dcb42061ab92f9f3ae499e1a72d9f89190e9370cb384bf81974c29b43a362354"

def extremal_argv(m, a, b, n):
    return ["extremal", "--m", str(m), "--a", str(a), "--b", str(b), "--n", str(n)]


def test_extremal_output_bytes_are_pinned(capsys):
    import hashlib

    pins = [((1, 2, 3, 1), 604, EXTREMAL_1231_SHA256), ((3, 3, 4, 1), 1457, EXTREMAL_3341_SHA256)]
    for quad, size, digest in pins:
        for extra in ([], ["--budget", "1"]):
            code, out, _ = run_cli(capsys, extremal_argv(*quad) + extra)
            assert code == 0
            assert len(out.encode()) == size
            assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_extremal_evaluates_no_premise(capsys, monkeypatch):
    import factorbench.avoidance as avoidance
    import factorbench.toughness as toughness

    criterion_3 = [(m, a, b, n) for a, b, n in ((2, 3, 1), (2, 4, 2), (3, 4, 1))
                   for m in (1, 2, 3)]
    expected = []
    for quad in criterion_3:
        code, out, _ = run_cli(capsys, extremal_argv(*quad))
        assert code == 0
        expected.append(out)

    def no_toughness(*args, **kwargs):
        raise AssertionError("extremal computed the isolated toughness of H")

    for module in (avoidance, toughness):
        monkeypatch.setattr(module, "isolated_toughness", no_toughness)
    for quad, out in zip(criterion_3, expected):
        assert run_cli(capsys, extremal_argv(*quad)) == (0, out, ""), quad


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "-", "--a", "2", "--b", "3", "--cap-deletions", "5"],
        ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1", "--cap-deletions", "5"],
    ],
    ids=["factor", "extremal"],
)
def test_cap_deletions_is_refused_where_it_is_never_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-deletions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "-", "--a", "1", "--b", "2", "--cap-n", "5"],
        ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1", "--cap-n", "5"],
        ["avoid", "-", "--mode", "vertices", "--a", "2", "--b", "3", "--n", "1", "--cap-n", "5"],
    ],
    ids=["factor", "extremal", "avoid"],
)
def test_cap_n_is_refused_where_no_subset_is_scanned(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-n 5" in capsys.readouterr().err


def test_unread_cap_variable_is_refused(capsys, monkeypatch):
    # a misspelled cap variable would otherwise leave the default cap in force unnoticed
    monkeypatch.setenv("FACTORBENCH_CAP_DELETION", "1")
    argv = ["avoid", "-", "--mode", "vertices", "--a", "2", "--b", "3", "--n", "1"]
    k16 = "O~~~~~~~~~~~~~~~~~~~~\n"
    code, out, err = run_cli(capsys, argv, stdin=k16, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == not_read("FACTORBENCH_CAP_DELETION")
    # with it unset, full-mode A answers K16, beyond the old 12-vertex cap
    monkeypatch.delenv("FACTORBENCH_CAP_DELETION")
    code, out, err = run_cli(capsys, argv, stdin=k16, monkeypatch=monkeypatch)
    assert (code, err) == (0, "") and json.loads(out)["outcome"] == "verified"


def test_extremal_rejects_graph6_overflow_before_work(capsys, monkeypatch):
    # H(3,3,5,2) has 86 vertices, beyond the graph6 short form
    import factorbench.avoidance as avoidance

    def no_work(*args, **kwargs):
        raise AssertionError("the check ran before the size was rejected")

    monkeypatch.setattr(avoidance, "check_ab_factor", no_work)
    code, out, err = run_cli(capsys, ["extremal", "--m", "3", "--a", "3", "--b", "5", "--n", "2"])
    assert code == 2
    assert out == ""
    assert "at most 62 vertices" in err and "86" in err
    # H(1,2,3,400) has 1609 vertices: refused before H is built
    monkeypatch.setattr(avoidance, "build_extremal_H", no_work)
    code, out, err = run_cli(capsys, ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "400"])
    assert code == 2
    assert out == ""
    assert "at most 62 vertices" in err and "1609" in err


def test_extremal_without_refutation_reports_negative(capsys, monkeypatch):
    import factorbench.cli as cli

    sharpness = cli.extremal_sharpness
    monkeypatch.setattr(cli, "extremal_sharpness", lambda *quad: (*sharpness(*quad)[:2], None))
    code, out, _ = run_cli(capsys, ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["violation"] is None and payload["identity"] is None


def test_extremal_refuses_a_quad_without_v0_before_work(capsys, monkeypatch):
    # a = 1 with n = 1 leaves no large-clique vertex off the pendant matching
    import factorbench.avoidance as avoidance

    def no_work(*args, **kwargs):
        raise AssertionError("H was built for a quad without V0")

    monkeypatch.setattr(avoidance, "build_extremal_H", no_work)
    code, out, err = run_cli(capsys, ["extremal", "--m", "1", "--a", "1", "--b", "2", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == (
        "error: H(1,1,2,1) has no deletion V0: its large clique has 0 vertices "
        "off the pendant matching, fewer than n=1\n"
    )
    # with n = 2 there is a V0, and H - V0 keeps a [1,2]-factor
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, ["extremal", "--m", "1", "--a", "1", "--b", "2", "--n", "2"])
    assert code == 1 and json.loads(out)["violation"] is None


def test_factor_decides_beyond_the_scan_cap(tmp_path, capsys):
    path = tmp_path / "k20.g6"
    path.write_text(emit_graph6(complete_graph(20)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", "2"])
    assert code == 0
    assert json.loads(out) == {"verdict": "exists"}
    # a refusal is certified by the flow's cut at any order
    path.write_text(emit_graph6(star_graph(19)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", "2"])
    assert code == 1
    assert json.loads(out) == {"verdict": "none", "S": [0], "T": list(range(1, 20)), "delta": -17}


def test_extremal_ratio_increases_with_m(capsys):
    from fractions import Fraction

    ratios = []
    for m in (1, 2, 3):
        _, out, _ = run_cli(
            capsys, ["extremal", "--m", str(m), "--a", "2", "--b", "3", "--n", "1"]
        )
        ratios.append(Fraction(json.loads(out)["witnessRatio"]))
    assert ratios == [Fraction(9, 4), Fraction(16, 7), Fraction(23, 10)]
    assert ratios[0] < ratios[1] < ratios[2] < Fraction(7, 3)


def test_campaign_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "theorems = D1\n"
        "n_min = 6\nn_max = 7\n"
        "p_list = 3/4\n"
        "seed_list = 1,2,3,4,5,6\n"
        "quota = 2\n"
        "D1.ab = 2:3\nD1.n = 1\nD1.k = 2\n"
        f"output_json = {tmp_path / 'r.json'}\n"
    )
    code, out, _ = run_cli(capsys, ["campaign", str(cfg)])
    assert code == 0
    assert "counterexamples=0" in out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["aggregates"]["total"] == report["aggregates"]["verified"]


def test_campaign_bad_config_exit(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mystery = 1\n")
    code, _, err = run_cli(capsys, ["campaign", str(cfg)])
    assert code == 2 and "mystery" in err


def _d1_config(tmp_path, report_name):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "theorems = D1\n"
        "n_min = 6\nn_max = 7\n"
        "p_list = 3/4\n"
        "seed_list = 1,2,3,4,5,6\n"
        "quota = 2\n"
        "D1.ab = 2:3\nD1.n = 1\nD1.k = 2\n"
        f"output_json = {tmp_path / report_name}\n"
    )
    return cfg


def test_campaign_seed_overrides_the_seed_list(tmp_path, capsys):
    cfg = _d1_config(tmp_path, "r.json")
    code, _, _ = run_cli(capsys, ["campaign", str(cfg), "--seed", "5"])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["instances"] and {r["seed"] for r in report["instances"]} == {5}
    assert "seed_list = 5\n" in report["header"]["config"]


def test_campaign_output_json_overrides_the_report_path(tmp_path, capsys):
    cfg = _d1_config(tmp_path, "configured.json")
    override = tmp_path / "override.json"
    code, _, _ = run_cli(capsys, ["campaign", str(cfg), "--output-json", str(override)])
    assert code == 0
    assert not (tmp_path / "configured.json").exists()
    report = json.loads(override.read_text())
    assert report["aggregates"]["total"] == report["aggregates"]["verified"]
    assert f"output_json = {override}" in report["header"]["config"]
