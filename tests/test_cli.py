"""CLI contract: subcommands, output formats, exit codes."""

import json

import pytest

from factorbench import complete_graph, cycle_graph, emit_graph6, path_graph, star_graph
from factorbench.cli import main


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


@pytest.mark.parametrize("name", ["FACTORBENCH_CAP_N", "FACTORBENCH_CAP_DELETIONS"])
def test_non_integer_cap_variable_is_usage_error(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "twelve")
    code, out, err = run_cli(capsys, ["toughness", "-"], stdin="", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith(f"error: environment variable {name} must be an integer")


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
        return AvoidanceVerdict("C", {"a": a, "b": b, "n": n}, (), True, None)

    monkeypatch.setattr(avoidance, "check_matching_deletion", fake_check)
    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(
        capsys, ["avoid", str(path), "--mode", "matching", "--a", "1", "--b", "2", "--n", "1"]
    )
    assert code == 0 and json.loads(out)["outcome"] == "verified"
    assert calls == [(5, 1, 2, 1, ["cap_deletions", "cap_n"])]


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


# sha256 of the 604-byte stdout of `extremal --m 1 --a 2 --b 3 --n 1`;
# extremal reads no budget, so `--budget` must not change it
EXTREMAL_1231_SHA256 = "d977582ae52d71bce3774913fd2453ce8096d3f8cebbee1e585382f623c78da1"


def test_extremal_output_bytes_are_pinned(capsys):
    import hashlib

    argv = ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1"]
    for extra in ([], ["--budget", "1"]):
        code, out, _ = run_cli(capsys, argv + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXTREMAL_1231_SHA256


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


def test_extremal_rejects_graph6_overflow_before_work(capsys, monkeypatch):
    # H(3,3,5,2) has 86 vertices, beyond the graph6 short form
    import factorbench.avoidance as avoidance

    def no_work(*args, **kwargs):
        raise AssertionError("the check ran before the size was rejected")

    monkeypatch.setattr(avoidance, "check_vertex_deletion_all", no_work)
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
    import factorbench.avoidance as avoidance
    from factorbench.avoidance import AvoidanceVerdict

    monkeypatch.setattr(
        avoidance, "check_vertex_deletion_all",
        lambda *args, **kwargs: AvoidanceVerdict("A", {}, (), True, None),
    )
    code, out, _ = run_cli(capsys, ["extremal", "--m", "1", "--a", "2", "--b", "3", "--n", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["violation"] is None and payload["identity"] is None


def test_factor_decides_beyond_the_scan_cap(tmp_path, capsys):
    path = tmp_path / "k20.g6"
    path.write_text(emit_graph6(complete_graph(20)) + "\n")
    code, out, _ = run_cli(capsys, ["factor", str(path), "--a", "1", "--b", "2"])
    assert code == 0
    assert json.loads(out) == {"verdict": "exists"}


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
