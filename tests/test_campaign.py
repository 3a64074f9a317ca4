"""Campaign config round-trips, determinism, accounting, and sharpness rows."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench.campaign import CampaignConfig, Cell, run_campaign


def small_config(**overrides):
    base = dict(
        theorems=("A", "B", "D1"),
        n_min=6,
        n_max=7,
        p_list=(Fraction(3, 5), Fraction(4, 5)),
        seed_list=tuple(range(1, 9)),
        quota=3,
        a_ab=((1, 2),),
        a_n=(1,),
        b_m=(2, 3),
        b_n=(1,),
        d1_ab=((2, 3),),
        d1_n=(1,),
        d1_k=(2, "b"),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_config_round_trips_through_text():
    config = small_config(extremal=((1, 2, 3, 1),), output_json="out.json")
    assert CampaignConfig.from_text(config.to_text()) == config


# the text of the default config at the parent of the theorem table, less
# the `budget` line of the search no cell runs; the report header embeds
# it, so it must not change otherwise
DEFAULT_CONFIG_TEXT = (
    "theorems = A,B,C,E,D1\nn_min = 7\nn_max = 10\np_list = 3/5,3/4\n"
    "seed_list = " + ",".join(str(s) for s in range(1, 41)) + "\n"
    "quota = 25\ncap_n = 12\ncap_deletions = 500\n"
    "A.ab = 1:2,2:3\nA.n = 1\nB.m = 2,3,4\nB.n = 1\nC.ab = 2:3\nC.n = 1\n"
    "D.ab = 2:3\nD.n = 1\nE.ab = 2:3\nD1.ab = 2:3\nD1.n = 1\nD1.k = 2,b\n"
    "extremal = \noutput_json = \noutput_csv = \n"
)


def test_default_config_text_is_pinned():
    assert CampaignConfig().to_text() == DEFAULT_CONFIG_TEXT


_ints = st.lists(st.integers(1, 9), max_size=3).map(tuple)
_pairs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=3,
).map(tuple)
_paths = st.none() | st.text("abc./_-", min_size=1, max_size=8)


def _all_or_none(*axes):
    """A theorem's axes as drawn, or all empty when one is: an empty axis
    leaves every value of the others without a cell."""
    return axes if all(axes) else tuple(() for _ in axes)


@st.composite
def valid_configs(draw):
    """Configs that validate: every listed value yields a cell."""
    n_min = draw(st.integers(1, 9))
    d1_ab = draw(_pairs)
    # every D1 cell needs k <= b
    k_max = min((b for _, b in d1_ab), default=6)
    # a B cell needs 2n <= m: each m has the smallest n, each kept n the
    # largest m
    b_n = draw(_ints)
    b_m = ()
    if b_n:
        b_m = tuple(draw(st.lists(st.integers(2 * min(b_n), 18), min_size=1, max_size=3)))
        b_n = tuple(v for v in b_n if 2 * v <= max(b_m))
    a_ab, a_n = _all_or_none(draw(_pairs), draw(_ints))
    c_ab, c_n = _all_or_none(draw(_pairs), draw(_ints))
    d_ab, d_n = _all_or_none(draw(_pairs), draw(_ints))
    d1_ab, d1_n, d1_k = _all_or_none(
        d1_ab, draw(_ints),
        tuple(draw(st.lists(st.integers(2, k_max) | st.just("b"), max_size=3))),
    )
    return CampaignConfig(
        theorems=tuple(draw(st.lists(st.sampled_from(["A", "B", "C", "D", "E", "D1"]),
                                     max_size=4))),
        n_min=n_min,
        n_max=draw(st.integers(n_min, 12)),
        p_list=tuple(draw(st.lists(st.fractions(0, 1, max_denominator=20), max_size=3))),
        seed_list=draw(_ints),
        quota=draw(st.integers(1, 30)),
        cap_n=draw(st.integers(0, 20)),
        cap_deletions=draw(st.integers(0, 5000)),
        a_ab=a_ab, a_n=a_n, b_m=b_m, b_n=b_n,
        c_ab=c_ab, c_n=c_n, d_ab=d_ab, d_n=d_n,
        e_ab=draw(_pairs), d1_ab=d1_ab, d1_n=d1_n, d1_k=d1_k,
        extremal=tuple(draw(st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
                      st.integers(1, 3)).map(lambda q: (q[0], q[1], q[1] + q[2], q[3]))
            # a = 1 with n = 1 leaves H without a deletion V0
            .filter(lambda q: q[1] > 1 or q[3] > 1),
            max_size=2,
        ))),
        output_json=draw(_paths),
        output_csv=draw(_paths),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_text_round_trips_over_valid_configs(config):
    config.validate()
    assert CampaignConfig.from_text(config.to_text()) == config


def test_config_file_round_trip(tmp_path):
    config = small_config()
    path = tmp_path / "campaign.cfg"
    config.to_file(path)
    assert CampaignConfig.from_file(path) == config


def test_config_unknown_field_is_named():
    with pytest.raises(ValueError, match="wibble"):
        CampaignConfig.from_text("wibble = 3\n")


def test_config_budget_key_is_refused():
    # no campaign cell runs the constructive search, so no budget is read
    with pytest.raises(ValueError, match="config line 2: unknown field 'budget'"):
        CampaignConfig.from_text("quota = 3\nbudget = 5\n")


def test_config_bad_value_names_field():
    with pytest.raises(ValueError, match="A.ab"):
        CampaignConfig.from_text("A.ab = 2:x\n")
    with pytest.raises(ValueError, match="quota"):
        small_config(quota=0).validate()
    with pytest.raises(ValueError, match="a < b"):
        small_config(a_ab=((3, 2),)).validate()
    with pytest.raises(ValueError, match="theorem"):
        small_config(theorems=("A", "Z")).validate()
    with pytest.raises(ValueError, match="theorem"):  # not a campaign statement
        small_config(theorems=("LemmaH",)).validate()
    with pytest.raises(ValueError, match="D1.k"):
        small_config(d1_k=(1,)).validate()
    with pytest.raises(ValueError, match=r"config field 'A.ab': need a:b pairs, got \(2, 3, 4\)"):
        CampaignConfig.from_text("A.ab = 2:3:4\n")
    with pytest.raises(ValueError, match=r"field 'extremal': need m:a:b:n quads, got \(1, 2, 3\)"):
        CampaignConfig.from_text("extremal = 1:2:3\n")
    for key in ("A.n", "B.n", "B.m", "C.n", "D.n", "D1.n"):
        with pytest.raises(ValueError, match=rf"config field '{key}': need integers >= 1, got 0"):
            CampaignConfig.from_text(f"{key} = 0\n")


def test_config_refuses_k_above_b_before_any_sampling(monkeypatch):
    import factorbench.campaign as campaign

    def no_sampling(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("graphs drawn for an invalid config")

    monkeypatch.setattr(campaign, "generate_random", no_sampling)
    with pytest.raises(
        ValueError, match=r"config cell D1\(a=2,b=3,k=4,n=1\): need 2 <= k <= b, got k=4, b=3"
    ):
        CampaignConfig.from_text("theorems = D1\nD1.ab = 2:3\nD1.k = 4\n")


@pytest.mark.parametrize("key", ["cap_n", "cap_deletions"])
def test_config_refuses_a_negative_cap_before_any_work(monkeypatch, key):
    import factorbench.avoidance as avoidance
    import factorbench.campaign as campaign

    def no_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("premise or deletion work ran for an invalid config")

    for work in ("generate_random", "theorem_premises", "extremal_sharpness"):
        monkeypatch.setattr(campaign, work, no_work)
    for row in avoidance.THEOREMS.values():
        monkeypatch.setattr(avoidance, row.check, no_work)
    message = rf"config field '{key}': must be >= 0"
    with pytest.raises(ValueError, match=message):
        CampaignConfig.from_text(f"{key} = -1\n")
    with pytest.raises(ValueError, match=message):
        run_campaign(small_config(extremal=((1, 2, 3, 1),), **{key: -1}))
    small_config(**{key: 0}).validate()


def test_config_refuses_an_extremal_quad_without_v0_before_any_draw(monkeypatch):
    import factorbench.campaign as campaign

    def no_work(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a draw or an extremal check ran for an invalid config")

    for work in ("generate_random", "extremal_sharpness"):
        monkeypatch.setattr(campaign, work, no_work)
    message = (
        r"config field 'extremal': invalid parameters \(1, 1, 2, 1\): H\(1,1,2,1\) has no "
        r"deletion V0: its large clique has 0 vertices off the pendant matching, fewer than n=1"
    )
    with pytest.raises(ValueError, match=message):
        CampaignConfig.from_text("extremal = 1:1:2:1\n")
    with pytest.raises(ValueError, match=message):
        run_campaign(small_config(extremal=((1, 1, 2, 1),)))
    small_config(extremal=((1, 1, 2, 2),)).validate()


def test_config_rejects_extremal_beyond_graph6():
    from factorbench import GRAPH6_MAX_N, build_extremal_H

    # H(1,2,3,13) has 61 vertices and H(1,2,3,14) 65
    assert build_extremal_H(1, 2, 3, 13).graph.n <= GRAPH6_MAX_N
    assert build_extremal_H(1, 2, 3, 14).graph.n > GRAPH6_MAX_N
    small_config(extremal=((1, 2, 3, 13),)).validate()
    with pytest.raises(ValueError, match="config field 'extremal'.*65 vertices"):
        small_config(extremal=((1, 2, 3, 14),)).validate()
    with pytest.raises(ValueError, match="config field 'extremal'.*169 vertices"):
        CampaignConfig.from_text("extremal = 1:2:3:40\n")


def test_config_comments_and_blanks_are_ignored():
    text = "# comment\n\nquota = 7\n"
    assert CampaignConfig.from_text(text).quota == 7


def test_config_refuses_a_grid_value_that_yields_no_cell(monkeypatch):
    import factorbench.campaign as campaign

    def no_sampling(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("graphs drawn for an invalid config")

    monkeypatch.setattr(campaign, "generate_random", no_sampling)
    # B needs 2n <= m: m = 1 has no n, and n = 2 needs m >= 4
    with pytest.raises(ValueError, match=r"config field 'B.m': value 1 yields no B cell"):
        CampaignConfig.from_text("theorems = B\nB.m = 1\nB.n = 1\nquota = 1\n")
    with pytest.raises(ValueError, match=r"config field 'B.n': value 2 yields no B cell"):
        small_config(b_m=(2, 3), b_n=(1, 2)).validate()
    with pytest.raises(ValueError, match=r"config field 'A.ab': value 1:2 yields no A cell"):
        small_config(a_n=()).validate()
    with pytest.raises(ValueError, match=r"config field 'D1.n': value 1 yields no D1 cell"):
        small_config(d1_ab=()).validate()  # an empty axis leaves the others no cell
    # only the listed theorems' grids are checked
    small_config(theorems=("A",), b_m=(1,)).validate()
    with pytest.raises(ValueError, match=r"'B.m': value 1"):
        run_campaign(small_config(b_m=(1, 2)))


def test_cells_drop_out_of_range_star_cells():
    config = small_config(b_m=(2, 3, 4), b_n=(1, 2))
    config.validate()  # every listed m and n has a cell
    cells = [c for c in config.cells() if c.theorem == "B"]
    assert {(c.params["m"], c.params["n"]) for c in cells} == {
        (2, 1), (3, 1), (4, 1), (4, 2),
    }


def test_cells_resolve_symbolic_k():
    config = small_config()
    kinds = {(c.params["k"]) for c in config.cells() if c.theorem == "D1"}
    assert kinds == {2, 3}


def test_campaign_runs_clean_and_accounts():
    report = run_campaign(small_config())
    agg = report.aggregates
    assert agg["counterexample"] == 0
    assert agg["total"] == len(report.instances)
    assert (
        agg["verified"] + agg["vacuous"] + agg["counterexample"] + agg["capped"]
        == agg["total"]
    )
    # every kept instance satisfied its premises at sampling time
    for row in report.instances:
        assert row["outcome"] == "verified"
    for cell in report.cells:
        assert cell["kept"] <= small_config().quota
        assert cell["draws"] == cell["rejected_premise"] + cell["kept"] or (
            cell["kept"] == small_config().quota
        )


def test_campaign_is_deterministic_modulo_timestamp():
    a = run_campaign(small_config()).to_json_dict()
    b = run_campaign(small_config()).to_json_dict()
    a["header"].pop("timestamp")
    b["header"].pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_campaign_parallel_matches_serial():
    config = small_config(extremal=((1, 2, 3, 1),))
    serial = run_campaign(config).to_json_dict()
    parallel = run_campaign(config, workers=2).to_json_dict()
    for d in (serial, parallel):
        d["header"].pop("timestamp")
        d["header"].pop("workers")
        # rows come in instance order, the extremal row last
        assert [r["index"] for r in d["instances"]] == list(range(len(d["instances"])))
        assert d["instances"][-1]["expected_failure"]
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_campaign_extremal_rows_are_expected_failures():
    report = run_campaign(small_config(extremal=((1, 2, 3, 1),)))
    rows = [r for r in report.instances if r["expected_failure"]]
    assert len(rows) == 1
    row = rows[0]
    assert row["outcome"] == "vacuous"  # premises fail by construction
    assert row["conclusion"] is False
    assert row["sharpness"]["strictly_below"] is True
    assert row["sharpness"]["witness_ratio"] == "9/4"
    # the row still records the premises that `extremal` leaves out
    assert row["premises"] == {
        "min_degree": {"holds": False, "detail": "min degree 2 < 3"},
        "toughness": {"holds": False, "detail": "I(G) = 5/4 < 7/3 (threshold A)"},
    }
    assert row["witnesses"] == [[0]]
    # the verdict's parameters replace the quad, and the small clique
    # certifies the refusal of H - V0
    assert row["params"] == {"a": 2, "b": 3, "n": 1}
    assert row["counterexample"] == {
        "deletion": {"kind": "vertices", "members": [9]},
        "certificate": {"verdict": "none", "S": [0], "T": [1, 2, 3, 4], "delta": -1},
    }
    assert report.counterexamples == []  # not counted as counterexamples


def test_campaign_writes_outputs(tmp_path):
    config = small_config(
        output_json=str(tmp_path / "report.json"),
        output_csv=str(tmp_path / "report.csv"),
    )
    run_campaign(config)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["aggregates"]["counterexample"] == 0
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("cell,draws,")
    assert len(csv_text.splitlines()) == 1 + len(data["cells"])


def test_campaign_report_certificates_re_verify():
    from factorbench import parse_graph6
    from factorbench.factors import delta, low_set
    from factorbench.graphs import delete_vertices

    report = run_campaign(small_config(extremal=((1, 2, 3, 1), (2, 2, 3, 1))))
    for row in report.instances:
        if "counterexample" not in row:
            continue
        cert = row["counterexample"]["certificate"]
        g = parse_graph6(row["graph6"])
        deletion = row["counterexample"]["deletion"]
        assert deletion["kind"] == "vertices"
        res = delete_vertices(g, deletion["members"])
        index = {old: new for new, old in enumerate(res.original_labels)}
        s_local = [index[v] for v in cert["S"]]
        a, b = row["params"]["a"], row["params"]["b"]
        assert delta(res.graph, s_local, a, b) == cert["delta"] < 0
        assert sorted(res.original_labels[x] for x in
                      low_set(res.graph, s_local, a)) == cert["T"]


def test_cell_labels_are_stable():
    assert Cell("A", {"a": 1, "b": 2, "n": 1}).label() == "A(a=1,b=2,n=1)"


def test_over_cap_theorem_e_draws_skip_pair_deletions(monkeypatch):
    import factorbench.avoidance as avoidance

    def no_pair_deletions(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("pair deletions enumerated beyond the cap")

    monkeypatch.setattr(avoidance, "_pair_deletion_premise", no_pair_deletions)
    config = small_config(
        theorems=("E",),
        n_min=7,
        n_max=8,
        p_list=(Fraction(17, 20),),
        quota=2,
        cap_deletions=20,  # C(7,2) = 21 and C(8,2) = 28 pair deletions
    )
    report = run_campaign(config)
    assert report.aggregates["capped"] == report.aggregates["total"] == 2
    for row in report.instances:
        assert row["outcome"] == "capped"
        assert "exceed the cap of 20" in row["error"]


def test_campaign_runs_the_check_bound_on_avoidance(monkeypatch):
    import factorbench.avoidance as avoidance
    from factorbench.avoidance import AvoidanceVerdict

    calls = []

    def fake_check(g, a, b, n, k, **limits):
        calls.append((a, b, n, k, sorted(limits)))
        return AvoidanceVerdict("LemmaD1", {}, (), True, None)

    monkeypatch.setattr(avoidance, "check_lemma_D1", fake_check)
    report = run_campaign(small_config(theorems=("D1",)))
    assert report.aggregates["total"] == report.aggregates["verified"] == len(calls) > 0
    assert {c[:4] for c in calls} == {(2, 3, 1, 2), (2, 3, 1, 3)}
    assert {tuple(c[4]) for c in calls} == {("cap_n",)}


def test_campaign_gives_full_mode_a_only_the_deletion_cap(monkeypatch):
    import factorbench.avoidance as avoidance
    from factorbench.avoidance import AvoidanceVerdict

    calls = []

    def fake_check(g, a, b, n, **limits):
        calls.append((a, b, n, sorted(limits)))
        return AvoidanceVerdict("A", {}, (), True, None)

    monkeypatch.setattr(avoidance, "check_vertex_deletion_all", fake_check)
    report = run_campaign(small_config(theorems=("A",)))
    assert report.aggregates["total"] == report.aggregates["verified"] == len(calls) > 0
    assert {c[:3] for c in calls} == {(1, 2, 1)}
    assert {tuple(c[3]) for c in calls} == {("cap_deletions",)}
