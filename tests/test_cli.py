import io

import pytest

from lhsdisc.cli import main
from lhsdisc.points import pointset_from_text, pointset_to_text
from lhsdisc.witness import NotLatinWarning


CONFIG = """kind = lhs
N = 64
d = 2
trials = 3
master_seed = 99
c_values = 3, 4
method = exact
strict_witness = true
"""


def run(argv):
    return main(argv)


def test_sample_then_stardisc_pipeline(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert run(["sample", "--kind", "lhs", "--n", "16", "--d", "2",
                "--seed", "7", "--out", str(out)]) == 0
    ps = pointset_from_text(out.read_text())
    assert ps.n_points == 16 and ps.dim == 2

    assert run(["stardisc", "--in", str(out), "--method", "exact"]) == 0
    text = capsys.readouterr().out
    value = float(next(line for line in text.splitlines()
                       if line.startswith("value = ")).split("=")[1])
    assert 0.0 < value <= 1.0
    assert "box = " in text and "side = " in text


STARDISC_BOX = "box = 0.2630154289807099 0.60295598153443408\n"
STARDISC_EXACT = ("kind = exact\nvalue = 0.17474660719356913\n" + STARDISC_BOX
                  + "side = closed\n")


@pytest.mark.parametrize("argv,expected", [
    (["--method", "exact"], "method = exact\n" + STARDISC_EXACT),
    (["--method", "exact2d"], "method = exact2d\n" + STARDISC_EXACT),
    (["--method", "estimate"], "method = estimate\nkind = lower-bound\n"
     "value = 0.17474660719356913\n" + STARDISC_BOX),
    (["--method", "estimate", "--budget", "20", "--seed", "3"],
     "method = estimate\nkind = lower-bound\nvalue = 0.14153630091858321\n"
     "box = 0.2630154289807099 0.41238530949213525\n"),
], ids=["exact", "exact2d", "estimate", "estimate-budget-seed"])
def test_stardisc_stdout_bytes_pinned(tmp_path, capsys, argv, expected):
    out = tmp_path / "p.txt"
    assert run(["sample", "--kind", "lhs", "--n", "12", "--d", "2", "--seed", "1",
                "--out", str(out)]) == 0
    assert run(["stardisc", "--in", str(out)] + argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,expected", [
    (["--method", "exact"], "method = exact\nkind = exact\nvalue = 0.24048657324154216\n"
     "box = 0.96143145721625911 0.41238530949213525 0.81673662188402296\nside = open\n"),
    (["--method", "estimate", "--budget", "600"],
     "method = estimate\nkind = lower-bound\nvalue = 0.20999112223037603\n"
     "box = 0.87088950686413302 0.41238530949213525 0.81673662188402296\n"),
], ids=["exact", "estimate-budget"])
def test_stardisc_3d_stdout_bytes_pinned(tmp_path, capsys, argv, expected):
    out = tmp_path / "p.txt"
    assert run(["sample", "--kind", "lhs", "--n", "12", "--d", "3", "--seed", "1",
                "--out", str(out)]) == 0
    assert run(["stardisc", "--in", str(out)] + argv) == 0
    assert capsys.readouterr().out == expected


def test_sample_to_stdout_and_stardisc_from_stdin(capsys, monkeypatch):
    assert run(["sample", "--kind", "uniform", "--n", "4", "--d", "1",
                "--seed", "3", "--out", "-"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["stardisc", "--in", "-", "--method", "estimate",
                "--budget", "10"]) == 0
    assert "kind = lower-bound" in capsys.readouterr().out


def test_sample_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["sample", "--kind", "lhs", "--n", "4", "--d", "1",
             "--out", str(tmp_path / "p.txt")])
    assert err.value.code == 2


def test_stardisc_exact2d_requires_dim2(tmp_path, capsys):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "8", "--d", "3", "--seed", "1",
         "--out", str(out)])
    assert run(["stardisc", "--in", str(out), "--method", "exact2d"]) == 2


def test_stardisc_exact2d_rejects_budget(tmp_path, capsys):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "8", "--d", "2", "--seed", "1",
         "--out", str(out)])
    capsys.readouterr()
    assert run(["stardisc", "--in", str(out), "--method", "exact2d", "--budget", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: method exact2d takes no budget, got 3\n"


def test_stardisc_budget_guard(tmp_path):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "uniform", "--n", "50", "--d", "3", "--seed", "1",
         "--out", str(out)])
    assert run(["stardisc", "--in", str(out), "--method", "exact",
                "--budget", "100"]) == 2


def test_stardisc_out_of_range_coordinate_message(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("# pointset v1\n1 1\n1.0\n"))
    assert run(["stardisc", "--in", "-", "--method", "exact"]) == 2
    assert capsys.readouterr().err == "error: coordinate [0,0] = 1.0 outside [0, 1)\n"


@pytest.mark.parametrize("method", ["exact", "estimate"])
def test_stardisc_budget_below_one_exit_2(tmp_path, capsys, method):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "8", "--d", "2", "--seed", "1",
         "--out", str(out)])
    with pytest.raises(SystemExit) as err:
        run(["stardisc", "--in", str(out), "--method", method, "--budget", "0"])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--kind", "lhs", "--n", "0", "--d", "2", "--seed", "1", "--out", "-"],
    ["sample", "--kind", "lhs", "--n", "4", "--d", "0", "--seed", "1", "--out", "-"],
    ["prob", "lemma6", "--depth", "0", "--q", "0.0125"],
    ["prob", "lemma6", "--depth", "4", "--q", "0.0125", "--trees", "0"],
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


def test_prob_lemma6_floor_outside_unit_interval_exit_2(capsys):
    assert run(["prob", "lemma6", "--depth", "4", "--q", "1.5"]) == 2
    assert "q_floor" in capsys.readouterr().err


def test_prob_lemma6_depth_over_guard_exit_2(capsys):
    # Seed 6 draws the largest depth for the first tree, 21 > MAX_DEPTH, and
    # seed 0 one within the guard: --depth itself is checked.
    for seed in ("6", "0"):
        assert run(["prob", "lemma6", "--depth", "21", "--q", "0.0125", "--seed", seed]) == 2
        assert "exceeds guard" in capsys.readouterr().err


def test_stardisc_input_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_bytes(b"# pointset v1\n1 1\n\xff\xfe\n")
    assert run(["stardisc", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unexpected_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "8", "--d", "2", "--seed", "1",
         "--out", str(out)])

    def broken_kernel(*args, **kwargs):
        raise ValueError("bug inside the kernel")

    monkeypatch.setattr("lhsdisc.discrepancy.star_discrepancy_exact", broken_kernel)
    with pytest.raises(ValueError, match="bug inside the kernel"):
        run(["stardisc", "--in", str(out), "--method", "exact"])


def test_witness_strict_gate_exit_2(tmp_path, capsys):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "64", "--d", "2", "--seed", "5",
         "--out", str(out)])
    assert run(["witness", "--in", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_witness_trace_output(tmp_path, capsys):
    out = tmp_path / "p.txt"
    run(["sample", "--kind", "lhs", "--n", "3200", "--d", "2", "--seed", "5",
         "--out", str(out)])
    assert run(["witness", "--in", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("lower_bound = ")
    assert "step = 2" in lines
    assert any(line.startswith("k_count = ") for line in lines)
    assert any(line.startswith("threshold = ") for line in lines)


def test_witness_trace_shows_the_integers_of_an_exact_tie(tmp_path, capsys):
    # N = 7840, d = 2 (k = 49), W = 640, Y = 3: m = kW/N = 4 and
    # Y = m - sqrt(m)/2 exactly, while the float threshold rounds below 3.
    from test_witness import first_step_instance

    out = tmp_path / "tie.txt"
    out.write_text(pointset_to_text(first_step_instance(7840, 640, 3)))
    with pytest.warns(NotLatinWarning):
        assert run(["witness", "--in", str(out), "--force"]) == 0
    lines = capsys.readouterr().out.splitlines()
    step = lines[lines.index("step = 2"):]
    fields = dict(line.split(" = ") for line in step[1:step.index("")])
    assert (fields["W"], fields["Y"], fields["eta"]) == ("640", "3", "1")
    assert float(fields["threshold"]) < 3
    k_w, y_n, n = int(fields["kW"]), int(fields["YN"]), 7840
    assert (k_w, y_n) == (49 * 640, 3 * n)
    gap = k_w - y_n
    assert gap >= 0 and 4 * gap * gap == k_w * n


@pytest.mark.parametrize("argv,expected", [
    (["theorem3", "--N", "60", "--W", "20", "--n", "30"],
     "check = theorem3\nparam N = 60\nparam W = 20\nparam n = 30\n"
     "param p = 0.3333333333333333\ncomputed delta = 0.1625722201829385\n"
     "bound lower = 0.017554479418886198\nbound upper = 0.4915254237288136\n"
     "margin = 0.1450177407640523\nresult = PASS\n"),
    (["lemma4", "--n", "16", "--p", "0.25"],
     "check = lemma4\nparam n = 16\nparam p = 0.25\ncomputed cutoff = 3.0\n"
     "computed mass = 0.4049871100578458\nbound floor = 0.01875\n"
     "margin = 0.38623711005784583\nresult = PASS\n"),
    (["theorem5", "--k", "50", "--q", "0.5", "--t", "0.2"],
     "check = theorem5\nparam k = 50\nparam q = 0.5\nparam t = 0.2\n"
     "computed tail = 0.0013010857283610748\nbound hoeffding = 0.018315638888734165\n"
     "margin = 0.01701455316037309\nresult = PASS\n"),
    (["lemma6", "--depth", "12", "--q", "0.0125", "--trees", "20", "--seed", "1"],
     "trees = 20\ncheck = lemma6\nparam depth = 12\nparam q = 0.0125\n"
     "computed worst_at = (12, 12)\nmargin = 2.177105923317768e-07\nresult = PASS\n"),
], ids=["theorem3", "lemma4", "theorem5", "lemma6"])
def test_prob_stdout_bytes_pinned(capsys, argv, expected):
    assert run(["prob"] + argv) == 0
    assert capsys.readouterr().out == expected


def test_prob_lemma4_pass_exit_0(capsys):
    assert run(["prob", "lemma4", "--n", "16", "--p", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "result = PASS" in out


def test_prob_lemma4_hypothesis_exit_2(capsys):
    assert run(["prob", "lemma4", "--n", "8", "--p", "0.25"]) == 2


def test_prob_theorem3_exit_codes(capsys):
    assert run(["prob", "theorem3", "--N", "10", "--W", "5", "--n", "5"]) == 0
    assert run(["prob", "theorem3", "--N", "10", "--W", "5", "--n", "1"]) == 2


def test_prob_theorem5(capsys):
    assert run(["prob", "theorem5", "--k", "50", "--q", "0.5", "--t", "0.2"]) == 0


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_prob_theorem5_non_finite_t_exit_2(capsys, t):
    # A usage error (2), not a failed check (1) or a traceback.
    assert run(["prob", "theorem5", "--k", "16", "--q", "0.5", "--t", t]) == 2
    assert capsys.readouterr().err == (
        f"error: need k >= 1, q in (0,1), finite t > 0, got k=16, q=0.5, t={t}\n")


def test_prob_lemma6(capsys):
    assert run(["prob", "lemma6", "--depth", "6", "--q", "0.0125",
                "--trees", "5", "--seed", "3"]) == 0
    assert "trees = 5" in capsys.readouterr().out


def test_experiment_reproducible(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG)
    rec1, sum1 = tmp_path / "r1.csv", tmp_path / "s1.json"
    rec2, sum2 = tmp_path / "r2.csv", tmp_path / "s2.json"
    assert run(["experiment", "--config", str(config),
                "--out-records", str(rec1), "--out-summary", str(sum1)]) == 0
    assert run(["experiment", "--config", str(config),
                "--out-records", str(rec2), "--out-summary", str(sum2)]) == 0
    assert rec1.read_bytes() == rec2.read_bytes()
    assert sum1.read_bytes() == sum2.read_bytes()


def test_experiment_bad_config_exit_2(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("kind = lhs\nunknown = 1\n")
    assert run(["experiment", "--config", str(config),
                "--out-records", str(tmp_path / "r.csv"),
                "--out-summary", str(tmp_path / "s.json")]) == 2


def test_experiment_duplicate_key_exit_2(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG + "N = 200\n")
    assert run(["experiment", "--config", str(config),
                "--out-records", str(tmp_path / "r.csv"),
                "--out-summary", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == "error: line 9: duplicate key 'N'\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("c_values,message", [
    ("nan, -1, inf", "c_values must be finite and positive, got (nan, -1.0, inf)"),
    ("1, 1.0000001", "c_values must differ in 6 significant digits, got ['1', '1']"),
])
def test_experiment_bad_c_values_exit_2(tmp_path, capsys, c_values, message):
    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG.replace("c_values = 3, 4", f"c_values = {c_values}"))
    assert run(["experiment", "--config", str(config),
                "--out-records", str(tmp_path / "r.csv"),
                "--out-summary", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.json").exists()


def test_experiment_without_any_result_exit_2(tmp_path, capsys):
    # Every trial is over the exact budget (201^4 corners) and the strict
    # witness needs N >= 6400: nothing to summarize.
    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG.replace("N = 64", "N = 200").replace("d = 2", "d = 4")
                      .replace("trials = 3", "trials = 1"))
    assert run(["experiment", "--config", str(config),
                "--out-records", str(tmp_path / "r.csv"),
                "--out-summary", str(tmp_path / "s.json")]) == 2
    assert "no successful trial" in capsys.readouterr().err


def test_help_runs(capsys):
    for argv in (["--help"], ["sample", "--help"], ["stardisc", "--help"],
                 ["witness", "--help"], ["prob", "--help"],
                 ["prob", "lemma6", "--help"], ["experiment", "--help"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 0
        assert capsys.readouterr().out
