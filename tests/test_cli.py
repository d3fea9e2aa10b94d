import json

import pytest

from cuspcorr.cli import main, parse_and_dispatch


def read_csv(path):
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def test_help_exits_zero(capsys):
    assert parse_and_dispatch(["--help"]) == 0


def test_unknown_flag_exits_one(capsys):
    assert parse_and_dispatch(["circle", "--nope", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_contract_violation_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    # delta-exp 0.5 makes delta > Q^-1
    assert parse_and_dispatch(["circle", "--Q", "50", "--delta-exp", "0.5",
                               "--out", str(out)]) == 1


def test_coeffs_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--weight", "12", "--upto", "6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "a(n)", "lambda(n)"]
    assert [r["a(n)"] for r in rows] == ["1", "-24", "252", "-1472", "4830", "-6048"]
    lam2 = float(rows[1]["lambda(n)"])
    assert lam2 == pytest.approx(-24 * 2 ** -5.5, rel=1e-15)


def test_kloosterman_csv(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kloosterman", "--a", "1", "--b", "1", "--cmax", "20",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["c", "S(a,b;c)", "weil_bound"]
    assert len(rows) == 20
    assert float(rows[0]["S(a,b;c)"]) == 1.0
    assert float(rows[2]["S(a,b;c)"]) == pytest.approx(-1.0, abs=1e-9)
    for r in rows:
        assert abs(float(r["S(a,b;c)"])) <= float(r["weil_bound"]) + 1e-9


def test_kloosterman_huge_a_matches_residue(tmp_path):
    # 1 + 10^11 lcm(1..20) is above 2^63 and 1 mod every c <= 20
    huge, one = tmp_path / "huge.csv", tmp_path / "one.csv"
    for a, out in (("23279256000000000001", huge), ("1", one)):
        assert main(["kloosterman", "--a", a, "--b", "1", "--cmax", "20", "--out", str(out)]) == 0
    assert huge.read_bytes() == one.read_bytes()


def test_kloosterman_numerical_failure_exits_two(tmp_path, monkeypatch, capsys):
    from cuspcorr import arith
    monkeypatch.setattr(arith, "IMAG_TOL", -1.0)  # every imaginary residue now fails
    assert main(["kloosterman", "--a", "1", "--b", "1", "--cmax", "5",
                 "--out", str(tmp_path / "k.csv")]) == 2
    assert "imaginary residue" in capsys.readouterr().err


def test_circle_sweeps_each_cover_once(tmp_path, monkeypatch):
    from cuspcorr import circle, cli
    calls = []
    sweep = circle.sweep_measures

    def counted(cover):
        calls.append(cover)
        return sweep(cover)

    monkeypatch.setattr(circle, "sweep_measures", counted)
    monkeypatch.setattr(cli, "sweep_measures", counted)
    assert main(["circle", "--Q", "25", "--out", str(tmp_path / "ci.csv")]) == 0
    assert len(calls) == 1


def test_circle_csv_golden(tmp_path):
    out = tmp_path / "ci.csv"
    assert main(["circle", "--Q", "50", "--delta-exp", "1.5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["Q", "delta", "Lambda", "intervals", "l2_error", "bound_ratio"]
    row = rows[0]
    # golden values frozen from the first verified run of the sweep line
    assert int(row["intervals"]) == 2230
    assert float(row["Lambda"]) == pytest.approx(16.053574084983797, rel=1e-12)
    assert float(row["l2_error"]) == pytest.approx(0.12875218861275464, rel=1e-12)


def test_voronoi_json(tmp_path):
    out = tmp_path / "v.json"
    assert main(["voronoi", "--weight", "12", "--b", "1", "--c", "2", "--N", "50",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["relative_error"] < 1e-6
    assert set(doc) == {"config", "results", "tables", "provenance"}


def test_transform_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["transform", "--kind", "dot", "--params", "Z=30,alpha=0.5",
                 "--grid", "2:12:6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "re", "im"]
    assert len(rows) == 6
    out2 = tmp_path / "w.csv"
    assert main(["transform", "--kind", "wstar", "--params", "kappa=12,w=1",
                 "--grid", "100:120:3", "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert len(rows2) == 3
    # unknown parameter key is a contract violation
    assert main(["transform", "--kind", "dot", "--params", "Z=30,bogus=1",
                 "--grid", "2:4:2", "--out", str(out)]) == 1


@pytest.mark.parametrize("option, value", [("--params", "kappa=x"), ("--grid", "a:b:c"),
                                           ("--grid", "nan:1:3"), ("--grid", "2:inf:3")])
def test_transform_misuse_is_one_line_exit_one(tmp_path, capsys, option, value):
    argv = {"--params": "kappa=12,w=1", "--grid": "4:20:3"}
    argv[option] = value
    assert main(["transform", "--kind", "wstar", "--params", argv["--params"],
                 "--grid", argv["--grid"], "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["circle", "--Q", "nan"], ["circle", "--Q", "inf"],
                                  ["circle", "--Q", "25", "--delta-exp", "nan"],
                                  ["voronoi", "--weight", "12", "--b", "1", "--c", "1",
                                   "--N", "nan"],
                                  ["petersson", "--weight", "12", "--mmax", "0"],
                                  ["petersson", "--weight", "12", "--mmax", "3", "--cmax", "0"],
                                  ["sieve", "--kmax", "26", "--M", "10", "--cmax", "0"]],
                         ids=["circle-Q-nan", "circle-Q-inf", "circle-delta-exp-nan",
                              "voronoi-N-nan", "petersson-mmax-0", "petersson-cmax-0",
                              "sieve-cmax-0"])
def test_misuse_is_one_line_exit_one(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pipeline_with_shifts_past_the_center_exits_one(tmp_path, capsys):
    # n = 5 with H = 50 reaches n - h < 1, which read unrelated coefficients
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"n": 5, "H": 50}))
    assert main(["correlate", "--kind", "pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.json").exists()


def test_petersson_csv(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["petersson", "--weight", "12", "--mmax", "3", "--cmax", "300",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "P", "r1", "r2"]
    for r in rows:
        assert float(r["r2"]) < 1e-6


def test_sieve_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sieve", "--kmax", "26", "--M", "10", "--trials", "3",
                 "--cmax", "200", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["trial", "lhs", "bound", "ratio"]
    assert len(rows) == 3


def test_correlate_pair_and_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"X": 500, "H": 40, "seq": "rademacher", "seed": 11}))
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["correlate", "--kind", "pair", "--config", str(cfg), "--out", str(o1)]) == 0
    assert main(["correlate", "--kind", "pair", "--config", str(cfg), "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    doc = json.loads(o1.read_text())
    assert doc["config"]["seed"] == 11
    assert {"config", "results", "provenance"} <= set(doc)


def test_correlate_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"X": 500, "H": 40, "bogus": 1}))
    out = tmp_path / "r.json"
    assert main(["correlate", "--kind", "pair", "--config", str(cfg),
                 "--out", str(out)]) == 1


def test_correlate_scaling_with_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"X_list": [1024, 2048, 4096, 8192], "theta": 0.75,
                               "which": "pair"}))
    out = tmp_path / "r.json"
    csv_out = tmp_path / "rows.csv"
    assert main(["correlate", "--kind", "scaling", "--config", str(cfg),
                 "--out", str(out), "--csv", str(csv_out)]) == 0
    doc = json.loads(out.read_text())
    assert "fitted_slope" in doc["results"]
    header, rows = read_csv(csv_out)
    assert rows and header[0] == "table"
