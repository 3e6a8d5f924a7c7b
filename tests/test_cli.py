"""Command line interface: subcommands, formats, exit codes."""

import pytest

from bfdesign.cli import main

EXAMPLE1 = """
p0 = 0.1
alpha = 0.05
beta = 0.2
power_prior = point 0.3
k = 1/3
k_f = 3
n_min = 5
n_max = 40
window = 10
"""

EXAMPLE2_PCE = """
p0 = 0.2
alpha = 0.1
beta = 0.1
power_prior = point 0.4
k = 1/3
k_f = 3
f = 0.6
n_min = 5
n_max = 60
"""


@pytest.fixture
def example1(tmp_path):
    path = tmp_path / "example1.cfg"
    path.write_text(EXAMPLE1)
    return str(path)


@pytest.fixture
def example2(tmp_path):
    path = tmp_path / "example2.cfg"
    path.write_text(EXAMPLE2_PCE)
    return str(path)


def test_calibrate_table_row(example1, capsys):
    assert main(["calibrate", "--config", example1]) == 0
    out = capsys.readouterr().out
    values = out.strip().splitlines()[-1].split()
    assert values == ["10", "29", "0.0471", "0.8051", "15.01", "0.7361"]


def test_calibrate_with_pce_floor(example2, capsys):
    assert main(["calibrate", "--config", example2]) == 0
    out = capsys.readouterr().out
    values = out.strip().splitlines()[-1].split()
    assert values == ["30", "36", "0.0886", "0.9091", "32.36", "0.6070"]


def test_calibrate_csv_format(example1, capsys):
    assert main(["calibrate", "--config", example1, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header == "n1,n2,type_i,power,en_h0,pce"
    assert row.split(",")[:2] == ["10", "29"]
    assert row.split(",")[2] == "0.047086"


def test_calibrate_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "narrow.cfg"
    path.write_text(
        "p0=0.2\nalpha=0.1\nbeta=0.1\npower_prior=point 0.4\nf=0.6\n"
        "k=1/3\nk_f=80\nn_min=5\nn_max=8\n"
    )
    assert main(["calibrate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cannot be calibrated" in err


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("p0=0.1\nalpha=0\nbeta=0.2\npower_prior=point 0.3\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_non_finite_config_value_exit_code(tmp_path, capsys):
    # an infinite futility threshold used to exit 0 with a degenerate design
    path = tmp_path / "inf.cfg"
    path.write_text("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nk_f=inf\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "k_f" in captured.err
    assert captured.out == ""


def test_missing_config_file(capsys):
    assert main(["calibrate", "--config", "/nonexistent/path.cfg"]) == 2


def test_oc_report(example1, capsys):
    assert main(["oc", "--config", example1, "--n1", "10", "--n2", "29"]) == 0
    out = capsys.readouterr().out
    report = {
        line.split()[0]: line.split()[1] for line in out.strip().splitlines()
    }
    assert report["type_i_adjusted"] == "0.0471"
    assert report["power_adjusted"] == "0.8051"
    assert report["type_i_unadjusted"] == "0.0637"
    assert report["pce"] == "0.7361"
    assert report["en_h0"] == "15.01"
    branch_sum = (
        float(report["branch_h0_efficacy"])
        + float(report["branch_h0_indecisive"])
        + float(report["branch_h0_futility"])
    )
    assert abs(branch_sum - 1.0) < 1e-3


def test_oc_toy_design_matches_enumeration(tmp_path, capsys):
    path = tmp_path / "toy.cfg"
    path.write_text(
        "p0=0.5\nalpha=0.5\nbeta=0.5\npower_prior=beta 1 1\nk=1/3\nk_f=3\n"
        "n_min=2\nn_max=10\n"
    )
    assert main(["oc", "--config", str(path), "--n1", "2", "--n2", "4"]) == 0
    out = capsys.readouterr().out
    report = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
    # interim stops on zero successes only, so PCE = P(Bin(2, 0.5) = 0)
    assert report["pce"] == "0.2500"
    # rejection needs a total of 3, unreachable after a stop at (2, 4)
    assert report["power_unadjusted"] == report["power_adjusted"]
    assert report["futility_erased_power"] == "0.0000"


def test_oc_unreachable_futility_flagged(tmp_path, capsys):
    path = tmp_path / "nofut.cfg"
    path.write_text(
        "p0=0.3\nalpha=0.1\nbeta=0.2\npower_prior=point 0.5\nk=1/3\nk_f=100\n"
        "n_min=1\nn_max=20\n"
    )
    assert main(["oc", "--config", str(path), "--n1", "1", "--n2", "12"]) == 0
    out = capsys.readouterr().out
    report = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
    assert report["branch_h0_futility"] == "0.0000"
    assert report["type_i_unadjusted"] == report["type_i_adjusted"]
    assert report["interim_stop_possible"] == "false"


def test_oc_bad_sizes(example1, capsys):
    assert main(["oc", "--config", example1, "--n1", "29", "--n2", "10"]) == 2


def test_scan_csv(example1, capsys):
    assert main(["scan", "--config", example1, "--n2", "29"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n1,power_adj,typeI_adj,pce,en_h0,feasible"
    assert len(lines) == 1 + (29 - 5)
    row10 = next(line for line in lines if line.startswith("10,"))
    fields = row10.split(",")
    assert fields[1] == "0.805063"
    assert fields[2] == "0.047086"
    assert fields[3] == "0.736099"
    assert fields[5] == "true"
    row9 = next(line for line in lines if line.startswith("9,"))
    assert row9.split(",")[5] == "false"


def test_scan_byte_stable(example1, capsys):
    assert main(["scan", "--config", example1, "--n2", "20"]) == 0
    first = capsys.readouterr().out
    assert main(["scan", "--config", example1, "--n2", "20"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_scan_empty_range_prints_header_only(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text(
        "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nn_min=30\nn_max=40\n"
    )
    assert main(["scan", "--config", str(path), "--n2", "29"]) == 0
    out = capsys.readouterr().out
    assert out == "n1,power_adj,typeI_adj,pce,en_h0,feasible\n"


def test_simon_rows(example1, capsys):
    assert main(["simon", "--config", example1]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "design=optimal" in lines[0]
    assert "n1=10" in lines[0] and "n2=29" in lines[0]
    assert "type_i=0.0471" in lines[0] and "power=0.8051" in lines[0]
    assert "en_h0=15.01" in lines[0] and "pet=0.7361" in lines[0]
    assert "design=minimax" in lines[1]
    assert "n1=15" in lines[1] and "n2=25" in lines[1]


def test_simon_second_setting(tmp_path, capsys):
    path = tmp_path / "ex2.cfg"
    path.write_text(
        "p0=0.2\nalpha=0.1\nbeta=0.1\npower_prior=point 0.4\nn_min=5\nn_max=40\n"
    )
    assert main(["simon", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "n1=17" in lines[0] and "n2=37" in lines[0]
    assert "n1=19" in lines[1] and "n2=36" in lines[1]


def test_simon_requires_point_alternative(tmp_path, capsys):
    path = tmp_path / "betaprior.cfg"
    path.write_text("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=beta 1 1\nn_max=40\n")
    assert main(["simon", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "point alternative" in err


def test_simon_rejects_p1_below_p0_at_parse_time(tmp_path, capsys):
    path = tmp_path / "flip.cfg"
    path.write_text("p0=0.4\nalpha=0.05\nbeta=0.2\npower_prior=point 0.2\n")
    assert main(["simon", "--config", str(path)]) == 2
