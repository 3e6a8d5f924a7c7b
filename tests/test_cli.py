"""Command line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfdesign.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "bench" / "goldens"
GOLDENS = json.loads((GOLDEN_DIR / "shipped.json").read_text(encoding="utf-8"))

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

# at n1 = 1 no count reaches k_f, so the interim look cannot stop
NO_STOP = (
    "p0=0.3\nalpha=0.1\nbeta=0.2\npower_prior=point 0.5\nk=1/3\nk_f=100\nn_min=1\nn_max=20\n"
)

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


def test_calibrate_unreachable_futility_threshold_exit_code(tmp_path, capsys):
    # a huge finite k_f is never reached at any interim size, so every
    # two-stage design would be a single look: no design, not 5/25 with pce 0
    path = tmp_path / "huge_kf.cfg"
    path.write_text(
        "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nk_f=1e300\nn_max=40\n"
    )
    assert main(["calibrate", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot be calibrated" in captured.err
    assert "k_f" in captured.err


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


def test_duplicate_key_exit_code(tmp_path, capsys):
    # a repeated key used to run silently at its last value
    path = tmp_path / "dup.cfg"
    path.write_text(
        "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nk_f=3\nk_f=80\n"
    )
    assert main(["calibrate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "k_f" in captured.err
    assert "duplicate key" in captured.err
    assert captured.out == ""


def test_degenerate_prior_exit_code(tmp_path, capsys):
    # a beta power prior with no mass on [p0, 1] used to end in a traceback
    path = tmp_path / "degenerate.cfg"
    path.write_text("p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=beta 1e-300 1e300\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "power_prior" in captured.err
    assert captured.out == ""


def test_tiny_beta_prior_gives_finite_report(tmp_path, capsys):
    # Beta(1e-300, 1e-300) on [0.5, 1] puts its mass at p = 1; the kernel
    # keeps the tiny shapes, so every figure is finite and nothing warns
    path = tmp_path / "tiny.cfg"
    path.write_text("p0=0.5\nalpha=0.05\nbeta=0.2\npower_prior=beta 1e-300 1e-300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oc", "--config", str(path), "--n1", "10", "--n2", "29"]) == 0
    out = capsys.readouterr().out.lower()
    assert "nan" not in out and "inf" not in out
    report = dict(line.split() for line in out.strip().splitlines())
    assert report["power_unadjusted"] == "1.0000"


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
    # nothing is erased, yet the interim does stop
    assert "interim_stop_possible" not in report


def test_oc_unreachable_futility_flagged(tmp_path, capsys):
    path = tmp_path / "nofut.cfg"
    path.write_text(NO_STOP)
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


def test_scan_rejects_format_option(example1, capsys):
    # scan always writes CSV, so it offers no --format to ignore
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--config", example1, "--n2", "29", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_scan_final_size_bounded_by_n_max(example1, capsys):
    assert main(["scan", "--config", example1, "--n2", "100000"]) == 2
    captured = capsys.readouterr()
    assert "n_max" in captured.err
    assert captured.out == ""
    assert main(["scan", "--config", example1, "--n2", "40"]) == 0


def test_scan_final_size_below_one_is_usage_error(example1, capsys):
    for n2 in (0, -3):
        assert main(["scan", "--config", example1, "--n2", str(n2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n2" in captured.err


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


def test_simon_tables_grow_with_the_walk(tmp_path, capsys):
    # the binomial tables follow the walk, which ends at n2 = 36, so an
    # n_max of ten million allocates nothing of its size
    path = tmp_path / "huge.cfg"
    path.write_text(EXAMPLE1.replace("n_max = 40", "n_max = 10000000"))
    assert main(["simon", "--config", str(path)]) == 0
    want = (GOLDEN_DIR / "simon-example1.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


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


@pytest.mark.parametrize("golden", GOLDENS, ids=[g["name"] for g in GOLDENS])
def test_golden_cli_bytes(golden, monkeypatch, capsys):
    # the shipped commands print exactly the pinned bytes; paths in the
    # argument lists are relative to the repository root
    monkeypatch.chdir(REPO_ROOT)
    assert main(golden["argv"]) == golden["exit_code"]
    want = (GOLDEN_DIR / golden["stdout"]).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


def test_calibrate_golden_bytes_at_a_huge_n_max(tmp_path, capsys):
    # the walk ends at the optimum's horizon, so example1 at n_max 10**12
    # prints the bytes it prints at its shipped n_max
    shipped = (REPO_ROOT / "configs" / "example1.cfg").read_text(encoding="utf-8")
    assert "n_max = 40\n" in shipped
    path = tmp_path / "example1.cfg"
    path.write_text(shipped.replace("n_max = 40\n", "n_max = 1000000000000\n"), encoding="utf-8")
    assert main(["calibrate", "--config", str(path)]) == 0
    want = (GOLDEN_DIR / "calibrate-example1.stdout").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


# Configs for the pinned bytes below: "narrow.cfg" has no design with
# n2 <= 8, "short_simon.cfg" no Simon design with n2 <= 8, "latin1.cfg" is
# not UTF-8 and "bom.cfg" is example1 saved with a UTF-8 byte order mark.
# 1 - p0 rounds to 1, so p0 is refused, whatever k_f and n_max say
TINY_P0 = "p0=1e-20\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nn_max=1000000000000000000000\n"
PIN_CONFIGS = {
    "no_stop.cfg": NO_STOP,
    "narrow.cfg": "p0=0.2\nalpha=0.1\nbeta=0.1\npower_prior=point 0.4\nf=0.6\n"
    "k=1/3\nk_f=80\nn_min=5\nn_max=8\n",
    "short_simon.cfg": "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\nn_max=8\n",
    "beta_alternative.cfg": "p0=0.1\nalpha=0.05\nbeta=0.2\npower_prior=beta 1 1\nn_max=40\n",
    "zero_alpha.cfg": "p0=0.1\nalpha=0\nbeta=0.2\npower_prior=point 0.3\n",
    "latin1.cfg": b"p0 = 0.1\xff\nalpha=0.05\nbeta=0.2\npower_prior=point 0.3\n",
    "bom.cfg": b"\xef\xbb\xbf" + (REPO_ROOT / "configs" / "example1.cfg").read_bytes(),
    "tiny_p0.cfg": TINY_P0,
    "tiny_p0_no_stop.cfg": TINY_P0 + "k_f=1e300\n",
}
TINY_P0_REFUSED = (
    "config error: config field 'p0': must lie in (5.55111512312578e-17, 1), got 1e-20\n"
)
OC_HEADER = (
    "n1,n2,type_i_unadjusted,type_i_adjusted,power_unadjusted,power_adjusted,"
    "futility_erased_type_i,futility_erased_power,pce,en_h0,en_h1,branch_h0_efficacy,"
    "branch_h0_indecisive,branch_h0_futility,branch_h1_efficacy,branch_h1_indecisive,"
    "branch_h1_futility"
)
# (argv, exit code, stdout, stderr), run from a directory that holds
# PIN_CONFIGS and a copy of configs/example1.cfg
PINNED_RUNS = {
    "calibrate-csv": (
        ["calibrate", "--config", "example1.cfg", "--format", "csv"], 0,
        "n1,n2,type_i,power,en_h0,pce\n10,29,0.047086,0.805063,15.014120,0.736099\n", "",
    ),
    "oc-csv": (
        ["oc", "--config", "example1.cfg", "--n1", "10", "--n2", "29", "--format", "csv"], 0,
        OC_HEADER + "\n10,29,0.063717,0.047086,0.906820,0.805063,0.016631,0.101757,"
        "0.736099,15.014120,26.163141,0.070191,0.193710,0.736099,0.617217,0.233474,"
        "0.149308\n",
        "",
    ),
    "simon-csv": (
        ["simon", "--config", "example1.cfg", "--format", "csv"], 0,
        "design,r1,n1,r,n2,type_i,power,en_h0,pet\n"
        "optimal,1,10,5,29,0.047086,0.805063,15.014120,0.736099\n"
        "minimax,1,15,5,25,0.032809,0.801701,19.509570,0.549043\n",
        "",
    ),
    "oc-no-stop-table": (
        ["oc", "--config", "no_stop.cfg", "--n1", "1", "--n2", "12"], 0,
        "n1                      1\n"
        "n2                      12\n"
        "type_i_unadjusted       0.1178\n"
        "type_i_adjusted         0.1178\n"
        "power_unadjusted        0.6128\n"
        "power_adjusted          0.6128\n"
        "futility_erased_type_i  0.0000\n"
        "futility_erased_power   0.0000\n"
        "pce                     0.0000\n"
        "en_h0                   12.00\n"
        "en_h1                   12.00\n"
        "branch_h0_efficacy      0.3000\n"
        "branch_h0_indecisive    0.7000\n"
        "branch_h0_futility      0.0000\n"
        "branch_h1_efficacy      0.5000\n"
        "branch_h1_indecisive    0.5000\n"
        "branch_h1_futility      0.0000\n"
        "interim_stop_possible   false\n",
        "",
    ),
    "oc-no-stop-csv": (
        ["oc", "--config", "no_stop.cfg", "--n1", "1", "--n2", "12", "--format", "csv"], 0,
        OC_HEADER + ",interim_stop_possible\n1,12,0.117849,0.117849,0.612793,0.612793,"
        "0.000000,0.000000,0.000000,12.000000,12.000000,0.300000,0.700000,0.000000,"
        "0.500000,0.500000,0.000000,false\n",
        "",
    ),
    "calibrate-tiny-p0": (
        ["calibrate", "--config", "tiny_p0.cfg"], 2, "", TINY_P0_REFUSED,
    ),
    "calibrate-tiny-p0-unsettled": (
        ["calibrate", "--config", "tiny_p0_no_stop.cfg"], 2, "", TINY_P0_REFUSED,
    ),
    "calibrate-infeasible": (
        ["calibrate", "--config", "narrow.cfg"], 3, "",
        "no feasible design: the constraints cannot be calibrated for this choice of "
        "thresholds (k, k_f) with n2 <= 8\n",
    ),
    "simon-infeasible": (
        ["simon", "--config", "short_simon.cfg"], 3, "",
        "no feasible Simon design with n2 <= 8\n",
    ),
    "oc-sizes-out-of-order": (
        ["oc", "--config", "example1.cfg", "--n1", "29", "--n2", "10"], 2, "",
        "usage error: need 1 <= n1 < n2 <= n_max, got n1=29, n2=10, n_max=40\n",
    ),
    "scan-size-below-one": (
        ["scan", "--config", "example1.cfg", "--n2", "0"], 2, "",
        "usage error: need 1 <= n2 <= n_max, got n2=0, n_max=40\n",
    ),
    "simon-beta-alternative": (
        ["simon", "--config", "beta_alternative.cfg"], 2, "",
        "usage error: the Simon search requires a point alternative "
        "(power_prior = point <p1>)\n",
    ),
    "config-error": (
        ["calibrate", "--config", "zero_alpha.cfg"], 2, "",
        "config error: config field 'alpha': must lie in (0, 1), got 0.0\n",
    ),
    "config-undecodable": (
        ["calibrate", "--config", "latin1.cfg"], 2, "",
        "config error: cannot read 'latin1.cfg': 'utf-8' codec can't decode byte 0xff "
        "in position 8: invalid start byte\n",
    ),
    "calibrate-bom": (
        ["calibrate", "--config", "bom.cfg", "--format", "csv"], 0,
        "n1,n2,type_i,power,en_h0,pce\n10,29,0.047086,0.805063,15.014120,0.736099\n", "",
    ),
    "config-unreadable": (
        ["calibrate", "--config", "missing.cfg"], 2, "",
        "config error: cannot read 'missing.cfg': [Errno 2] No such file or directory: "
        "'missing.cfg'\n",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_cli_bytes(name, tmp_path, monkeypatch, capsys):
    # formats, flags and error lines the shipped goldens do not cover
    for file_name, text in PIN_CONFIGS.items():
        (tmp_path / file_name).write_bytes(text if isinstance(text, bytes) else text.encode())
    (tmp_path / "example1.cfg").write_bytes((REPO_ROOT / "configs" / "example1.cfg").read_bytes())
    monkeypatch.chdir(tmp_path)
    argv, code, out, err = PINNED_RUNS[name]
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


FORMAT_HELP = "  --format {table,csv}  output format (defaults to the config's output_format)\n"
PINNED_HELP = {
    "bfdesign": (
        [],
        "usage: bfdesign [-h] {calibrate,oc,scan,simon} ...\n\n"
        "Exact two-stage Bayes factor trial designs with binary endpoints\n\n"
        "positional arguments:\n"
        "  {calibrate,oc,scan,simon}\n"
        "    calibrate           search for the optimal two-stage design\n"
        "    oc                  operating characteristics of a fixed design\n"
        "    scan                sweep the interim size at a fixed final size (CSV)\n"
        "    simon               classical optimal/minimax two-stage search\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
    ),
    "calibrate": (
        ["calibrate"],
        "usage: bfdesign calibrate [-h] --config CONFIG [--format {table,csv}]\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       path to a key = value config file\n" + FORMAT_HELP,
    ),
    "oc": (
        ["oc"],
        "usage: bfdesign oc [-h] --config CONFIG [--format {table,csv}] --n1 N1 --n2 N2\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       path to a key = value config file\n" + FORMAT_HELP
        + "  --n1 N1               interim sample size\n"
        "  --n2 N2               final sample size\n",
    ),
    "scan": (
        ["scan"],
        "usage: bfdesign scan [-h] --config CONFIG --n2 N2\n\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --config CONFIG  path to a key = value config file\n"
        "  --n2 N2          final sample size\n",
    ),
    "simon": (
        ["simon"],
        "usage: bfdesign simon [-h] --config CONFIG [--format {table,csv}]\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       path to a key = value config file\n" + FORMAT_HELP,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HELP))
def test_pinned_help_text(name, monkeypatch, capsys):
    # argparse wraps at the terminal width, so fix it
    monkeypatch.setenv("COLUMNS", "80")
    argv, want = PINNED_HELP[name]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (want, "")


# Fuzzed config values: plain settings per key, and the wild values that
# replace them in a few keys of each example.
FUZZ_PLAIN = {
    "p0": ["0.1", "0.2", "0.3", "0.5"],
    "alpha": ["0.05", "0.1", "0.2"],
    "beta": ["0.1", "0.2", "0.3"],
    "power_prior": ["point 0.7", "point 0.9", "beta 1 1", "beta 2 2"],
    "k": ["1/3", "1/10"],
    "k_f": ["3", "10"],
    "f": ["0.5", "0.6"],
    "a0": ["1", "2"],
    "b0": ["1", "0.5"],
    "a1": ["1", "0.5"],
    "b1": ["1", "2"],
    "n_min": ["1", "2", "5"],
    "window": ["0", "10"],
}
FUZZ_WILD = st.sampled_from(
    ["1e-300", "1e300", "nan", "inf", "-1", "0", "1/3", "1/0", "1e15"]
)
FUZZ_WILD_PRIOR = st.one_of(
    st.builds("point {}".format, FUZZ_WILD),
    st.builds("beta {} {}".format, FUZZ_WILD, FUZZ_WILD),
    st.builds("beta {} {}".format, FUZZ_WILD, st.sampled_from(["0.5", "1", "3"])),
)
FUZZ_KEYS = sorted(FUZZ_PLAIN)


@st.composite
def fuzz_run(draw):
    """(config text, arguments after the config path) for one CLI run.

    The text sets n_max <= 20, some optional keys and at most two wild
    values, and now and then repeats a key, which must be refused.
    """
    n_max = draw(st.integers(6, 20))
    keys = ["p0", "alpha", "beta", "power_prior"]
    keys += sorted(draw(st.sets(st.sampled_from(FUZZ_KEYS))) - set(keys))
    wild = draw(st.sets(st.sampled_from(keys), max_size=2))
    repeated = draw(st.sampled_from([[]] * 5 + [["n_max"], ["p0"], ["k_f"]]))
    lines = [f"n_max = {n_max}"]
    for key in keys + repeated:
        if key in wild:
            value = draw(FUZZ_WILD_PRIOR if key == "power_prior" else FUZZ_WILD)
        else:
            value = draw(st.sampled_from(FUZZ_PLAIN.get(key, [str(n_max)])))
        lines.append(f"{key} = {value}")
    text = "\n".join(draw(st.permutations(lines))) + "\n"
    command = draw(st.sampled_from(["calibrate", "oc", "scan", "simon"]))
    args = [command]
    if command == "oc":
        n2 = draw(st.integers(2, n_max))
        args += ["--n1", str(draw(st.integers(1, n2 - 1))), "--n2", str(n2)]
    if command == "scan":
        args += ["--n2", str(draw(st.integers(1, n_max)))]
    return text, args


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=fuzz_run())
@example(
    run=(
        "p0 = 0.5\nalpha = 0.05\nbeta = 0.2\npower_prior = beta 1e-300 1e-300\nn_max = 20\n",
        ["oc", "--n1", "10", "--n2", "19"],
    )
)
# 1 - p0 rounds to 1, so p0 is refused
@example(
    run=(
        "p0 = 1e-20\nalpha = 0.05\nbeta = 0.2\npower_prior = point 0.3\n"
        "n_max = 1000000000000000000000\n",
        ["calibrate"],
    )
)
def test_fuzzed_config_is_answered_or_refused(tmp_path_factory, run):
    # every config is answered with finite figures or refused with exit 2
    # or 3; no exception escapes and nothing warns
    text, args = run
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    path.write_text(text)
    argv = args[:1] + ["--config", str(path)] + args[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 2, 3), (text, argv, err.getvalue())
    if code == 0:
        printed = out.getvalue().lower()
        assert "nan" not in printed and "inf" not in printed, (text, argv)
