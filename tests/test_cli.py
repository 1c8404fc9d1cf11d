"""End to end runs of the command line front end."""

import json
import math

import pytest

from bidisc.bounds import samples_from_csv
from bidisc.cli import main
from bidisc.flows import DensityCurve, closed_form_841
from bidisc.ratios import RATIO_TABLE

DELTA1 = 0.9068996821171089

# `bidisc ratios` stdout, byte for byte: a change to how an enclosure is
# certified must not change which enclosure is printed
RATIOS_CSV = (
    "name,lo,hi,polynomial\n"
    "r1,0.6375559772131965,0.6375559772714041,x^4 - 10x^2 - 8x + 9\n"
    "ra,0.6199144044076093,0.6199144044658169,x^4 - 12x^3 - 2x^2 + 4x + 1\n"
    "r2,0.5451510421116836,0.5451510421698913,x^8 - 8x^7 - 44x^6 - 232x^5 - 482x^4 - 24x^3 + 388x^2 - 120x + 9\n"
    "r3,0.5332964166300371,0.5332964166882448,8x^3 + 3x^2 - 2x - 1\n"
    "r4,0.4142135623260401,0.4142135623842478,x^2 + 2x - 1\n"
    "r5,0.38610610482282937,0.386106104881037,9x^4 - 12x^3 - 26x^2 - 12x + 9\n"
    "rb,0.36910238617565483,0.3691023862338625,x^3 - 5x^2 - x + 1\n"
    "r6,0.3491981861880049,0.34919818624621257,x^4 - 28x^3 - 10x^2 + 4x + 1\n"
    "r7,0.28077640634728596,0.2807764064054936,2x^2 + 3x - 1\n"
    "rc,0.21684533538063988,0.21684533543884754,x^4 - 4x^3 - 2x^2 - 4x + 1\n"
    "r8,0.15470053837634623,0.1547005384345539,3x^2 + 6x - 1\n"
    "r9,0.10102051438298076,0.10102051444118842,x^2 - 10x + 1\n"
)

# (name, lo, hi, integer coefficients) of `bidisc ratios --format json`
RATIOS_JSON_ROWS = [
    ("r1", 0.6375559772131965, 0.6375559772714041, (9, -8, -10, 0, 1)),
    ("ra", 0.6199144044076093, 0.6199144044658169, (1, 4, -2, -12, 1)),
    ("r2", 0.5451510421116836, 0.5451510421698913,
     (9, -120, 388, -24, -482, -232, -44, -8, 1)),
    ("r3", 0.5332964166300371, 0.5332964166882448, (-1, -2, 3, 8)),
    ("r4", 0.4142135623260401, 0.4142135623842478, (-1, 2, 1)),
    ("r5", 0.38610610482282937, 0.386106104881037, (9, -12, -26, -12, 9)),
    ("rb", 0.36910238617565483, 0.3691023862338625, (1, -1, -5, 1)),
    ("r6", 0.3491981861880049, 0.34919818624621257, (1, 4, -10, -28, 1)),
    ("r7", 0.28077640634728596, 0.2807764064054936, (-1, 3, 2)),
    ("rc", 0.21684533538063988, 0.21684533543884754, (1, -4, -2, -4, 1)),
    ("r8", 0.15470053837634623, 0.1547005384345539, (-1, 6, 3)),
    ("r9", 0.10102051438298076, 0.10102051444118842, (1, -10, 1)),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRatios:
    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "ratios")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == len(RATIO_TABLE) + 1 == 13
        assert "wall time" in err
        row = dict(zip(lines[0].split(","), lines[1].split(",", 3)))
        assert float(row["lo"]) <= float(row["hi"])

    def test_json_parses(self, capsys):
        code, out, _ = run(capsys, "ratios", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert {row["name"] for row in obj} == set(RATIO_TABLE)
        r4 = next(row for row in obj if row["name"] == "r4")
        assert math.isclose(r4["lo"], 0.41421356237309503, abs_tol=1e-9)
        assert r4["lo"] <= r4["hi"]

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "ratios")
        _, second, _ = run(capsys, "ratios")
        assert first == second

    def test_csv_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "ratios")
        assert code == 0
        assert out == RATIOS_CSV

    def test_json_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "ratios", "--format", "json")
        assert code == 0
        payload = [{"name": name, "lo": lo, "hi": hi,
                    "polynomial": [[c, 1] for c in coeffs]}
                   for name, lo, hi, coeffs in RATIOS_JSON_ROWS]
        assert out == json.dumps(payload, indent=2) + "\n"


class TestLower:
    def test_curve_and_crossings(self, capsys):
        code, out, err = run(capsys, "lower", "--range", "0.42:0.44", "--step", "0.01")
        assert code == 0
        curve = DensityCurve.from_csv(out)
        rs = [row[0] for row in curve.samples]
        assert rs == [0.42, 0.43, 0.44]
        assert math.isclose(curve.samples[0][1], closed_form_841(0.42), rel_tol=1e-12)
        crossing_lines = [l for l in err.splitlines() if l.startswith("crossing,")]
        assert len(crossing_lines) == 1
        _, lo, hi = crossing_lines[0].split(",")
        assert float(lo) <= 0.43784124244422377 <= float(hi)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "lower", "--range", "0.42:0.44", "--step", "0.01",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [row[0] for row in obj["curve"]] == [0.42, 0.43, 0.44]
        assert len(obj["crossings"]) == 1

    def test_bad_range_is_config_error(self, capsys):
        code, _, err = run(capsys, "lower", "--range", "0.5:0.4", "--step", "0.01")
        assert code == 3
        assert "error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "lower", "--range", "0.42:0.43", "--step", "0.01",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        curve = DensityCurve.from_csv(target.read_text())
        assert len(curve.samples) == 2


class TestUpper:
    def test_envelope_output(self, capsys):
        code, out, err = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                             "--precision", "0.0001")
        assert code == 0
        curve = DensityCurve.from_csv(out)
        assert len(curve.samples) == 21
        assert all(row[2] == "upper" for row in curve.samples)
        # the default sweep samples the triangle bound certifier; between
        # samples the envelope bulges by at most slope times half a step
        from bidisc.bounds import florian_bound, lipschitz_slope
        bulge = lipschitz_slope(0.74) * 0.005 + 2e-4
        for r, value, _ in curve.samples:
            assert florian_bound(r) - 2e-3 <= value <= florian_bound(r) + bulge
        assert any(line.startswith("samples,") for line in err.splitlines())

    # an unclosed file warns from a finalizer, which pytest reports as an
    # unraisable-exception warning; both are errors here
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_merged_external_samples(self, capsys, tmp_path):
        extra = tmp_path / "samples.csv"
        extra.write_text("r,value\n0.75,0.89\n")
        code, out, _ = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                           "--samples", str(extra))
        assert code == 0
        curve = DensityCurve.from_csv(out)
        at = {row[0]: row[1] for row in curve.samples}
        assert at[0.75] == 0.89

    def test_non_finite_sample_row_is_config_error(self, capsys, tmp_path):
        extra = tmp_path / "samples.csv"
        extra.write_text("r,value\n0.75,nan\n")
        code, out, err = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                             "--samples", str(extra))
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_headerless_samples_file_is_config_error(self, capsys, tmp_path):
        # without the r,value header the first row is data, not a header
        extra = tmp_path / "samples.csv"
        extra.write_text("0.75,0.5\n")
        code, out, err = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                             "--samples", str(extra))
        assert code == 3
        assert out == ""
        assert "header" in err

    def test_samples_file_stdout_pinned(self, capsys, tmp_path):
        # blank lines around the header and rows are skipped
        extra = tmp_path / "samples.csv"
        extra.write_text("\nr,value\n0.75,0.89\n0.76,0.9\n\n")
        code, out, _ = run(capsys, "upper", "--range", "0.75:0.76", "--step", "0.01",
                           "--samples", str(extra))
        assert code == 0
        assert out == (
            "r,density,tag\n"
            "0.75,0.89,upper\n"
            "0.751,0.8932159506175241,upper\n"
            "0.752,0.8964148064884925,upper\n"
            "0.753,0.8995966697048947,upper\n"
            "0.754,0.9027616416370636,upper\n"
            "0.755,0.905909822939645,upper\n"
            "0.756,0.9090413135575105,upper\n"
            "0.757,0.9094207030690836,upper\n"
            "0.758,0.9062804687127224,upper\n"
            "0.759,0.9031402343563613,upper\n"
            "0.76,0.9,upper\n"
        )

    def test_sample_below_delta1_warns(self, capsys, tmp_path):
        extra = tmp_path / "samples.csv"
        extra.write_text("r,value\n0.75,0.95\n0.76,0.5\n")
        code, out, err = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                             "--samples", str(extra))
        assert code == 0
        assert DensityCurve.from_csv(out).samples[-1][1] == 0.5
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "1 of 2 rows" in warnings[0] and "below delta1" in warnings[0]


class TestCertify:
    def test_success_exit_zero(self, capsys):
        code, out, err = run(capsys, "certify", "--range", "0.743:0.99")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lo,hi,delta,verdict"
        assert all(line.endswith("proven") for line in lines[1:])
        assert any(line.startswith("leaves,") for line in err.splitlines())

    def test_failure_exit_two(self, capsys):
        code, out, err = run(capsys, "certify", "--range", "0.70:0.99",
                             "--max-depth", "10")
        assert code == 2
        assert "unproven" in out
        assert "certification failed" in err

    def test_explicit_delta_json(self, capsys):
        code, out, _ = run(capsys, "certify", "--range", "0.9:0.99",
                           "--certifier", "florian", "--delta", "0.9075",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["root"]["verdict"] == "proven"

    def test_unknown_certifier_exit_three(self, capsys):
        code, _, err = run(capsys, "certify", "--range", "0.8:0.9",
                           "--certifier", "warlock")
        assert code == 3
        assert "error" in err

    def test_argparse_error_mapped_to_three(self, capsys):
        code, _, _ = run(capsys, "certify", "--range")
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
# argv3 was a certify --precision case, removed with that flag; the ids are
# spelled out so the remaining cases keep their names
@pytest.mark.parametrize("argv", [
    ("lower", "--range", "0.4:0.5", "--step"),
    ("upper", "--range", "0.74:0.75", "--step"),
    ("upper", "--range", "0.74:0.75", "--precision"),
    ("certify", "--range", "0.743:0.75", "--delta"),
], ids=["argv0", "argv1", "argv2", "argv4"])
def test_non_finite_number_is_config_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, value)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_certify_has_no_precision_flag(capsys):
    code, out, err = run(capsys, "certify", "--range", "0.743:0.75", "--precision", "1e-3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


class TestDeterminism:
    def test_lower_repeat_identical(self, capsys):
        _, first, _ = run(capsys, "lower", "--range", "0.42:0.43", "--step", "0.005")
        _, second, _ = run(capsys, "lower", "--range", "0.42:0.43", "--step", "0.005")
        assert first == second

    def test_upper_repeat_identical(self, capsys):
        _, first, _ = run(capsys, "upper", "--range", "0.74:0.75", "--step", "0.01")
        _, second, _ = run(capsys, "upper", "--range", "0.74:0.75", "--step", "0.01")
        assert first == second
