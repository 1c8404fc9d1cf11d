"""End to end runs of the command line front end."""

import json
import math

import pytest

from bidisc.bounds import samples_from_csv
from bidisc.cli import main
from bidisc.flows import DensityCurve, closed_form_841
from bidisc.ratios import RATIO_TABLE

DELTA1 = 0.9068996821171089


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
