"""End to end runs of the command line front end."""

import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bidisc import cli, flows, geometry
from bidisc.bounds import samples_from_csv
from bidisc.cli import main
from bidisc.ratios import RATIO_TABLE
from closed_forms import closed_form_841

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


def curve_from_csv(text):
    """The ``(r, density, tag)`` rows of ``r,density,tag`` CSV output,
    checked to have strictly increasing r."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    curve = [(float(r), float(value), tag) for r, value, tag in rows]
    assert all(a[0] < b[0] for a, b in zip(curve, curve[1:]))
    return curve


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
        curve = curve_from_csv(out)
        rs = [row[0] for row in curve]
        assert rs == [0.42, 0.43, 0.44]
        assert math.isclose(curve[0][1], closed_form_841(0.42), rel_tol=1e-12)
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
        assert len(curve_from_csv(target.read_text())) == 2


# sha256 of the CSV stdout of `bidisc lower --range 0.36:0.99 --step 0.001`,
# the bytes the benchmark expects of its lower sweep
LOWER_036_SHA256 = "071e6155bc3ebe222799cb1603498dd10ef4104e03805cda70c758f0b5d5b2b3"

# sha256 of the CSV stdout of `bidisc lower --range 0.0001:0.16 --step 0.0001`,
# a header and 1,600 rows, whose values below r8 are interstitial census
# densities; recorded while the census decided its tests by a float filter
LOWER_INTERSTITIAL_SHA256 = "eda84b51ba044de11d2bba847db3d04ec8749db561bd8685b886ce7175a7b810"

# the benchmark's recorded outcomes, read and never written here
EXPECTED = json.loads((pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench" / "expected.json").read_text())

# crossing brackets recorded when the crossings were found by a separate
# np.linspace scan at min(step, 1e-3); brackets found since must meet them
CROSSINGS_036 = [(0.437841242151108, 0.43784124310198264),
                 (0.6274606873551003, 0.627460688305975)]
CROSSINGS_030 = [(0.35585347881279183, 0.3558534794799493),
                 (0.4378412422461955, 0.4378412429118077),
                 (0.6274606872600128, 0.627460687925625)]


@pytest.fixture(scope="module")
def cold_lower():
    """`bidisc lower ARGS` from a cold continuation cache, as a new process
    runs it, returning (stdout, stderr, work); memoised per ARGS.  work
    lists the cell count of every overlap scan: under "curve" those of the
    curve (`flows.scan_cells`), and under "other" the rest
    (`geometry.validate_many`: the crossing bisection's scans)."""
    runs = {}

    def lower(*argv):
        if argv not in runs:
            work = {"curve": [], "other": []}

            def scans(original, key):
                def wrapper(domains, *args):
                    work[key].append(len(domains))
                    return original(domains, *args)
                return wrapper

            flows.clear_continuation_cache()
            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(flows, "scan_cells", scans(flows.scan_cells, "curve"))
                mp.setattr(geometry, "validate_many", scans(geometry.validate_many, "other"))
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["lower", *argv])
            assert code == 0
            runs[argv] = (out.getvalue(), err.getvalue(), work)
        return runs[argv]

    return lower


def stderr_crossings(err):
    rows = [line.split(",") for line in err.splitlines() if line.startswith("crossing,")]
    return [(float(lo), float(hi)) for _, lo, hi in rows]


def assert_crossings_meet(found, recorded):
    assert len(found) == len(recorded)
    for (lo, hi), (rlo, rhi) in zip(found, recorded):
        assert lo <= hi and hi - lo <= 1e-9
        assert lo <= rhi and rlo <= hi


class TestLowerPinned:
    def test_csv_stdout_pinned(self, cold_lower):
        out, _, _ = cold_lower("--range", "0.36:0.99", "--step", "0.001")
        assert hashlib.sha256(out.encode()).hexdigest() == LOWER_036_SHA256

    def test_interstitial_stdout_pinned(self, cold_lower):
        out, _, _ = cold_lower("--range", "0.0001:0.16", "--step", "0.0001")
        assert len(out.splitlines()) == 1 + 1600
        assert hashlib.sha256(out.encode()).hexdigest() == LOWER_INTERSTITIAL_SHA256

    def test_json_matches_csv_run(self, cold_lower):
        csv_out, csv_err, _ = cold_lower("--range", "0.36:0.99", "--step", "0.001")
        out, _, _ = cold_lower("--range", "0.36:0.99", "--step", "0.001",
                               "--format", "json")
        obj = json.loads(out)
        assert obj["curve"] == [list(row) for row in curve_from_csv(csv_out)]
        assert [tuple(iv) for iv in obj["crossings"]] == stderr_crossings(csv_err)

    def test_crossings_036(self, cold_lower):
        _, err, _ = cold_lower("--range", "0.36:0.99", "--step", "0.001")
        assert_crossings_meet(stderr_crossings(err), CROSSINGS_036)
        assert "warning:" not in err

    def test_crossings_030_step_00007(self, cold_lower):
        _, err, _ = cold_lower("--range", "0.3:0.99", "--step", "0.0007")
        assert_crossings_meet(stderr_crossings(err), CROSSINGS_030)

    def test_overlap_scan_work(self, cold_lower):
        # the curve's 854 (grid point, recipe) cells are scanned as they are
        # built, flows._SCAN_CELLS at a time; the crossing bisection builds
        # flow-841-mid at the two ends of its range, which lie off the grid,
        # and at most 20 times for each of its two crossings, and scans
        # those cells in one call
        _, _, work = cold_lower("--range", "0.36:0.99", "--step", "0.001")
        full, rest = divmod(854, flows._SCAN_CELLS)
        assert work["curve"] == [flows._SCAN_CELLS] * full + [rest]
        assert len(work["other"]) == 1 and work["other"][0] <= 2 + 2 * 20

    def test_small_ratios_above_delta1(self, cold_lower):
        # interstitial cells of up to 3417 discs
        out, _, _ = cold_lower("--range", "0.005:0.01", "--step", "0.001")
        curve = curve_from_csv(out)
        assert len(curve) == 6
        assert all(value > DELTA1 for _, value, _ in curve)


    @pytest.mark.parametrize("variant", range(len(EXPECTED["lower_sweep"])))
    def test_benchmark_lower_sweep_bytes(self, cold_lower, variant):
        # the benchmark's lower_sweep variants: the lower end moves up by
        # 1e-4 per variant, far less than a grid step
        out, _, _ = cold_lower("--range", f"{0.36 + variant * 1e-4:.4f}:0.99",
                               "--step", "0.001")
        expected = EXPECTED["lower_sweep"][variant]
        assert expected["exit"] == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]

    @pytest.mark.parametrize("guess", [0.0, 1e8])
    def test_recipe_without_seed_solution_warns(self, cold_lower, tmp_path, guess):
        # every guess equal: the Jacobian at the seed point is singular, so
        # the recipe fails at every grid point and adds nothing
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["name"] = "stuck"
        obj["guess"] = {name: guess for name in obj["guess"]}
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(obj))
        plain_out, _, _ = cold_lower("--range", "0.5:0.51", "--step", "0.01")
        out, err, _ = cold_lower("--range", "0.5:0.51", "--step", "0.01",
                                 "--recipe", str(path))
        assert out == plain_out
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: recipe stuck failed at 2 of 2 grid points"]

    def test_partly_failing_recipe_warns(self, cold_lower, tmp_path):
        # flow-841-mid with its range widened below r4, where its discs
        # overlap: it fails at 0.4, 0.405 and 0.41 and matches the built-in
        # elsewhere, so the curve is unchanged and its crossings are dropped
        with open("src/bidisc/data/flow_841_mid.json") as fh:
            obj = json.load(fh)
        obj["name"], obj["valid_range"] = "wide", [0.4, "r1"]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        plain_out, plain_err, _ = cold_lower("--range", "0.4:0.45", "--step", "0.005")
        out, err, _ = cold_lower("--range", "0.4:0.45", "--step", "0.005",
                                 "--recipe", str(path))
        assert out == plain_out
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: recipe wide failed at 3 of 11 grid points"]
        assert "warning:" not in plain_err
        assert len(stderr_crossings(err)) == 1
        assert stderr_crossings(err) == stderr_crossings(plain_err)

    def test_degenerate_lattice_recipe_warns(self, cold_lower, tmp_path):
        # flow-r6-1 with v = 2u: its Newton system is unchanged, but every
        # cell fails check_cell's degenerate-lattice test, as a
        # FundamentalDomain would, so the recipe adds nothing
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["name"], obj["lattice"]["v"] = "flat", ["2*x1", "0"]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(obj))
        recipe = flows.load_recipe(path)
        with pytest.raises(flows.InvalidPacking, match="lattice vectors are degenerate"):
            geometry.check_cell(*recipe.cell_floats(0.4))
        plain_out, plain_err, _ = cold_lower("--range", "0.4:0.45", "--step", "0.005")
        out, err, _ = cold_lower("--range", "0.4:0.45", "--step", "0.005",
                                 "--recipe", str(path))
        assert out == plain_out
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: recipe flat failed at 11 of 11 grid points"]
        assert stderr_crossings(err) == stderr_crossings(plain_err)



# the benchmark's certifier parts: each variant moves one end of the range
# by far less than a grid step (lower end of upper_sweep up by 1e-4, upper
# end of certify_tree down by 5e-4)
CERTIFIER_PARTS = {
    "upper_sweep": lambda j: ["upper", "--range", f"{0.3 + j * 1e-4:.4f}:0.99",
                              "--step", "0.002", "--certifier", "florian"],
    "certify_tree": lambda j: ["certify", "--range", f"0.3:{0.99 - j * 5e-4:.4f}",
                               "--certifier", "florian", "--delta", "0.931"],
}


@pytest.mark.parametrize("variant", range(8))
@pytest.mark.parametrize("part", sorted(CERTIFIER_PARTS))
def test_benchmark_certifier_bytes(capsys, part, variant):
    code, out, _ = run(capsys, *CERTIFIER_PARTS[part](variant))
    expected = EXPECTED[part][variant]
    assert code == expected["exit"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]


# stdout sha256 of blind-certifier runs, recorded while t7 and t5 were still
# enclosed by an interval tangent series: a change to how the constants are
# certified must not change these bytes
BLIND_RUNS = {
    "upper_csv": (["upper", "--certifier", "blind", "--range", "0.68:0.99"], 0,
                  "685c85795779e4aaea99bc396ca232e0dd3426786e4244760baf07fb14780e92"),
    "upper_json": (["upper", "--certifier", "blind", "--range", "0.68:0.99",
                    "--format", "json"], 0,
                   "fefc4005ebb69aa47b726fa1a1f371b60b0cc0178401b9bf054bec383608a2b0"),
    "certify_proven": (["certify", "--range", "0.743:0.99"], 0,
                       "9159b788778b9cd1417a5169dc41b1429b922b3f45e6b5efc91e7eeb63af5818"),
    "certify_failing": (["certify", "--certifier", "blind", "--range", "0.7:0.99"], 2,
                        "7eb25e206b5c5c0623501a889c3a26b5d9a8183ea01bfc18fd3ea0076ccf11e4"),
}


@pytest.mark.parametrize("name", sorted(BLIND_RUNS))
def test_blind_bytes(capsys, name):
    argv, exit_code, digest = BLIND_RUNS[name]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUpper:
    def test_envelope_output(self, capsys):
        code, out, err = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01")
        assert code == 0
        curve = curve_from_csv(out)
        assert len(curve) == 21
        assert all(row[2] == "upper" for row in curve)
        # the default sweep samples the triangle bound certifier; between
        # samples the envelope bulges by at most slope times half a step
        from bidisc.bounds import florian_bound, lipschitz_slope
        bulge = lipschitz_slope(0.74) * 0.005 + 2e-4
        for r, value, _ in curve:
            assert florian_bound(r) - 2e-3 <= value <= florian_bound(r) + bulge
        assert any(line.startswith("samples,") for line in err.splitlines())

    # an unclosed file warns from a finalizer, which pytest reports as an
    # unraisable-exception warning; pyproject.toml makes both errors
    def test_merged_external_samples(self, capsys, tmp_path):
        extra = tmp_path / "samples.csv"
        extra.write_text("r,value\n0.75,0.89\n")
        code, out, _ = run(capsys, "upper", "--range", "0.74:0.76", "--step", "0.01",
                           "--samples", str(extra))
        assert code == 0
        at = {row[0]: row[1] for row in curve_from_csv(out)}
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
        assert curve_from_csv(out)[-1][1] == 0.5
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "1 of 2 rows" in warnings[0] and "below delta1" in warnings[0]

    def test_skipped_points_on_stderr(self, capsys):
        # the library returns the points it could not bound; the command
        # line writes one line for each, in grid order, before the count
        code, _, err = run(capsys, "upper", "--range", "0.5:0.7", "--step", "0.05",
                           "--certifier", "blind")
        assert code == 0
        assert err.splitlines()[:-1] == [
            f"sweep: no bound at r={r} via blind: polygonal bound needs ratio within "
            f"[0.6735, 1], got Interval({r}, {r})" for r in ("0.5", "0.55", "0.6", "0.65")
        ] + ["samples,1"]

    def test_out_file_matches_stdout_in_blocks(self, capsys, tmp_path):
        # a table of more rows than one CSV chunk: the chunks join to the
        # same bytes on stdout and in the --out file
        args = ("upper", "--range", "0.5:0.6", "--step", "2e-4")
        code, out, _ = run(capsys, *args)
        target = tmp_path / "curve.csv"
        assert code == 0 and run(capsys, *args, "--out", str(target))[:2] == (0, "")
        assert len(out.splitlines()) == 5002 > cli._CSV_BLOCK
        assert target.read_text() == out

    def test_fine_grid_refused_before_sweep(self, capsys, monkeypatch):
        # the envelope's tenfold finer grid is checked before any certifier
        # work: this range would sweep 1,100,001 coarse points first
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep called")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        code, out, err = run(capsys, "upper", "--range", "0.5:0.61", "--step", "1e-7")
        assert code == 3
        assert out == ""
        assert err.splitlines()[0].startswith("error: step is too small for the range")


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

    def test_out_of_domain_range_fails_fast(self, capsys):
        # blind cannot bound r < 0.6735; refuted nodes are not split, so
        # the default depth of 40 costs O(40) nodes, not 2**40
        code, out, err = run(capsys, "certify", "--range", "0.3:0.99",
                             "--delta", "0.931", "--format", "json")
        assert code == 2
        obj = json.loads(out)
        assert not obj["success"]
        assert obj["node_count"] <= 2 * 40
        assert "certification failed" in err

    def test_threshold_spec_exit_three(self, capsys):
        # the threshold driver double proves nothing about packings, so the
        # command line does not offer it
        for command in ("upper", "certify"):
            code, out, err = run(capsys, command, "--range", "0.5:0.6",
                                 "--certifier", "threshold:0.93")
            assert code == 3
            assert out == ""
            assert err.splitlines()[0] == "error: unknown certifier 'threshold:0.93'"

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
# argv2 and argv3 were upper and certify --precision cases, removed with
# those flags; the ids are spelled out so the remaining cases keep their names
@pytest.mark.parametrize("argv", [
    ("lower", "--range", "0.4:0.5", "--step"),
    ("upper", "--range", "0.74:0.75", "--step"),
    ("certify", "--range", "0.743:0.75", "--delta"),
], ids=["argv0", "argv1", "argv4"])
def test_non_finite_number_is_config_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, value)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command, lo", [("lower", 0.5), ("upper", 0.9)])
def test_step_below_float_spacing_is_config_error(capsys, command, lo):
    # a step below the float spacing of the range would repeat grid ratios;
    # an ordinary step gives rows with strictly increasing r, which
    # curve_from_csv checks
    code, out, err = run(capsys, command, "--range", f"{lo!r}:{lo + 5e-16!r}",
                         "--step", "1e-17")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    code, out, _ = run(capsys, command, "--range", f"{lo!r}:{lo + 0.01!r}", "--step", "0.005")
    assert code == 0
    assert curve_from_csv(out)


def test_tiny_ratio_is_config_error(capsys):
    # the interstitial census refuses a hole of over 1e4 rows before
    # walking one
    code, out, err = run(capsys, "lower", "--range", "1e-300:1e-299", "--step", "1e-300")
    assert code == 3
    assert out == ""
    assert err.startswith("error: interstitial construction at r=1e-300 needs over 1e+04 rows")


# (built-in recipe file, key, how its value is broken)
MALFORMED_RECIPES = {
    "constrained-cell-row-short": ("flow_r6_1.json", "cell",
                                   lambda cell: [["0", "0"], *cell[1:]]),
    "constrained-cell-selector": ("flow_r6_1.json", "cell",
                                  lambda cell: [["0", "0", "big"], *cell[1:]]),
    "lattice-index-99": ("flow_841_mid.json", "lattice",
                         lambda lattice: {**lattice, "u": [[99, 1]]}),
    "cell-combo-disc-7": ("flow_841_mid.json", "cell",
                          lambda cell: [*cell[:3], {"combo": [[7, 1]], "radius": "ratio"}]),
    "cell-combo-negative": ("flow_841_mid.json", "cell",
                            lambda cell: [{"combo": [[-1, 1]], "radius": "one"}, *cell[1:]]),
    "sequential-cell-selector": ("flow_841_mid.json", "cell",
                                 lambda cell: [*cell[:3], {**cell[3], "radius": "Ratio"}]),
    "valid-range-one-end": ("flow_841_mid.json", "valid_range", lambda ends: ends[:1]),
    # a census that is not the cell's (2, 2) selector count
    "census-disagrees": ("flow_841_mid.json", "census", lambda census: {**census, "unit": 3}),
    "valid-range-reversed": ("flow_841_mid.json", "valid_range", lambda ends: ends[::-1]),
    "valid-range-zero": ("flow_841_mid.json", "valid_range", lambda ends: [0, ends[1]]),
    "valid-range-negative": ("flow_841_mid.json", "valid_range", lambda ends: [-0.5, ends[1]]),
    "valid-range-above-one": ("flow_r6_1.json", "valid_range", lambda ends: [ends[0], 1.5]),
    "valid-range-nan": ("flow_r6_1.json", "valid_range", lambda ends: [math.nan, ends[1]]),
    "valid-range-infinite": ("flow_r6_1.json", "valid_range", lambda ends: [ends[0], math.inf]),
    # a constant too large for a float, which every recipe constant becomes
    "constant-too-large": ("flow_r6_1.json", "equations",
                           lambda eqs: [eqs[0] + " + 0*1" + "0" * 400, *eqs[1:]]),
    # a boolean, which Python counts as an integer, is not a constant
    "bool-constant": ("flow_r6_1.json", "equations",
                      lambda eqs: [eqs[0] + " + True", *eqs[1:]]),
    # chains nested past the 200 parentheses the generated code can hold,
    # and past the recursion limit of a walk over the expression
    "equation-chain-200": ("flow_r6_1.json", "equations",
                           lambda eqs: [eqs[0] + " + 0*x1" * 200, *eqs[1:]]),
    "equation-chain-1200": ("flow_r6_1.json", "equations",
                            lambda eqs: [eqs[0] + " + 0*x1" * 1200, *eqs[1:]]),
}


@pytest.mark.parametrize("case", MALFORMED_RECIPES)
def test_malformed_recipe_is_config_error(tmp_path, case):
    # refused when the file is loaded, in a new process as a user runs it:
    # exit 3 and one error line, never a traceback or a silent default
    source, key, breaks = MALFORMED_RECIPES[case]
    with open(f"src/bidisc/data/{source}") as fh:
        obj = json.load(fh)
    obj[key] = breaks(obj[key])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run([sys.executable, "-m", "bidisc.cli", "lower", "--range", "0.45:0.46",
                           "--step", "0.01", "--recipe", str(path)],
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot load recipe {path}: ")
    assert "Traceback" not in proc.stderr


def test_recipe_seed_on_a_pole_warns(tmp_path):
    # flow-r6-1 with a pole at its seed's x1: the residuals at the seed
    # divide by zero, so there is no Newton step and the recipe fails at
    # every grid point, in a new process as a user runs it
    with open("src/bidisc/data/flow_r6_1.json") as fh:
        obj = json.load(fh)
    obj["name"] = "pole"
    obj["equations"][0] += f" + 1/(x1 - {obj['guess']['x1']!r})"
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(obj))
    argv = [sys.executable, "-m", "bidisc.cli", "lower", "--range", "0.39:0.41",
            "--step", "0.01"]
    env = dict(os.environ, PYTHONPATH="src")
    plain = subprocess.run(argv, env=env, capture_output=True, text=True)
    proc = subprocess.run([*argv, "--recipe", str(path)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == plain.returncode == 0
    assert proc.stdout == plain.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0] == "warning: recipe pole failed at 3 of 3 grid points"


def test_recipe_with_a_huge_power_fails_fast(tmp_path):
    # 3**3000000 takes half a second in integer arithmetic, on every
    # evaluation; as a float it overflows at once, and the seed solve fails
    with open("src/bidisc/data/flow_r6_1.json") as fh:
        obj = json.load(fh)
    obj["name"] = "bigpow"
    obj["equations"][0] += " + 0*3**3000000"
    path = tmp_path / "bigpow.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run([sys.executable, "-m", "bidisc.cli", "lower", "--range", "0.5:0.5",
                           "--step", "0.001", "--recipe", str(path)],
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True, timeout=5)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0] == "warning: recipe bigpow failed at 1 of 1 grid points"


def test_csv_chunks():
    # the header alone, then at most _CSV_BLOCK rows per chunk; fields by
    # str.format, so a float prints as its repr
    rows = [(0.1 * k, k, "tag") for k in range(2 * cli._CSV_BLOCK + 1)]
    chunks = list(cli._csv("a,b,c", iter(rows)))
    assert [chunk.count("\n") for chunk in chunks] == [1, cli._CSV_BLOCK, cli._CSV_BLOCK, 1]
    assert "".join(chunks) == "\n".join(
        ["a,b,c", *(f"{a!r},{b},{c}" for a, b, c in rows)]) + "\n"
    assert list(cli._csv("a,b", [])) == ["a,b\n"]


@pytest.mark.parametrize("sizes", [(0, 0), (1, 0), (0, 1), (3, 1), (5, 4096), (2, 4097),
                                   (0, 8192), (1, 8193)])
def test_json_chunks(sizes):
    # the pieces of a document of lists are json.dumps's bytes, wherever
    # the blocks end, on seeded rows that hold extreme floats
    rng = random.Random(sum(sizes))
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-7]

    def row(width):
        return tuple(rng.choice(extremes) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
                     for _ in range(width))

    payload = {"samples": [list(row(2)) for _ in range(sizes[0])],
               "curve": [(*row(2), "upper") for _ in range(sizes[1])]}
    chunks = list(cli._json_lists({key: iter(rows) for key, rows in payload.items()}))
    assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
    rows = [chunk.count("\n    [") for chunk in chunks]
    assert max(rows) <= cli._CSV_BLOCK
    assert sum(rows) == sum(sizes)


def test_unwritable_out_is_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "ratios", "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_max_depth_below_one_is_config_error(capsys):
    # the library's check and message: the command line does not repeat it
    code, out, err = run(capsys, "certify", "--range", "0.743:0.99", "--max-depth", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: max_depth must be at least 1\n")


def test_certify_has_no_precision_flag(capsys):
    code, out, err = run(capsys, "certify", "--range", "0.743:0.75", "--precision", "1e-3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_upper_has_no_precision_flag(capsys):
    # a sample is the least provable value to within harness._PRECISION
    code, out, err = run(capsys, "upper", "--range", "0.74:0.75", "--precision", "1e-4")
    assert code == 3
    assert out == ""
    assert err.startswith("error: unrecognized arguments: --precision")


class TestDeterminism:
    def test_lower_repeat_identical(self, capsys):
        _, first, _ = run(capsys, "lower", "--range", "0.42:0.43", "--step", "0.005")
        _, second, _ = run(capsys, "lower", "--range", "0.42:0.43", "--step", "0.005")
        assert first == second

    def test_upper_repeat_identical(self, capsys):
        _, first, _ = run(capsys, "upper", "--range", "0.74:0.75", "--step", "0.01")
        _, second, _ = run(capsys, "upper", "--range", "0.74:0.75", "--step", "0.01")
        assert first == second
