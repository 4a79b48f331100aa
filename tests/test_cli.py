import json
import math
import subprocess
import sys

import numpy as np
import pytest

from quadgauss import cli, densifier
from quadgauss.quadform import DecoupledConstraint, QuadraticForm, save_instance


@pytest.fixture
def chi2_instance(tmp_path):
    path = tmp_path / "chi2.json"
    save_instance(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0), str(path))
    return str(path)


@pytest.fixture
def const_pos_instance(tmp_path):
    path = tmp_path / "one.json"
    save_instance(QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=1.0), str(path))
    return str(path)


def run_inproc(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCount:
    def test_chi2_estimate(self, chi2_instance, capsys):
        code, out = run_inproc(
            ["count", "--instance", chi2_instance, "--eps", "0.02", "--trunc-B", "6"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] == pytest.approx(0.6321205588285577, rel=0.03)
        assert set(doc) == {"estimate", "eps", "below_floor"}

    def test_constant_positive(self, const_pos_instance, capsys):
        code, out = run_inproc(["count", "--instance", const_pos_instance], capsys)
        assert code == 0
        assert json.loads(out)["estimate"] == 1.0

    def test_deterministic_output(self, chi2_instance, capsys):
        _, out1 = run_inproc(["count", "--instance", chi2_instance], capsys)
        _, out2 = run_inproc(["count", "--instance", chi2_instance], capsys)
        assert out1 == out2

    def test_malformed_instance_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run_inproc(["count", "--instance", str(bad)], capsys)
        assert code == 1

    def test_decoupled_instance_format(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        path.write_text(
            json.dumps(
                {"decoupled": {"lambda": [0.5, 0.5], "mu": [0.0, 0.0], "theta": 1.0}}
            )
        )
        code, out = run_inproc(
            ["count", "--instance", str(path), "--eps", "0.02", "--trunc-B", "6"],
            capsys,
        )
        assert code == 0
        # sum of 0.5 G_i^2 <= 1 is the chi^2_2 CDF at 2
        assert json.loads(out)["estimate"] == pytest.approx(0.6321205588, rel=0.03)

    def test_below_floor_exit_2(self, tmp_path, capsys):
        path = tmp_path / "thin.json"
        save_instance(
            QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=-8.0), str(path)
        )
        code, out = run_inproc(
            ["count", "--instance", str(path), "--trunc-B", "10"], capsys
        )
        assert code == 2
        assert json.loads(out)["below_floor"] is True

    def test_null_coordinates_are_not_counted(self, tmp_path, capsys):
        # x1 >= 3 in R^3: the count drops the two null coordinates and reads
        # x1's grid cells [3, inf) with nothing compressed
        path = tmp_path / "thin3.json"
        save_instance(
            QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0), str(path)
        )
        code, out = run_inproc(["count", "--instance", str(path)], capsys)
        assert code == 0
        upper_tail = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        assert json.loads(out)["estimate"] == pytest.approx(upper_tail, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-200, 1e-100, 1e100, 1e200])
    def test_scaled_region_counts_like_unscaled(self, tmp_path, capsys, s):
        # s*x^2 - s >= 0 is x^2 >= 1 at every scale; at 1e+-200 the squares
        # of the coefficients overflow or underflow to 0
        def estimate(scale):
            path = tmp_path / f"scaled{scale}.json"
            save_instance(
                QuadraticForm(A=np.full((1, 1), scale), b=np.zeros(1), c=-scale), str(path)
            )
            code, out = run_inproc(["count", "--instance", str(path)], capsys)
            assert code == 0
            return json.loads(out)["estimate"]

        assert estimate(s) == pytest.approx(estimate(1.0), rel=1e-12)

    def test_unit_tau_counts_the_grid_mass(self, chi2_instance, capsys):
        # tau = 1 is a power of 2 in (0, 1]; at B = 4 the grid points of
        # x1^2 + x2^2 <= 2 are {-1, 0, 1}^2, whose cells cover [-1, 2)^2
        code, out = run_inproc(["count", "--instance", chi2_instance, "--tau", "1"], capsys)
        assert code == 0
        side = 0.5 * (math.erf(2.0 / math.sqrt(2.0)) - math.erf(-1.0 / math.sqrt(2.0)))
        assert json.loads(out)["estimate"] == pytest.approx(side * side, rel=1e-12)

    def test_main_leaves_numpy_error_state_alone(self, chi2_instance, capsys):
        with np.errstate(all="warn"):
            code, _ = run_inproc(["count", "--instance", chi2_instance], capsys)
            assert code == 0
            assert set(np.geterr().values()) == {"warn"}

    def test_zero_estimate_prints_strict_json(self, tmp_path, capsys):
        # x1 >= 6 at default flags counts exactly 0; stdout stays standard
        # JSON, with no -Infinity or NaN token
        path = tmp_path / "x6.json"
        save_instance(
            QuadraticForm(A=np.zeros((1, 1)), b=np.array([1.0]), c=-6.0), str(path)
        )
        code, out = run_inproc(["count", "--instance", str(path)], capsys)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert code == 2
        doc = json.loads(out, parse_constant=reject)
        assert doc == {"below_floor": True, "eps": 0.05, "estimate": 0.0}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--eps", "0"],
            ["sample", "--eps", "0"],
            ["sample", "--samples", "-3"],
            ["count", "--tau", "0.3"],
            ["sample", "--tau", "0.3"],
            # tau must be a power of 2 in (0, 1]
            ["count", "--tau", "2"],
            ["sample", "--tau", "2"],
            ["count", "--trunc-B", "0.3"],
            # coefficients are not rounded, so there is no --gamma flag:
            # argparse refuses it as unknown
            ["count", "--gamma", "0.5"],
            ["sample", "--gamma", "0.5"],
            ["densify", "--eps", "0"],
            ["densify", "--eps", "-0.1"],
            ["densify", "--eps", "1"],
            ["densify", "--delta", "1.5"],
            ["densify", "--delta", "0"],
            ["densify", "--n-pos", "0"],
            ["densify", "--n-pos", "5"],
            ["densify", "--mistake-budget", "-1"],
            ["geninstance", "--variant", "pm1", "--w0", "2", "--w", "1,1,2", "--c", "0.5"],
            ["geninstance", "--variant", "cube01", "--w0", "2", "--w", "1,1,2", "--c", "-3"],
            ["geninstance", "--w0", "2", "--w", "1,1,2", "--c", "nan"],
            ["geninstance", "--variant", "pm1", "--w0", "2", "--w", "1,1,2", "--c", "inf"],
            ["sample", "--filter", "--filter-retries", "-1"],
            # usage errors that argparse raises
            ["count", "--eps", "abc"],
            ["sample", "--samples", "x"],
            ["densify", "--n-pos", "1.5"],
            ["geninstance", "--w0", "2", "--w", "1,1,2", "--c", "-inf"],
            ["count", "--no-such-flag"],
            ["count", "--trunc-B", "inf"],
            ["count", "--tau", "5e-324"],
            # count draws nothing, so it takes no seed
            ["count", "--seed", "1"],
            # a sampler at eps = 1 would bound nothing
            ["sample", "--eps", "1"],
        ],
    )
    def test_bad_flag_exit_1(self, chi2_instance, capsys, argv):
        if argv[0] != "geninstance":
            argv = [*argv, "--instance", chi2_instance]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["count", "sample", "densify"])
    def test_missing_instance_exit_1(self, capsys, command):
        code = cli.main([command])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--instance" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_densify_rejects_decoupled_instance(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        path.write_text(
            json.dumps({"decoupled": {"lambda": [0.5, 0.5], "mu": [0.0, 0.0], "theta": 1.0}})
        )
        code = cli.main(["densify", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "decoupled" in captured.err

    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_empty_decoupled_instance_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"decoupled": {"lambda": [], "mu": [], "theta": 1}}))
        code = cli.main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: cannot read instance: lambda, mu and rotation must be nonempty\n"
        )

    @pytest.mark.parametrize("command", ["count", "sample"])
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": 2.5, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": 1}', "field 'n' must be"),
            ('{"n": "2", "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": 1}', "field 'n' must be"),
            ('{"n": 2, "A": [[-1, 0], [0, -1]], "b": [0, 0], "c": true}', "field 'c' must be"),
            ('{"n": 2, "A": [["-1", 0], [0, -1]], "b": [0, 0], "c": 1}', "field 'A' must be"),
            ('{"n": 2, "A": [[-1, 0], [0, -1]], "b": [0, 0]}', "missing field 'c'"),
            ('[{"n": 1, "A": [[-1]], "b": [0], "c": 1}]', "the instance must be a JSON object"),
        ],
    )
    def test_wrongly_typed_instance_exit_1(self, tmp_path, capsys, command, text, field):
        # n = 2.5 was read as 2 and counted with exit 0; a missing key or a
        # top-level array gave a bare KeyError or TypeError message
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read instance: ") and field in captured.err
        assert captured.err.count("\n") == 1

    def test_huge_grid_size_is_printed_in_three_digits(self, chi2_instance, capsys):
        # B = 1e300 gives 2B/tau + 1 = 5.12e302 points per coordinate
        code = cli.main(["count", "--instance", chi2_instance, "--trunc-B", "1e300"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: grid has 5.12e+302 points per coordinate, beyond the size guard "
            "of 1.05e+06; use a coarser tau or a smaller B\n"
        )

    def test_grid_beyond_float_range_exit_1(self, chi2_instance, capsys):
        # 2B/tau + 1 = 2e308 + 1 points per coordinate is no double: the
        # message prints it as inf rather than fail to format it
        code = cli.main(["count", "--instance", chi2_instance, "--tau", "1", "--trunc-B", "1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: grid has inf points per coordinate")
        assert captured.err.count("\n") == 1

    def test_densify_zero_mass_target_exit_1(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        save_instance(QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=-1.0), str(path))
        code = cli.main(["densify", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "positive region" in captured.err

    def test_oversized_grid_refused_before_work(self, chi2_instance, capsys):
        # tau 2^-20 gives 8.4M points per coordinate: refused by the size
        # guard, not built
        code = cli.main(["count", "--instance", chi2_instance, "--tau", str(2.0**-20)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: grid has 8.39e+06 points per coordinate")

    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_non_finite_instance_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "A": [[-1.0, NaN], [NaN, -1.0]], "b": [0.0, 0.0], "c": 2.0}')
        code = cli.main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err

    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_overflowing_eigenvalue_exit_1(self, tmp_path, capsys, command):
        # every entry is finite, but A's eigenvalue -3e308 is not
        path = tmp_path / "big.json"
        big = -1.5e308
        save_instance(QuadraticForm(A=np.full((2, 2), big), b=np.zeros(2), c=1.0), str(path))
        code = cli.main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: an eigenvalue of A or a coefficient of R^T b overflows the float range\n"
        )

    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_oversized_instance_exit_1(self, tmp_path, capsys, command):
        # n = 16 with default flags: the first convolution trips the size guard
        gen = np.random.default_rng(16)
        big = gen.standard_normal((16, 16))
        q = QuadraticForm(
            A=-np.eye(16) + 0.15 * (big + big.T), b=0.3 * gen.standard_normal(16), c=16.0
        )
        path = tmp_path / "n16.json"
        save_instance(q, str(path))
        code = cli.main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "size guard" in captured.err


class TestSample:
    def test_zero_samples(self, chi2_instance, capsys):
        code, out = run_inproc(
            ["sample", "--instance", chi2_instance, "--samples", "0"], capsys
        )
        assert code == 0 and out == ""

    def test_points_satisfy_filter(self, chi2_instance, tmp_path, capsys):
        dc = DecoupledConstraint(
            lam=np.array([0.5, 0.25]), mu=np.array([0.25, 0.0]), theta=1.0, rotation=np.eye(2)
        )
        dc_instance = str(tmp_path / "dec.json")
        save_instance(dc, dc_instance)
        for path, accepts in (
            (chi2_instance, lambda pts: np.sum(pts**2, axis=1) <= 2.0),
            (dc_instance, dc.accepts),
        ):
            code, out = run_inproc(
                [
                    "sample",
                    "--instance",
                    path,
                    "--samples",
                    "50",
                    "--filter",
                    "--tau",
                    str(2.0**-5),
                    "--trunc-B",
                    "4",
                ],
                capsys,
            )
            assert code == 0
            pts = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
            assert pts.shape == (50, 2)
            assert np.all(accepts(pts))

    def test_fixed_seed_reproduces(self, chi2_instance, capsys):
        argv = [
            "sample",
            "--instance",
            chi2_instance,
            "--samples",
            "20",
            "--seed",
            "7",
            "--tau",
            str(2.0**-5),
            "--trunc-B",
            "4",
        ]
        _, out1 = run_inproc(argv, capsys)
        _, out2 = run_inproc(argv, capsys)
        assert out1 == out2

    def test_json_lines_mode(self, chi2_instance, capsys):
        code, out = run_inproc(
            [
                "sample",
                "--instance",
                chi2_instance,
                "--samples",
                "3",
                "--json",
                "--tau",
                str(2.0**-5),
                "--trunc-B",
                "4",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"x", "filtered"} and len(doc["x"]) == 2

    def test_empty_region_exit_2(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        save_instance(
            QuadraticForm(A=np.zeros((2, 2)), b=np.zeros(2), c=-1.0), str(path)
        )
        code, _ = run_inproc(["sample", "--instance", str(path), "--samples", "1"], capsys)
        assert code == 2

    def test_filter_exhaustion_exit_3(self, chi2_instance, capsys, monkeypatch):
        from quadgauss.sampler import FilterRetryError

        class Exhausted:
            def __init__(self, *a, **k):
                pass

            def sample(self, *a, **k):
                raise FilterRetryError("forced")

        monkeypatch.setattr(cli, "PtfSampler", Exhausted)
        code, _ = run_inproc(
            ["sample", "--instance", chi2_instance, "--samples", "1", "--filter"],
            capsys,
        )
        assert code == 3

    def test_unit_tau_draws_lift(self, chi2_instance, capsys):
        # tau = 1: each draw lifts into a cell of [-1, 2)^2, up to the
        # rotation decouple picks for -I
        code, out = run_inproc(
            ["sample", "--instance", chi2_instance, "--tau", "1", "--samples", "5", "--json"], capsys
        )
        assert code == 0
        points = np.array([json.loads(line)["x"] for line in out.splitlines()])
        assert points.shape == (5, 2)
        assert np.all(np.hypot(points[:, 0], points[:, 1]) < math.sqrt(8.0))

    def test_negative_seed_exit_1(self, chi2_instance, capsys):
        code = cli.main(["sample", "--instance", chi2_instance, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"


class TestGeninstance:
    def test_cube01_example(self, capsys):
        code, out = run_inproc(
            ["geninstance", "--variant", "cube01", "--w0", "8", "--w", "3,5"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["solutions"] == [[1, 1]]
        assert doc["variant"] == "cube01"
        # the emitted ptf instance is loadable by count
        assert {"n", "A", "b", "c"} <= set(doc["ptf"])
        alpha = doc["alpha"]
        lam = 4.0 * 2 * (3**2 + 5**2) ** 0.5
        assert abs(alpha * (1 - alpha) - 1 / (2 * lam)) < 1e-12

    def test_pm1_parity_unsatisfiable(self, capsys):
        code, out = run_inproc(
            ["geninstance", "--variant", "pm1", "--w0", "1", "--w", "2,4,6"], capsys
        )
        assert code == 0
        assert json.loads(out)["solutions"] == []

    def test_large_c_keeps_radius_order(self, capsys):
        # the textbook radius formulas put beta above alpha here
        code, out = run_inproc(
            ["geninstance", "--w0", "3", "--w", "1,2,4", "--c", "1e6"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["beta"] < doc["alpha"]

    @pytest.mark.parametrize("variant", ["cube01", "pm1"])
    def test_overflowing_c_names_c(self, capsys, variant):
        code = cli.main(
            ["geninstance", "--variant", variant, "--w0", "2", "--w", "1,1,2", "--c", "1e308"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: c = 1e+308 overflows the penalty")

    @pytest.mark.parametrize(
        "variant, c, cause",
        [
            ("cube01", "1e15", "are equal in double precision"),
            ("pm1", "1e29", "are equal in double precision"),
            ("pm1", "1e30", "are equal in double precision"),
        ],
    )
    def test_merged_radii_name_c(self, capsys, variant, c, cause):
        # exactly beta < alpha, but at this c both round to one double
        code = cli.main(["geninstance", "--variant", variant, "--w0", "3", "--w", "1,2,4", "--c", c])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: at c = {float(c):g} ")
        assert cause in captured.err
        assert captured.err.rstrip().endswith("use a smaller c")

    def test_invalid_weights_exit_1(self, capsys):
        code, _ = run_inproc(
            ["geninstance", "--variant", "cube01", "--w0", "1", "--w=-3,5"], capsys
        )
        assert code == 1

    def test_generated_ptf_counts(self, tmp_path, capsys):
        code, out = run_inproc(
            ["geninstance", "--variant", "cube01", "--w0", "8", "--w", "3,5"], capsys
        )
        doc = json.loads(out)
        path = tmp_path / "fw.json"
        path.write_text(json.dumps(doc["ptf"]))
        code, out = run_inproc(["count", "--instance", str(path)], capsys)
        # the satisfying cluster is tiny under the Gaussian; flagged, not lost
        assert code in (0, 2)
        assert json.loads(out)["estimate"] >= 0.0


class TestDensifyCommand:
    def test_planted_run(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        save_instance(
            QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107), str(path)
        )
        code, out = run_inproc(
            ["densify", "--instance", str(path), "--seed", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed_a"] and doc["passed_b"]

    def test_thin_target_density_resolved_below_gamma(self, tmp_path, capsys):
        # x1 >= 4 has mass 3.2e-5; the density test stops the run at round 1,
        # which only guarantees density about gamma/2.  Criterion (b),
        # p * agreement / mass(g), resolves that density (7.7e-5 at seed 3),
        # far below 1/n_validation, and it misses the gamma bar
        path = tmp_path / "x1ge4.json"
        path.write_text('{"n": 2, "A": [[0,0],[0,0]], "b": [1, 0], "c": -4}')
        code, out = run_inproc(["densify", "--instance", str(path), "--seed", "3"], capsys)
        doc = json.loads(out)
        assert doc["rounds"] == 1 and doc["passed_a"]
        assert 0.0 < doc["density"] < doc["gamma"]
        assert not doc["passed_b"] and code == 4

    def test_zero_budget_on_nontrivial_target(self, tmp_path, capsys):
        # mistake budget 0 with a target too thin for the round-zero density
        # test: first fed example exhausts the budget
        path = tmp_path / "thin.json"
        save_instance(
            QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-2.9),
            str(path),
        )
        transcript = tmp_path / "run.jsonl"
        code, out = run_inproc(
            [
                "densify",
                "--instance",
                str(path),
                "--mistake-budget",
                "0",
                "--seed",
                "3",
                "--transcript",
                str(transcript),
            ],
            capsys,
        )
        assert code == 4
        assert json.loads(out)["error"] == "budget-exhausted"
        events = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert any(e["event"] == "count" for e in events)


    def test_kappa_flip_exit_4(self, tmp_path, capsys, monkeypatch):
        # the CLI has no --kappa flag, so rounding is replaced by one that
        # flips by construction.  Every pool point rounds to P = (4, 0), so
        # what is learned does not depend on the positive stream.  Each
        # negative after the first keeps its draw as the rounded point and
        # has its raw point moved onto the first negative, which the learner
        # already rejects: rounding carries the fed point across the
        # hypothesis.  x1 >= 3.5 is thin enough that round 1 is reached.
        real = densifier._round_kappa
        negatives = []

        def across(x):
            if x.ndim == 2:
                return np.broadcast_to([4.0, 0.0], x.shape).copy()
            negatives.append(real(x))
            if len(negatives) > 1:
                x[:] = negatives[0]
            return negatives[-1]

        monkeypatch.setattr(densifier, "_round_kappa", across)
        path = tmp_path / "thin.json"
        save_instance(
            QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-3.5),
            str(path),
        )
        transcript = tmp_path / "run.jsonl"
        argv = ["densify", "--instance", str(path), "--mistake-budget", "30", "--seed", "1"]
        code, out = run_inproc([*argv, "--transcript", str(transcript)], capsys)
        assert code == 4
        doc = json.loads(out)
        assert doc["error"] == "kappa-flip" and "kappa rounding flipped" in doc["detail"]
        events = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert events[-1]["event"] == "terminate"
        assert len(negatives) > 1

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_bad_transcript_path_fails_before_work(
        self, tmp_path, capsys, monkeypatch, chi2_instance, where
    ):
        def never(*args, **kwargs):
            raise AssertionError("planted_experiment ran")

        monkeypatch.setattr(cli, "planted_experiment", never)
        path = tmp_path / "no" / "t.jsonl" if where == "missing_dir" else tmp_path
        code = cli.main(
            ["densify", "--instance", chi2_instance, "--transcript", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write transcript: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestValidate:
    def test_exit_zero_and_reports(self, capsys):
        code, out = run_inproc(["validate"], capsys)
        assert code == 0
        assert out.endswith("11/11 checks passed\n")
        assert "FAIL" not in out


class TestSubprocessEntry:
    def test_module_invocation_byte_identical(self, tmp_path):
        path = tmp_path / "chi2.json"
        save_instance(QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=2.0), str(path))
        argv = [
            sys.executable,
            "-m",
            "quadgauss.cli",
            "count",
            "--instance",
            str(path),
            "--eps",
            "0.05",
        ]
        r1 = subprocess.run(argv, capture_output=True, text=True)
        r2 = subprocess.run(argv, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_commands_load_no_scipy(self, chi2_instance):
        # scipy would cost every process ~100 ms and ~24 MB; no command needs it
        script = (
            "import sys, contextlib, io, quadgauss.cli as cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        commands = [
            f"count --instance {chi2_instance}",
            f"sample --instance {chi2_instance} --filter --samples 3",
            f"densify --instance {chi2_instance}",
            "geninstance --variant pm1 --w0 2 --w 1,1,2",
            "validate",
        ]
        r = subprocess.run(
            [sys.executable, "-c", script, *commands], capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"
        r = subprocess.run(
            [sys.executable, "-m", "quadgauss.cli", "geninstance", "--variant", "pm1", "--w0", "2", "--w", "1,1,2"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["variant"] == "pm1"

    def test_help_documents_flags(self):
        r = subprocess.run(
            [sys.executable, "-m", "quadgauss.cli", "sample", "--help"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        for flag in ("--eps", "--tau", "--trunc-B", "--seed", "--samples", "--filter", "--json", "--instance"):
            assert flag in r.stdout
        assert "--gamma" not in r.stdout
