"""Unit tests for the command-line interface: schemas, exit codes, routing."""

import dataclasses
import json

import numpy as np
import pytest

import l1weak
from l1weak.cert import SupportPattern, classify_nsp
from l1weak.cli import dispatch, emit_csv, emit_svg, main
from l1weak.threshold import EpsilonSet, Regime, solve_theta


def _write_matrix(path, a):
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(a)]
    path.write_text("\n".join(lines) + "\n")


def _write_vector(path, y):
    path.write_text("\n".join(repr(float(v)) for v in np.asarray(y).ravel()) + "\n")


class TestThresholdVerb:
    def test_single_beta_csv(self, capsys):
        code, bundle = dispatch(["threshold", "--beta", "0.3"])
        assert code == 0
        lines = bundle.csv.strip().splitlines()
        assert lines[0] == "beta,theta_hat,alpha_w"
        beta, theta, alpha = (float(v) for v in lines[1].split(","))
        assert beta == 0.3
        assert theta == solve_theta(Regime.GENERAL, 0.3)
        assert alpha == theta
        assert capsys.readouterr().out == bundle.csv

    def test_signed_flag(self):
        code, bundle = dispatch(["threshold", "--beta", "0.3", "--signed"])
        assert code == 0
        theta = float(bundle.csv.strip().splitlines()[1].split(",")[1])
        assert theta == solve_theta(Regime.SIGNED, 0.3)

    def test_beta_range(self):
        code, bundle = dispatch(
            ["threshold", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "5"]
        )
        assert code == 0
        rows = bundle.csv.strip().splitlines()[1:]
        assert len(rows) == 5
        betas = [float(r.split(",")[0]) for r in rows]
        np.testing.assert_allclose(betas, [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)

    def test_epsilon_changes_columns(self):
        base = dispatch(["threshold", "--beta", "0.3"])[1]
        slack = dispatch(["threshold", "--beta", "0.3", "--eps-1c", "0.01"])[1]
        assert base.csv != slack.csv

    @pytest.mark.parametrize(
        ("flag", "field"),
        [
            ("--eps-1c", "eps1_c"),
            ("--eps-2c", "eps2_c"),
            ("--eps-1m", "eps1_m"),
            ("--eps-3m", "eps3_m"),
            ("--eps-1g", "eps1_g"),
            ("--eps-3g", "eps3_g"),
            ("--eps-5g", "eps5_g"),
        ],
    )
    def test_each_eps_flag_sets_its_own_field(self, flag, field):
        code, bundle = dispatch(["threshold", "--beta", "0.3", flag, "0.01"])
        assert code == 0
        expected = dataclasses.asdict(EpsilonSet(**{field: 0.01}))
        assert json.loads(bundle.json)["metadata"]["eps"] == expected

    def test_csv_round_trips_through_repr(self):
        bundle = dispatch(["threshold", "--beta", "0.3"])[1]
        theta_text = bundle.csv.strip().splitlines()[1].split(",")[1]
        assert repr(float(theta_text)) == theta_text

    def test_out_and_svg_files(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        code, bundle = dispatch(
            [
                "threshold",
                "--beta-min",
                "0.1",
                "--beta-max",
                "0.4",
                "--steps",
                "4",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        assert out.read_text() == bundle.csv
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'width="800"' in text and 'height="600"' in text
        assert "<polyline" in text
        assert capsys.readouterr().out == ""

    def test_conflicting_beta_flags_usage_error(self, capsys):
        code, bundle = dispatch(["threshold", "--beta", "0.3", "--steps", "4"])
        assert code == 2 and bundle is None
        assert "usage error" in capsys.readouterr().err

    def test_missing_beta_usage_error(self):
        assert dispatch(["threshold"])[0] == 2

    @pytest.mark.parametrize(
        ("beta_min", "beta_max", "steps"),
        [("0.1", "0.5", "0"), ("0.1", "0.5", "1"), ("0.5", "0.1", "3"), ("0.3", "0.3", "2")],
    )
    def test_bad_beta_range_usage_error(self, beta_min, beta_max, steps):
        argv = ["threshold", "--beta-min", beta_min, "--beta-max", beta_max, "--steps", steps]
        assert dispatch(argv) == (2, None)

    def test_one_step_range(self):
        argv = ["threshold", "--beta-min", "0.3", "--beta-max", "0.3", "--steps", "1"]
        code, bundle = dispatch(argv)
        assert code == 0
        assert bundle.csv == dispatch(["threshold", "--beta", "0.3"])[1].csv

    def test_solver_failure_is_exit_1(self, capsys):
        code, bundle = dispatch(["threshold", "--beta", "0.999999999999"])
        assert code == 1 and bundle is None
        assert "error" in capsys.readouterr().err


class TestTauVerb:
    def _matrix_file(self, tmp_path, seed=3, m=4, n=10):
        a = np.random.default_rng(seed).standard_normal((m, n))
        path = tmp_path / "a.csv"
        _write_matrix(path, a)
        return path

    def test_json_schema(self, tmp_path):
        path = self._matrix_file(tmp_path)
        code, bundle = dispatch(
            ["tau", "--matrix", str(path), "--support", "1,4", "--signs", "1,-1"]
        )
        assert code == 0
        payload = json.loads(bundle.json)
        assert set(payload) == {
            "tau",
            "z",
            "nu",
            "w",
            "iterations",
            "converged",
            "gap",
            "verdict",
        }
        assert payload["verdict"] in ("certified_failure", "certified_success", "inconclusive")
        assert len(payload["z"]) == 10
        assert len(payload["nu"]) == 4
        assert isinstance(payload["converged"], bool)
        # The document is exactly the package verdict's certificate payload.
        a = np.random.default_rng(3).standard_normal((4, 10))
        verdict = classify_nsp(a, SupportPattern(n=10, support=(1, 4), signs=(1, -1)))
        assert payload == verdict.certificate.json_payload(verdict.verdict)

    def test_signed_defaults_signs(self, tmp_path):
        path = self._matrix_file(tmp_path)
        code, bundle = dispatch(["tau", "--matrix", str(path), "--support", "0,2", "--signed"])
        assert code == 0
        assert json.loads(bundle.json)["tau"] <= 1e-12

    def test_general_requires_signs(self, tmp_path, capsys):
        path = self._matrix_file(tmp_path)
        code, _ = dispatch(["tau", "--matrix", str(path), "--support", "0,2"])
        assert code == 2
        assert "--signs is required" in capsys.readouterr().err

    def test_signed_rejects_negative_signs(self, tmp_path):
        path = self._matrix_file(tmp_path)
        code, _ = dispatch(
            ["tau", "--matrix", str(path), "--support", "0", "--signs", "-1", "--signed"]
        )
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = self._matrix_file(tmp_path)
        out = tmp_path / "cert.json"
        code, bundle = dispatch(
            [
                "tau",
                "--matrix",
                str(path),
                "--support",
                "1",
                "--signs",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == bundle.json
        assert capsys.readouterr().out == ""

    def test_bad_support_list(self, tmp_path):
        path = self._matrix_file(tmp_path)
        assert dispatch(["tau", "--matrix", str(path), "--support", "a,b"])[0] == 2


class TestRecoverVerb:
    def test_json_schema_and_echo(self, tmp_path):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 12))
        x0 = np.zeros(12)
        x0[[2, 7]] = [1.5, -2.0]
        mpath, ypath = tmp_path / "a.csv", tmp_path / "y.csv"
        _write_matrix(mpath, a)
        _write_vector(ypath, a @ x0)
        code, bundle = dispatch(["recover", "--matrix", str(mpath), "--y", str(ypath)])
        assert code == 0
        payload = json.loads(bundle.json)
        assert set(payload) == {
            "x_hat",
            "objective",
            "feas_residual",
            "iterations",
            "converged",
            "route",
        }
        assert payload["converged"] is True
        assert payload["route"] == "vertex"
        np.testing.assert_allclose(payload["x_hat"], x0, atol=1e-5)

    def test_tie_reports_the_exact_route(self, tmp_path):
        # min |x1| + |x2| s.t. x1 - x2 = 1 is optimal on a whole segment: no
        # strict certificate exists, so the exact vertex answers.
        mpath, ypath = tmp_path / "a.csv", tmp_path / "y.csv"
        _write_matrix(mpath, np.array([[1.0, -1.0]]))
        _write_vector(ypath, [1.0])
        code, bundle = dispatch(["recover", "--matrix", str(mpath), "--y", str(ypath)])
        assert code == 0
        payload = json.loads(bundle.json)
        assert (payload["route"], payload["converged"]) == ("exact", True)
        assert payload["objective"] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_nonneg_is_exit_1(self, tmp_path, capsys):
        # A x = y with x >= 0 has no solution when A >= 0 and y < 0.
        mpath, ypath = tmp_path / "a.csv", tmp_path / "y.csv"
        mpath.write_text("1.0,2.0,0.5\n")
        _write_vector(ypath, [-1.0])
        argv = ["recover", "--matrix", str(mpath), "--y", str(ypath), "--nonneg"]
        assert dispatch(argv) == (1, None)
        assert "no feasible point" in capsys.readouterr().err

    def test_nonneg_flag(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 9))
        x0 = np.zeros(9)
        x0[[1, 4]] = [1.0, 2.0]
        mpath, ypath = tmp_path / "a.csv", tmp_path / "y.csv"
        _write_matrix(mpath, a)
        _write_vector(ypath, a @ x0)
        code, bundle = dispatch(
            ["recover", "--matrix", str(mpath), "--y", str(ypath), "--nonneg"]
        )
        assert code == 0
        assert min(json.loads(bundle.json)["x_hat"]) >= 0.0

    def test_missing_file_is_error(self, tmp_path):
        code, _ = dispatch(
            ["recover", "--matrix", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2")]
        )
        assert code in (1, 2)


class TestMatrixFiles:
    """The comma-separated matrix and vector files read by ``tau`` and ``recover``."""

    def _tau(self, path):
        return dispatch(["tau", "--matrix", str(path), "--support", "1", "--signed"])

    @pytest.mark.parametrize(
        "text",
        ["1,2,3\n4,5\n", "1,2,x\n4,5,6\n", "", "\n  \n"],
        ids=["ragged", "non-numeric", "empty", "blank-only"],
    )
    def test_malformed_file_is_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, bundle = self._tau(path)
        assert code == 1 and bundle is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_blank_lines_are_skipped(self, tmp_path):
        a = np.random.default_rng(5).standard_normal((3, 6))
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        _write_matrix(plain, a)
        rows = [",".join(repr(float(v)) for v in row) for row in a]
        spaced.write_text("\n" + rows[0] + "\n\n" + rows[1] + "\n   \n" + rows[2] + "\n\n")
        assert self._tau(spaced)[1].json == self._tau(plain)[1].json

    def test_single_row_matrix_and_single_value_y(self, tmp_path):
        mpath, ypath = tmp_path / "a.csv", tmp_path / "y.csv"
        mpath.write_text("1.0,2.0,0.5\n")
        _write_vector(ypath, [2.0])
        code, bundle = dispatch(["recover", "--matrix", str(mpath), "--y", str(ypath)])
        assert code == 0
        assert len(json.loads(bundle.json)["x_hat"]) == 3


class TestPhaseVerb:
    def _run(self, tmp_path, threads="1", seed="77", extra=()):
        out = tmp_path / f"phase_{threads}_{seed}.csv"
        code, bundle = dispatch(
            [
                "phase",
                "--n",
                "24",
                "--alpha-grid",
                "0.4:0.8:2",
                "--beta-grid",
                "0.1:0.1:1",
                "--trials",
                "4",
                "--seed",
                seed,
                "--threads",
                threads,
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, bundle, out

    def test_csv_schema(self, tmp_path):
        code, bundle, out = self._run(tmp_path)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,m,k,trials,successes,rate"
        first = lines[1].split(",")
        assert len(first) == 7
        assert int(first[4]) == 4

    def test_byte_identical_across_threads(self, tmp_path):
        _, b1, out1 = self._run(tmp_path, threads="1")
        _, b2, out2 = self._run(tmp_path, threads="2")
        assert out1.read_text() == out2.read_text()
        assert b1.json == b2.json

    def test_metadata_excludes_threads(self, tmp_path):
        _, bundle, _ = self._run(tmp_path)
        assert "threads" not in bundle.json

    def test_bad_grid_syntax(self, tmp_path):
        code, _ = dispatch(
            [
                "phase",
                "--n",
                "24",
                "--alpha-grid",
                "0.4-0.8-2",
                "--beta-grid",
                "0.1:0.1:1",
                "--trials",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 2

    def test_svg_contains_cells(self, tmp_path):
        svg = tmp_path / "phase.svg"
        code, _, _ = self._run(tmp_path, extra=("--svg", str(svg)))
        assert code == 0
        assert "<rect" in svg.read_text()


class TestFrameworkVerb:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "fw.csv"
        code, bundle = dispatch(
            [
                "framework",
                "--n",
                "1000",
                "--beta",
                "0.3",
                "--samples",
                "10",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,beta,samples,alpha_estimate,cw_over_n"
        row = lines[1].split(",")
        assert int(row[0]) == 1000 and int(row[2]) == 10

    def test_deterministic(self, tmp_path):
        args = ["framework", "--n", "1000", "--beta", "0.3", "--samples", "10", "--seed", "5"]
        assert dispatch(args)[1].csv == dispatch(args)[1].csv

    def test_undersized_n_is_error(self):
        code, _ = dispatch(
            ["framework", "--n", "100", "--beta", "0.3", "--samples", "10", "--seed", "5"]
        )
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--beta", "0.3"],
        ["phase", "--n", "24", "--alpha-grid", "0.5:0.5:1", "--beta-grid", "0.1:0.1:1"]
        + ["--trials", "2", "--seed", "3"],
        ["framework", "--n", "1000", "--beta", "0.3", "--samples", "10", "--seed", "5"],
    ],
    ids=["threshold", "phase", "framework"],
)
def test_metadata_reports_package_version(argv):
    code, bundle = dispatch(argv)
    assert code == 0
    assert json.loads(bundle.json)["metadata"]["version"] == l1weak.__version__


class TestEmitters:
    def test_emit_csv_rejects_empty(self):
        with pytest.raises(ValueError):
            emit_csv(["a"], [])

    def test_emit_csv_rejects_ragged(self):
        with pytest.raises(ValueError):
            emit_csv(["a", "b"], [(1.0,)])

    def test_emit_csv_booleans_and_ints(self):
        text = emit_csv(["x", "ok"], [(3, True)])
        assert text == "x,ok\n3,true\n"

    def test_emit_svg_byte_stable(self):
        curve = [(0.1, 0.2), (0.5, 0.6)]
        assert emit_svg(curve) == emit_svg(curve)

    def test_main_matches_dispatch_code(self):
        assert main(["threshold", "--beta", "0.4"]) == 0
        assert main(["threshold"]) == 2
