import argparse
import csv
import inspect
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from reflectionless import (FSelector, JacobiCoefficients, NumericError, StepFunction,
                            Tail, cli)
from reflectionless import experiments
from reflectionless.experiments import (approximate_omega_limit,
                                        run_extremal_table,
                                        run_forward_asymptotics,
                                        run_lower_bound_suite,
                                        run_perturbation_sweep,
                                        run_shift_clusters, write_report)

from conftest import SIX_BANDS


def window_distance(j, n1, n2, window):
    """The clustering metric between the windows of S^n1 J and S^n2 J, as a
    scalar sum read one coefficient at a time."""
    return sum(2.0 ** (-i) * (abs(j.a(n1 + i) - j.a(n2 + i))
                              + abs(j.b(n1 + i) - j.b(n2 + i)))
               for i in range(window))


def omega_limit_by_loop(j, horizon, window, threshold):
    """Reference for `approximate_omega_limit`: each shift against each
    representative in turn, through `window_distance`."""
    clusters = []
    for n in range(horizon + 1):
        for cl in clusters:
            if window_distance(j, n, cl["representative"], window) <= threshold:
                cl["members"].append(n)
                break
        else:
            a, b = j.arrays(n, n + window - 1)
            clusters.append({"representative": n, "members": [n],
                             "window_a": a.tolist(), "window_b": b.tolist()})
    for cl in clusters:
        cl["distances"] = [window_distance(j, cl["representative"],
                                           other["representative"], window)
                           for other in clusters]
    return clusters


class TestRunners:
    def test_lower_bound_suite_passes_and_reports(self):
        rep = run_lower_bound_suite(samples=8)
        assert rep["passed"]
        assert len(rep["rows"]) == 8
        assert rep["rows"][0]["deviation"] < 1e-7  # the designated free sample

    def test_lower_bound_affine_interval(self):
        rep = run_lower_bound_suite(k_intervals=[[2.0, 6.0]], samples=8)
        assert rep["passed"]
        assert rep["meta"]["A"] == 1.0 and rep["meta"]["B"] == 4.0

    @pytest.mark.parametrize("k", [((1e6, 1000004.0),), ((-1e6, 1e6),)])
    def test_lower_bound_far_from_the_origin(self, k):
        # a band of width 4 at 1e6 and a band reaching 1e6: the densities on
        # pieces near 1e6 keep their accuracy, so every quadrature converges
        rep = run_lower_bound_suite(k_intervals=k)
        assert rep["passed"]
        assert len(rep["rows"]) == 100

    def test_lower_bound_requires_single_interval(self):
        with pytest.raises(ValueError, match="the lower-bound suite needs a single-interval K"):
            run_lower_bound_suite(k_intervals=[[-2.0, 0.0], [1.0, 2.0]], samples=8)

    def test_perturbation_sweep_passes(self):
        rep = run_perturbation_sweep(n_coeffs=12)
        assert rep["passed"]
        fams = {r["family"] for r in rep["rows"]}
        assert fams == {"xi-mass", "f-atom"}

    def test_perturbation_sweep_detects_broken_ordering(self):
        # reversed family: the strict-decrease assertion must fail
        rep = run_perturbation_sweep(xi_widths=[0.004, 0.04, 0.4], n_coeffs=12)
        assert not rep["passed"]

    @pytest.mark.parametrize("key, size, bound", [("xi_widths", 3.0, "2.0"),
                                                  ("f_masses", 2.3, "2.23606797749979")])
    def test_perturbation_sweep_refuses_sizes_past_the_domain(self, key, size, bound):
        # on R = 4 the xi piece is (2, 2 + w) and the f-atom piece (3, 3 + m / sqrt(5))
        with pytest.raises(ValueError, match=rf"{key} must be at most {bound}"):
            run_perturbation_sweep(n_coeffs=12, **{key: [size]})
        rep = run_perturbation_sweep(n_coeffs=12, **{key: [float(bound)]})
        assert len(rep["rows"]) == 6   # one size and the free input, beside the default family

    def test_forward_asymptotics_passes(self):
        rep = run_forward_asymptotics(n_coeffs=30)
        assert rep["passed"]
        assert len(rep["rows"]) == 31

    def test_forward_asymptotics_scaled_semicircle(self):
        rep = run_forward_asymptotics(atoms=[], semicircle_scale=1.44, n_coeffs=30)
        assert rep["passed"]
        assert rep["rows"][0]["a"] == pytest.approx(1.2, rel=1e-10, abs=0)
        deep = [r for r in rep["rows"] if r["n"] >= 1]
        assert max(abs(r["a"] - 1.0) + abs(r["b"]) for r in deep) < 1e-9

    def test_forward_asymptotics_certifies_once(self, monkeypatch):
        # the report's rules and certificate are those of the run that made
        # the coefficients, not of a second certification
        from reflectionless import inverse
        calls, certified = [], inverse._certified
        monkeypatch.setattr(inverse, "_certified",
                            lambda nu, n: calls.append(n) or certified(nu, n))
        rep = run_forward_asymptotics()
        assert calls == [30]
        assert set(rep["meta"]) == {"rules", "certificate", "min_offdiagonal"}
        assert rep["meta"]["certificate"] <= 1e-12 * 3.0   # scale: the atom at 3.0

    def test_forward_asymptotics_rejects_atoms_on_band(self):
        with pytest.raises(ValueError, match=r"atom at 1\.0 is not off the band \[-2, 2\]"):
            run_forward_asymptotics(atoms=[[1.0, 0.1]])

    def test_extremal_table_includes_closed_forms(self):
        rep = run_extremal_table(sets=[[[-2.0, 2.0]], [[0.0, 4.0]],
                                       [[-2.0, -0.5], [0.5, 2.0]]])
        assert rep["passed"]
        assert rep["rows"][0]["A"] == pytest.approx(1.0, abs=1e-8)
        assert rep["rows"][1]["A"] == pytest.approx(1.0, abs=1e-8)
        assert rep["rows"][2]["A"] == pytest.approx(0.75, abs=1e-6)
        for row in rep["rows"]:
            assert set(row) == {"set", "A", "argmin", "iterations", "R_used", "closed_form",
                                "quadrature_A"}

    def test_extremal_table_checks_the_quadrature_at_the_certified_jumps(self, monkeypatch):
        # A is |K|/4 by derivation; the check is on the band quadrature, so a
        # quadrature off by 3e-12 relative fails it
        quadrature = experiments.mass_objective
        monkeypatch.setattr(experiments, "mass_objective",
                            lambda k, jumps: (1.0 + 6e-12) * quadrature(k, jumps))
        rep = run_extremal_table(sets=[[[-2.0, -0.5], [0.5, 2.0]]])
        assert rep["rows"][0]["A"] == 0.75
        assert [a["name"] for a in rep["assertions"] if not a["passed"]] == \
            ["set 0: closed form |K|/4"]

    def test_extremal_table_certifies_against_the_solver_tolerance(self):
        # bands 1e-2 wide and 23 apart, where s_0/(2f) is 1.8e6: the closed form
        # f cancels, and the jumps certified by the root test of P_L - P_R reach
        # |K|/4 by the quadrature
        rep = run_extremal_table(sets=[
            [[0.0, 0.013333428764625703], [23.39727979849806, 23.408466016736373]]])
        assert rep["passed"]
        row = rep["rows"][0]
        assert row["quadrature_A"] == pytest.approx(row["closed_form"], rel=1e-12, abs=0)


class TestOmegaLimit:
    def test_free_operator_single_cluster(self):
        j = JacobiCoefficients.periodic([1.0], [0.0]).restrict(0, 30)
        clusters = approximate_omega_limit(j, horizon=20, window=6)
        assert len(clusters) == 1
        assert clusters[0]["members"] == list(range(21))

    def test_alternating_operator_two_clusters(self):
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0]).restrict(0, 40)
        clusters = approximate_omega_limit(j, horizon=20, window=6)
        assert len(clusters) == 2
        assert clusters[0]["members"] == list(range(0, 21, 2))
        assert clusters[0]["distances"][1] > 1.0

    def test_horizon_past_window_rejected(self):
        j = JacobiCoefficients.periodic([1.0], [0.0]).restrict(0, 10)
        with pytest.raises(ValueError):
            approximate_omega_limit(j, horizon=10, window=5)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0])
    def test_nan_or_non_positive_threshold_rejected(self, threshold):
        # such a threshold would leave every shift in a cluster of its own
        j = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0]).restrict(0, 20)
        with pytest.raises(ValueError, match="threshold"):
            approximate_omega_limit(j, horizon=10, window=6, threshold=threshold)

    def test_runner_counts_all_shifts(self):
        full = JacobiCoefficients.periodic([1.0, 1.0], [1.0, -1.0])
        # horizon 41 restricts the default operator to an odd-length window
        for horizon, window in ((12, 4), (41, 5)):
            rep = run_shift_clusters(horizon=horizon, window=window)
            assert rep["passed"]
            assert sum(r["size"] for r in rep["rows"]) == horizon + 1
            for cl in rep["meta"]["clusters"]:
                a, b = full.arrays(cl["representative"], cl["representative"] + window - 1)
                assert (cl["window_a"], cl["window_b"]) == (a.tolist(), b.tolist())

    def test_reconstruction_windows_contract_toward_free(self):
        # forward-asymptotics output: far windows cluster tighter around the
        # free window than near ones
        from reflectionless import (CompactSet, HerglotzRep, SpectralMeasure,
                                    free_krein, half_line_measure,
                                    reconstruction_report, stieltjes_invert)
        rho = stieltjes_invert(HerglotzRep(free_krein(2.0)))
        nu0 = half_line_measure(rho, CompactSet(((-2.0, 2.0),)))
        nu = SpectralMeasure(nu0.rep, nu0.ac_pieces,
                             ((2.5, 0.3), (3.0, 0.3), (-2.7, 0.3)))
        a, b = reconstruction_report(nu, 30)[0].arrays(0, 28)
        weights = 2.0 ** -np.arange(5)
        # distance of the windows at sites 1 and 24 from the free window
        d_near = weights @ (np.abs(a[1:6] - 1.0) + np.abs(b[1:6]))
        d_far = weights @ (np.abs(a[24:29] - 1.0) + np.abs(b[24:29]))
        assert d_far < 1e-6 < d_near

    def test_clustering_matches_the_scalar_loop(self):
        # periodic operators perturbed by about the threshold, which is set
        # to one of the operator's own window distances: ties and near misses
        # must land on the same side as in the scalar loop
        rng = np.random.default_rng(11)
        multi = 0
        for _ in range(30):
            period = int(rng.integers(1, 4))
            a0, b0 = rng.uniform(0.5, 1.5, period), rng.uniform(-1.0, 1.0, period)
            noise = 1e-6 * rng.uniform(0.0, 1.0, (2, 70)) * (rng.random((2, 70)) < 0.3)
            j = JacobiCoefficients(0, 69, np.resize(a0, 70) + noise[0],
                                   np.resize(b0, 70) + noise[1], Tail.periodic(a0, b0))
            # windows past 8 terms, where numpy's sum would pair the terms
            horizon, window = int(rng.integers(10, 50)), int(rng.integers(1, 17))
            n1, n2 = rng.integers(0, horizon + 1, 2) // period * period
            threshold = window_distance(j, int(n1), int(n2), window) or 1e-6
            clusters = approximate_omega_limit(j, horizon, window, threshold)
            assert clusters == omega_limit_by_loop(j, horizon, window, threshold)
            multi += any(len(cl["members"]) > 1 for cl in clusters) and len(clusters) > 1
        assert multi >= 10


class TestReportsAndCli:
    def test_reports_are_deterministic(self):
        r1 = run_lower_bound_suite(samples=8)
        r2 = run_lower_bound_suite(samples=8)
        assert json.dumps(r1, sort_keys=True, default=float) == \
            json.dumps(r2, sort_keys=True, default=float)

    def test_write_report_layout(self, tmp_path):
        rep = run_forward_asymptotics(n_coeffs=30)
        paths = write_report(rep, str(tmp_path))
        names = {p.split("/")[-1] for p in paths}
        assert {"report.json", "rows.csv", "plot_a_n.csv", "plot_b_n.csv"} <= names
        header = (tmp_path / "plot_a_n.csv").read_text().splitlines()[0]
        assert header == "x,y"

    @pytest.mark.parametrize("runner, kwargs", [
        (run_lower_bound_suite, {"samples": 8}),
        (run_perturbation_sweep, {"n_coeffs": 12}),
        (run_forward_asymptotics, {"n_coeffs": 30}),
        (run_extremal_table, {"sets": [[[-2.0, 2.0]], [[-2.0, -0.5], [0.5, 2.0]]]}),
        (run_shift_clusters, {"horizon": 10, "window": 3}),
    ], ids=["thm11", "oracle", "dr", "aktable", "omega"])
    def test_rows_csv_equals_the_report_rows(self, tmp_path, runner, kwargs):
        # floats are written in repr form, so the values, and their types,
        # come back exactly; the JSON text of a set or window comes back quoted
        def parse(cell):
            for kind in (int, float):
                try:
                    return kind(cell)
                except ValueError:
                    pass
            return cell

        def typed(rows):
            return [{k: (type(v), v) for k, v in row.items()} for row in rows]

        write_report(runner(**kwargs), str(tmp_path))
        with open(tmp_path / "rows.csv", newline="", encoding="utf-8") as fh:
            parsed = [{k: parse(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert rows and typed(parsed) == typed(rows)

    def test_rows_csv_round_trips_delimiters_quotes_and_newlines(self, tmp_path):
        row = {"label": 'a, "b"\nc', "note": "line\nbreak", "x": "0.1"}
        write_report({"rows": [row], "assertions": [], "plots": {}}, str(tmp_path))
        with open(tmp_path / "rows.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.DictReader(fh)) == [row]

    def test_cli_has_no_format_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dr", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def _cli(self, *args):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "reflectionless", *args],
                              capture_output=True, text=True)

    def test_cli_eval_is_no_subcommand(self, tmp_path):
        proc = self._cli("eval", "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "invalid choice: 'eval'" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_cli_pass_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 5, "n_coeffs": 8}))
        proc = self._cli("thm11", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "report.json").exists()

    def test_cli_unreachable_extremal_root_exit_three(self, tmp_path):
        # a subnormal distance from a jump to a band edge on the way to the refusal
        # warns nothing, so the CLI names the numeric failure instead of a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sets": [[[0.0, 6.11e-286], [6.11e-286 + 1.9e-301, 5.5]]]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        assert "numeric failure: extremal jumps not certified: gap 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_config_error_exit_two(self):
        proc = self._cli("thm11", "--config", "/no/such/file.json")
        assert proc.returncode == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-utf8", "deep-nesting"])
    def test_cli_unreadable_config_exit_two(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "cannot read config" in proc.stderr and "Traceback" not in proc.stderr

    def test_cli_value_error_while_resolving_the_config_exit_two(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise ValueError("unreadable")

        monkeypatch.setattr(cli, "_resolve_config", failing)
        assert cli.main(["dr", "--out", "unused"]) == 2
        assert "config error: unreadable" in capsys.readouterr().err

    def test_cli_bad_config_value_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": -3}))
        proc = self._cli("thm11", "--config", str(cfg))
        assert proc.returncode == 2

    @pytest.mark.parametrize("key", ["xi_widths", "f_masses"])
    def test_cli_oracle_size_whose_piece_is_empty_exit_two(self, tmp_path, key):
        # 2 + 1e-300 == 2 and 3 + 1e-300 / sqrt(5) == 3: the row labelled
        # 1e-300 would run the free input, or blame a weight on f
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: [0.4, 1e-300]}))
        proc = self._cli("oracle", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert f"{key} holds 1e-300, whose piece at" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_cli_assertion_failure_exit_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi_widths": [0.004, 0.04, 0.4], "n_coeffs": 12}))
        proc = self._cli("oracle", "--config", str(cfg),
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "xi_widths" in proc.stderr

    def test_thm11_failure_names_the_sample_and_its_inputs(self, monkeypatch):
        # a sample that fails is reported with the xi and f that rerun it
        inputs, half_line = [], experiments.half_line_measure
        reconstruct = experiments.reconstruct_coefficients

        def recording(rho, k_set, f):
            inputs.append((rho.rep.xi, f))
            return half_line(rho, k_set, f)

        def failing(nu, n):
            if len(inputs) == 4:
                raise NumericError("forced")
            return reconstruct(nu, n)

        monkeypatch.setattr(experiments, "half_line_measure", recording)
        monkeypatch.setattr(experiments, "reconstruct_coefficients", failing)
        with pytest.raises(NumericError) as err:
            run_lower_bound_suite(samples=6)
        text = re.fullmatch(r"sample 3 failed: forced; xi=(\{.*\}) f=(\{.*\})", str(err.value))
        assert text
        xi, f = inputs[3]
        assert f.intervals or f.atom_weights    # not the default selector
        d = json.loads(text.group(1))
        assert StepFunction(d["R"], tuple(d["breakpoints"]), tuple(d["values"])) == xi
        d = json.loads(text.group(2))
        assert FSelector(tuple(map(tuple, d["intervals"])), tuple(map(tuple, d["atoms"]))) == f

    def test_cli_numeric_failure_exit_three(self, monkeypatch, capsys):
        def failing():
            """A runner whose quadrature fails."""
            raise NumericError("quadrature budget exceeded")

        monkeypatch.setitem(cli._RUNNERS, "dr", failing)
        assert cli.main(["dr", "--out", "unused"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_cli_unclassified_error_exit_three_with_traceback(self, monkeypatch, capsys):
        # the catch-all is the last resort for an error no other branch names
        def failing():
            """A runner that fails in a way no branch names."""
            raise RuntimeError("unclassified")

        monkeypatch.setitem(cli._RUNNERS, "dr", failing)
        assert cli.main(["dr", "--out", "unused"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: unclassified" in err

    def test_cli_oversized_request_exit_two(self, tmp_path):
        # demands more coefficients than the discretized measure can support
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_coeffs": 5000}))
        proc = self._cli("dr", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "too small for N=5000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_dr_subnormal_semicircle_exit_two(self, tmp_path):
        # the semicircle's multiplier 0.5 x 1e-320 is subnormal: refused as
        # input, where no rule pair completed before (exit 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"semicircle_scale": 1e-320}))
        proc = self._cli("dr", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "multiplier 5e-321" in proc.stderr and "float64's normal range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_aktable_beyond_four_gaps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        bands = [[float(i), i + 0.4] for i in range(6)]
        cfg.write_text(json.dumps({"sets": [bands]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
        assert row["A"] == pytest.approx(0.6, abs=1e-10)
        assert row["iterations"] > 0

    def test_cli_aktable_six_bands_with_narrow_gaps_far_from_the_origin(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sets": [SIX_BANDS]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS] set 0: closed form |K|/4" in proc.stdout

    def test_cli_aktable_unbounded_set_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sets": [[[0.0, math.inf]]]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "unbounded interval" in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("width", [1e-160, 1e-300, 1e200])
    def test_cli_aktable_scale_outside_the_normal_range_exit_two(self, tmp_path, width):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sets": [[[0.0, width]]]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "float64's normal range" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("interval, scale", [([-1e300, 1e300], "|t| = 1e+300"),
                                                 ([0.0, 1e-300], "1e-300 wide")],
                             ids=["overflow", "underflow"])
    def test_cli_thm11_scale_outside_the_normal_range_exit_two(self, tmp_path, interval, scale):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_intervals": [interval], "samples": 2}))
        proc = self._cli("thm11", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "float64's normal range" in proc.stderr and scale in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("half_width", [1e12, 1e20])
    def test_cli_thm11_checks_relative_to_the_scale(self, tmp_path, half_width):
        # the free sample is right to about 3e-16 of the scale, which the old absolute
        # limits 1e-8 and 1e-7 refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_intervals": [[-half_width, half_width]]}))
        proc = self._cli("thm11", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [a["name"] for a in report["assertions"]] == [
            "a0 >= A - 1e-12 x scale for every sample", "free sample recovers a0 = A, deviation 0"]

    def test_cli_aktable_thirty_two_bands(self, tmp_path):
        # five levels of removing the middle 20% of every band, from [-2, 2]
        bands = [[-2.0, 2.0]]
        for _ in range(5):
            bands = [half for c, d in bands
                     for half in ([c, c + 0.4 * (d - c)], [d - 0.4 * (d - c), d])]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sets": [bands]}))
        proc = self._cli("aktable", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
        assert len(json.loads(row["set"])) == 32
        assert row["quadrature_A"] == pytest.approx(sum(d - c for c, d in bands) / 4.0,
                                                    rel=1e-12, abs=0)

    @pytest.mark.parametrize("command, config", [
        ("thm11", {"k_intervals": [[-2.0, float("nan")]]}),
        ("oracle", {"f_masses": [float("nan")]}),
        ("dr", {"atoms": [[float("nan"), 0.1]]}),
        ("aktable", {"sets": [[[-2.0, float("nan")]]]}),
        ("omega", {"horizon": 1, "window": 1,
                   "operator": {"n_lo": 0, "n_hi": 1, "a": [1.0, 1.0],
                                "b": [0.0, float("nan")], "tail": {"kind": "free"}}}),
    ], ids=["thm11-nan-edge", "oracle-nan-mass", "dr-nan-atom", "aktable-nan-edge",
            "omega-nan-coefficient"])
    def test_cli_non_finite_input_exit_two(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self._cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


DEFAULT_RUNS = list(cli._RUNNERS)


class TestConfigContract:
    def _run(self, tmp_path, command, config, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_unknown_key_exits_two_and_names_it(self, tmp_path, capsys):
        code, err = self._run(tmp_path, "thm11", {"sampels": 3}, capsys)
        assert code == 2
        assert "unknown key 'sampels'; this run takes k_intervals, seed, samples, " \
            "n_coeffs, window" in err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_list_exits_two(self, tmp_path, capsys):
        code, err = self._run(tmp_path, "dr", [{"n_coeffs": 30}], capsys)
        assert code == 2
        assert "config error: a config must be a JSON object" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", [
        ("aktable", {"extra": {"sets": [[[-2.0, 2.0]]]}}),
        ("dr", {"fmt": "json"}),
        ("dr", {"out_dir": "x"}),
        ("thm11", {"name": "thm11"}),
        ("oracle", {"seed": 7}),
    ], ids=["extra-nest", "fmt", "out_dir", "name", "undeclared-seed"])
    def test_keys_the_runner_does_not_declare_exit_two(self, tmp_path, capsys, command, config):
        code, err = self._run(tmp_path, command, config, capsys)
        assert code == 2
        assert f"unknown key {next(iter(config))!r}" in err

    def test_seed_flag_only_where_a_seed_is_declared(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--seed", "3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        with_seed = []
        for name, runner in cli._RUNNERS.items():
            try:
                cli.build_parser().parse_args([name, "--seed", "3"])
                with_seed.append(name)
            except SystemExit:
                assert "seed" not in inspect.signature(runner).parameters
        assert with_seed == ["thm11"]

    def test_parser_offers_exactly_the_runners(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._RUNNERS) == \
            ["thm11", "oracle", "dr", "aktable", "omega"]

    def test_help_prints_each_runners_summary_line(self, monkeypatch, capsys):
        # the summary is declared once, as the runner's docstring; argparse rewraps it
        def printed(argv):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 0
            return " ".join(capsys.readouterr().out.split())

        listing = printed(["--help"])
        for name, runner in cli._RUNNERS.items():
            summary = inspect.getdoc(runner).splitlines()[0]
            assert summary.endswith(".") and summary in listing
            assert summary in printed([name, "--help"])
        # a runner added without a docstring fails to build, not silently
        monkeypatch.setitem(cli._RUNNERS, "undocumented", lambda: {})
        with pytest.raises(AttributeError):
            cli.build_parser()

    @pytest.mark.parametrize("command, config, least", [
        ("oracle", {"n_coeffs": 11}, 12), ("dr", {"n_coeffs": 29}, 30),
        ("thm11", {"n_coeffs": 4}, 5), ("thm11", {"n_coeffs": 6, "window": 7}, 7)])
    def test_depth_below_what_the_checks_read_exits_two(self, tmp_path, capsys,
                                                         command, config, least):
        code, err = self._run(tmp_path, command, config, capsys)
        assert code == 2
        assert f"n_coeffs must be at least {least}" in err

    def test_empty_set_list_is_refused(self):
        with pytest.raises(ValueError, match="one or more sets"):
            run_extremal_table(sets=[])

    def test_thm11_reconstructs_at_the_depth_set(self, tmp_path, capsys, monkeypatch):
        depths = []

        def recording(nu, n):
            depths.append(n)
            return reconstruct(nu, n)

        reconstruct = experiments.reconstruct_coefficients
        monkeypatch.setattr(experiments, "reconstruct_coefficients", recording)
        code, _ = self._run(tmp_path, "thm11", {"n_coeffs": 8, "samples": 4}, capsys)
        assert code == 0
        assert depths == [8] * 4
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["n_coeffs"] == 8 and len(report["rows"]) == 4

    @pytest.mark.parametrize("command", DEFAULT_RUNS)
    def test_echoed_config_is_what_ran(self, tmp_path, capsys, command):
        # the default run echoes every declared parameter; the echo fed
        # back as a config gives the same files, byte for byte
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main([command, "--out", str(first)]) == 0
        config = json.loads((first / "report.json").read_text())["config"]
        assert list(config) == sorted(inspect.signature(cli._RUNNERS[command]).parameters)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
