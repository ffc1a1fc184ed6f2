import json

import numpy as np
import pytest

from normalshift import cli
from normalshift.cli import (
    Scenario,
    _isotropic_from_position_expression,
    _single_variable_fn,
    build_generator,
    build_metric,
    build_subject,
    build_surface,
    cmd_report,
    cmd_shift,
    cmd_verify,
    load_scenario,
    main,
)
from normalshift.errors import ConfigError
from normalshift.expressions import Expression, parse_expression
from normalshift.extended_fields import IsotropicScalar
from normalshift.force_builder import (
    GeneratingScalar,
    as_force_field,
    builtin_metrizable,
    builtin_nonmetrizable,
    perturbed_field,
)
from normalshift.tensor_core import MetricField, metric_at, speed_at

BOX = [[0.25, 1.25], [0.25, 1.25], [0.25, 1.25]]


def base_scenario(**overrides):
    data = {
        "name": "case",
        "metric": {"kind": "euclidean"},
        "generator": {"kind": "metrizable", "f": "x1", "H": "v"},
        "surface": {"kind": "plane"},
        "run": {"t_end": 0.2, "dt": 1e-3, "u_grid": [[-0.1, 0.1, 5], [-0.1, 0.1, 5]]},
        "verify": {"box": BOX, "sample_count": 40},
        "seed": 3,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, filename="scenario.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return path


# files no JSON reader can take: bytes that are not UTF-8, and nesting past
# the recursion limit
UNREADABLE = {
    "not-utf8": b"\xff\xfe{\"name\": \"case\"}",
    "nested-too-deep": b"[" * 200000 + b"]" * 200000,
}


class TestScenarioValidation:
    def test_minimal_scenario_loads(self, tmp_path):
        sc = load_scenario(write_config(tmp_path, base_scenario()))
        assert isinstance(sc, Scenario)
        assert sc.name == "case"
        assert sc.dim == 3
        assert sc.seed == 3

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        cases = [
            base_scenario(extra=1),
            base_scenario(metric={"kind": "euclidean", "radius": 2}),
            base_scenario(generator={"kind": "metrizable", "f": "x1", "H": "v", "A": "v"}),
            base_scenario(surface={"kind": "plane", "radius": 1.0}),
            base_scenario(run={"t_end": 0.1, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]], "steps": 7}),
            base_scenario(verify={"box": BOX, "bins": 2}),
        ]
        for data in cases:
            with pytest.raises(ConfigError):
                load_scenario(write_config(tmp_path, data))

    def test_missing_required_keys(self, tmp_path):
        data = base_scenario()
        del data["metric"]
        with pytest.raises(ConfigError):
            load_scenario(write_config(tmp_path, data))
        with pytest.raises(ConfigError):
            load_scenario(
                write_config(tmp_path, base_scenario(generator={"kind": "metrizable", "f": "x1"}))
            )

    def test_unknown_kinds(self, tmp_path):
        for data in (
            base_scenario(metric={"kind": "spherical"}),
            base_scenario(generator={"kind": "magic"}),
            base_scenario(surface={"kind": "torus"}),
        ):
            with pytest.raises(ConfigError):
                load_scenario(write_config(tmp_path, data))

    def test_expression_variables_bounded_by_dimension(self, tmp_path):
        data = base_scenario(generator={"kind": "metrizable", "f": "x5", "H": "v"})
        with pytest.raises(ConfigError):
            load_scenario(write_config(tmp_path, data))
        data = base_scenario(generator={"kind": "metrizable", "f": "x1", "H": "x1"})
        with pytest.raises(ConfigError):
            load_scenario(write_config(tmp_path, data))
        data = base_scenario(surface={"kind": "graph", "height": "v"})
        with pytest.raises(ConfigError):
            load_scenario(write_config(tmp_path, data))

    def test_surface_field_validation(self, tmp_path):
        for surface in (
            {"kind": "plane", "axis": 5},
            {"kind": "plane", "nu0": 0},
            {"kind": "plane", "orientation": 0.5},
            {"kind": "plane", "base_u": [0.0]},
            {"kind": "sphere", "radius": -1.0},
            {"kind": "sphere", "center": [0.0, 0.0]},
        ):
            with pytest.raises(ConfigError):
                load_scenario(write_config(tmp_path, base_scenario(surface=surface)))

    def test_run_and_verify_validation(self, tmp_path):
        bad_runs = [
            {"t_end": 0.0, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]]},
            {"t_end": 0.1, "dt": 1e-3, "u_grid": [[0, 1, 5]]},
            {"t_end": 0.1, "dt": 1e-3, "u_grid": [[0, 1], [0, 1, 5]]},
            {"t_end": 0.1, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]], "tolerance": 0},
            {"t_end": 0.1005, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]]},
            {"t_end": 0.1, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]], "sample_stride": 3},
            {"t_end": 0.03, "dt": 1e-3, "u_grid": [[0, 1, 5], [0, 1, 5]]},
        ]
        for run in bad_runs:
            with pytest.raises(ConfigError):
                load_scenario(write_config(tmp_path, base_scenario(run=run)))
        bad_verifies = [
            {"box": [[0, 1], [0, 1]]},
            {"box": [[1, 0], [0, 1], [0, 1]]},
            {"box": BOX, "speed_range": [0.0, 1.0]},
            {"box": BOX, "mode": "exact"},
            {"box": BOX, "tolerance": -1.0},
        ]
        for section in bad_verifies:
            with pytest.raises(ConfigError):
                load_scenario(write_config(tmp_path, base_scenario(verify=section)))

    def test_perturb_validation(self, tmp_path):
        gen = {"kind": "metrizable", "f": "x1", "H": "v",
               "perturb": {"component": 7, "expression": "v"}}
        with pytest.raises(ConfigError):
            load_scenario(write_config(tmp_path, base_scenario(generator=gen)))

    def test_invalid_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(bad)
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.json")

    def test_builders(self, tmp_path):
        data = base_scenario(
            metric={"kind": "conformal", "f": "x1"},
            generator={"kind": "custom", "W": "v * exp(-x1)", "h": "0"},
            surface={"kind": "sphere", "radius": 2.0, "nu0": -1.0, "orientation": -1.0,
                     "base_u": [1.5, 0.0]},
        )
        sc = load_scenario(write_config(tmp_path, data))
        m = build_metric(sc)
        g = metric_at(m, np.array([0.5, 0.0, 0.0]))
        assert np.allclose(g, np.exp(-1.0) * np.eye(3))
        subject = build_subject(sc)
        assert isinstance(subject, GeneratingScalar)
        w = subject.W.eval(np.array([[0.5, 0.0, 0.0]]), np.array([2.0]))
        assert w.shape == (1,) and abs(w[0] - 2.0 * np.exp(-0.5)) < 1e-15
        s = build_surface(sc)
        assert s.nu0 == -1.0
        assert s.orientation == -1.0
        assert np.allclose(np.linalg.norm(s.chart_map(np.array([1.2, 0.3]))), 2.0)

    def test_diagonal_metric_builder(self, tmp_path):
        data = base_scenario(metric={"kind": "diagonal", "entries": ["1", "x1^2", "1"]})
        sc = load_scenario(write_config(tmp_path, data))
        m = build_metric(sc)
        g = metric_at(m, np.array([0.7, 0.0, 0.0]))
        assert np.allclose(g, np.diag([1.0, 0.49, 1.0]))


class TestVerifyCommand:
    def test_geodesic_all_residuals_exactly_zero(self, tmp_path, capsys):
        data = base_scenario(name="geo", generator={"kind": "geodesic"})
        code = cmd_verify(write_config(tmp_path, data), out=tmp_path)
        assert code == 0
        bundle = json.loads((tmp_path / "geo.verify.report.json").read_text())
        normality = bundle["normality"]
        for family in ("r_weak1", "r_weak2", "r_add1", "r_add2", "r_eq124"):
            assert normality[family] == 0.0
        assert normality["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_metrizable_passes(self, tmp_path):
        code = cmd_verify(write_config(tmp_path, base_scenario(name="mz")), out=tmp_path)
        assert code == 0
        bundle = json.loads((tmp_path / "mz.verify.report.json").read_text())
        assert bundle["normality"]["tolerance"] == 1e-8

    def test_nonmetrizable_passes(self, tmp_path):
        data = base_scenario(
            name="nm",
            generator={"kind": "nonmetrizable", "f": "x1", "A": "v^3"},
            verify={"box": BOX, "sample_count": 30},
        )
        assert cmd_verify(write_config(tmp_path, data), out=tmp_path) == 0

    def test_finite_difference_mode(self, tmp_path):
        data = base_scenario(name="fd", verify={"box": BOX, "sample_count": 20, "mode": "finite-diff"})
        code = cmd_verify(write_config(tmp_path, data), out=tmp_path)
        assert code == 0
        bundle = json.loads((tmp_path / "fd.verify.report.json").read_text())
        assert bundle["normality"]["tolerance"] == 1e-5

    def test_perturbed_fails_and_names_family(self, tmp_path, capsys):
        gen = {"kind": "metrizable", "f": "x1", "H": "v",
               "perturb": {"component": 1, "expression": "v * x2"}}
        data = base_scenario(name="bad", generator=gen)
        code = cmd_verify(write_config(tmp_path, data), out=tmp_path)
        assert code == 1
        out = capsys.readouterr().out
        assert "r_weak2" in out and "FAIL" in out
        bundle = json.loads((tmp_path / "bad.verify.report.json").read_text())
        assert bundle["normality"]["passed"] is False
        assert bundle["normality"]["r_weak2"] > 1e-3

    def test_tolerance_override(self, tmp_path):
        gen = {"kind": "metrizable", "f": "x1", "H": "v",
               "perturb": {"component": 1, "expression": "v * x2"}}
        path = write_config(tmp_path, base_scenario(name="loose", generator=gen))
        assert cmd_verify(path, tolerance=10.0, out=tmp_path) == 0

    def test_determinism_same_seed(self, tmp_path):
        path = write_config(tmp_path, base_scenario(name="det"))
        cmd_verify(path, out=tmp_path / "a")
        cmd_verify(path, out=tmp_path / "b")
        a = json.loads((tmp_path / "a" / "det.verify.report.json").read_text())
        b = json.loads((tmp_path / "b" / "det.verify.report.json").read_text())
        assert a["normality"] == b["normality"]

    def test_degenerate_wv_exits_3_and_names_the_sample(self, tmp_path, capsys):
        # W_v = |x1 - 0.75| + (x1 - 0.75) vanishes on the half x1 <= 0.75 of the box
        gen = {"kind": "custom", "W": "v * (sqrt((x1 - 0.75)^2) + x1 - 0.75)", "h": "0"}
        data = base_scenario(name="degenerate", generator=gen)
        assert cmd_verify(write_config(tmp_path, data), out=tmp_path) == 3
        err = capsys.readouterr().err
        assert "numerical error: sample " in err and "below floor" in err

    def test_config_error_exit(self, tmp_path, capsys):
        assert cmd_verify(tmp_path / "missing.json") == 2
        data = base_scenario()
        del data["verify"]
        assert cmd_verify(write_config(tmp_path, data), out=tmp_path) == 2
        capsys.readouterr()


class TestShiftCommand:
    def test_bonnet_plane(self, tmp_path):
        data = base_scenario(name="bonnet", generator={"kind": "geodesic"})
        code = cmd_shift(write_config(tmp_path, data), out=tmp_path)
        assert code == 0
        lines = (tmp_path / "bonnet.trajectories.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["traj_id", "t", "x1", "x2", "x3", "v1", "v2", "v3",
                          "speed", "W", "phi_1", "phi_2"]
        # 25 grid points, 21 recorded times
        assert len(lines) == 1 + 25 * 21
        phi_values = []
        for line in lines[1:]:
            cells = line.split(",")
            phi_values += [float(cells[10]), float(cells[11])]
        finite = [abs(p) for p in phi_values if not np.isnan(p)]
        assert max(finite) < 1e-12

    def test_metrizable_plane_passes(self, tmp_path):
        data = base_scenario(name="mzshift")
        code = cmd_shift(write_config(tmp_path, data), out=tmp_path)
        assert code == 0
        bundle = json.loads((tmp_path / "mzshift.shift.report.json").read_text())
        summary = bundle["shift_summary"]
        assert summary["passed"] is True
        assert summary["max_norm_phi"] < 1e-6
        assert summary["w_dyn_residual"] < 1e-8

    def test_forced_constant_nu_fails(self, tmp_path):
        path = write_config(tmp_path, base_scenario(name="forced"))
        code = cmd_shift(path, force_constant_nu=True, out=tmp_path)
        assert code == 1
        bundle = json.loads((tmp_path / "forced.shift.report.json").read_text())
        assert bundle["shift_summary"]["forced_constant_nu"] is True
        assert bundle["shift_summary"]["max_norm_phi"] > 1e-3

    def test_escape_exit_code(self, tmp_path):
        run = {"t_end": 0.2, "dt": 1e-3, "u_grid": [[-0.1, 0.1, 5], [-0.1, 0.1, 5]],
               "box": [[-1.0, 1.0], [-1.0, 1.0], [-0.05, 0.05]]}
        data = base_scenario(name="esc", run=run)
        assert cmd_shift(write_config(tmp_path, data), out=tmp_path) == 4

    def test_evaluation_failure_exits_3_and_names_trajectory(self, tmp_path, capsys):
        # the plane at x1 = 0.05 moves toward -x1, where sqrt(x1) has no value
        data = base_scenario(
            name="domain",
            generator={"kind": "metrizable", "f": "sqrt(x1)", "H": "v"},
            surface={"kind": "plane", "axis": 0, "offset": 0.05, "nu0": -1},
        )
        assert cmd_shift(write_config(tmp_path, data), out=tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: trajectory from u = [-0.1, -0.1] near t = ")
        assert "expression 'sqrt(x1)' failed to evaluate" in err

    def test_config_error_exits(self, tmp_path, capsys):
        coarse = base_scenario(
            name="coarse",
            run={"t_end": 0.1, "dt": 1e-3, "u_grid": [[-0.1, 0.1, 4], [-0.1, 0.1, 5]]},
        )
        assert cmd_shift(write_config(tmp_path, coarse), out=tmp_path) == 2
        flat = base_scenario(
            name="flat",
            run={"t_end": 0.1, "dt": 1e-3, "u_grid": [[0.1, 0.1, 5], [-0.1, 0.1, 5]]},
        )
        assert cmd_shift(write_config(tmp_path, flat), out=tmp_path) == 2
        offgrid = base_scenario(
            name="offgrid",
            run={"t_end": 0.1005, "dt": 1e-3, "u_grid": [[-0.1, 0.1, 5], [-0.1, 0.1, 5]],
                 "sample_stride": 10},
        )
        assert cmd_shift(write_config(tmp_path, offgrid), out=tmp_path) == 2
        gen = {"kind": "metrizable", "f": "x1", "H": "v",
               "perturb": {"component": 1, "expression": "v"}}
        assert cmd_shift(write_config(tmp_path, base_scenario(generator=gen)), out=tmp_path) == 2
        missing = base_scenario()
        del missing["surface"]
        assert cmd_shift(write_config(tmp_path, missing), out=tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "overrides,failure",
        [
            # the log's argument reaches 0 as the plane moves up in x3
            ({"metric": {"kind": "conformal", "f": "0.1*log(0.02 - x3)"}},
             "trajectory from u = [0.15, -0.15] near t = 0.027: "
             "expression '0.1*log(0.02 - x3)' failed to evaluate: non-finite result"),
            # W, W_v and dW/dx all fail there; the W_v partial is evaluated first
            ({"generator": {"kind": "custom", "W": "v*exp(-x1)/sqrt(0.02 - x3)", "h": "0"}},
             "trajectory from u = [0.15, -0.15] near t = 0.034: "
             "expression 'd(v*exp(-x1)/sqrt(0.02 - x3))/dv' failed to evaluate: non-finite result"),
            # the metric turns indefinite past x3 = 0.025
            ({"metric": {"kind": "diagonal", "entries": ["1", "1", "1 - 40*x3"]}},
             "trajectory from u = [0.15, -0.15] near t = 0.014: "
             "metric not positive-definite at x=[ 0.14985624 -0.15        0.02557816]"),
        ],
        ids=["conformal-metric", "custom-w", "indefinite-metric"],
    )
    def test_failure_partway_names_trajectory_time_and_expression(
        self, tmp_path, capsys, overrides, failure
    ):
        run = {"t_end": 0.2, "dt": 1e-3, "u_grid": [[-0.15, 0.15, 7], [-0.15, 0.15, 7]]}
        data = base_scenario(name="partway", run=run, **overrides)
        assert cmd_shift(write_config(tmp_path, data), out=tmp_path) == 3
        assert capsys.readouterr().err == f"numerical error: {failure}\n"

    @pytest.mark.parametrize(
        "command,overrides,text",
        [
            # finite at u1 = 0.15, inf at u1 = 0.3
            ("shift", {"surface": {"kind": "graph", "height": "x1*1e308*10 + 1"},
                       "run": {"t_end": 0.05, "dt": 1e-3,
                               "u_grid": [[-0.3, 0.3, 5], [-0.3, 0.3, 5]]}},
             "x1*1e308*10 + 1"),
            ("verify", {"generator": {"kind": "metrizable", "f": "x1", "H": "v",
                                      "perturb": {"component": 1, "expression": "x2*1e308*10"}}},
             "x2*1e308*10"),
        ],
        ids=["graph-height", "perturb"],
    )
    def test_non_finite_float_expression_is_named(
        self, tmp_path, capsys, command, overrides, text
    ):
        path = write_config(tmp_path, base_scenario(name="overflow", **overrides))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "Traceback" not in err
        assert err.endswith(f"expression {text!r} failed to evaluate: non-finite result\n")

    @pytest.mark.parametrize(
        "f",
        ["x1 + 1/0", "x1 + 10^400", "x1 + (0-8)^0.5"],
        ids=["division-by-zero", "overflow", "complex"],
    )
    def test_arithmetic_error_in_a_constant_subexpression_is_named(self, tmp_path, capsys, f):
        # numpy gives inf, inf and nan: each fails by the one rule, a value
        # that is not finite
        data = base_scenario(name="constant", metric={"kind": "conformal", "f": f})
        assert cmd_shift(write_config(tmp_path, data), out=tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "Traceback" not in err
        assert err == f"numerical error: expression {f!r} failed to evaluate: non-finite result\n"

    def test_byte_identical_csv(self, tmp_path):
        path = write_config(tmp_path, base_scenario(name="repeat"))
        assert cmd_shift(path, out=tmp_path / "a") == 0
        assert cmd_shift(path, out=tmp_path / "b") == 0
        first = (tmp_path / "a" / "repeat.trajectories.csv").read_bytes()
        second = (tmp_path / "b" / "repeat.trajectories.csv").read_bytes()
        assert first == second
        assert b"\r" not in first

    def test_csv_floats_roundtrip(self, tmp_path):
        path = write_config(tmp_path, base_scenario(name="digits"))
        assert cmd_shift(path, out=tmp_path) == 0
        lines = (tmp_path / "digits.trajectories.csv").read_text().splitlines()
        cells = lines[1].split(",")
        # 17 significant digits reproduce the double exactly
        x1 = float(cells[2])
        assert format(x1, ".17g") == cells[2]


class TestReportCommand:
    def test_verify_bundle_roundtrip(self, tmp_path, capsys):
        data = base_scenario(name="rt", generator={"kind": "geodesic"})
        cmd_verify(write_config(tmp_path, data), out=tmp_path)
        capsys.readouterr()
        code = cmd_report(tmp_path / "rt.verify.report.json")
        assert code == 0
        out = capsys.readouterr().out
        assert "r_weak1" in out
        assert "scenario: rt" in out

    def test_failing_bundle_still_renders(self, tmp_path, capsys):
        gen = {"kind": "metrizable", "f": "x1", "H": "v",
               "perturb": {"component": 1, "expression": "v * x2"}}
        cmd_verify(write_config(tmp_path, base_scenario(name="flagged", generator=gen)),
                   out=tmp_path)
        capsys.readouterr()
        code = cmd_report(tmp_path / "flagged.verify.report.json")
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

    def test_corrupt_bundle(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{]")
        assert cmd_report(broken) == 2
        assert cmd_report(tmp_path / "missing.json") == 2
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps({"name": "x"}))
        assert cmd_report(sparse) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "section,value",
        [
            ("normality", [1]),
            ("normality", {"r_weak1": "x", "tolerance": 1e-8}),
            ("provenance", []),
        ],
        ids=["normality-a-list", "normality-value-a-string", "provenance-a-list"],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, section, value):
        bundle = {"name": "x", "normality": None, "shift_summary": None, "provenance": {}}
        bundle[section] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(bundle))
        # through main, so an uncaught exception fails the call itself
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read bundle: ") and "Traceback" not in err

    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_unreadable_bundle_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read bundle: bundle file {path} is not valid JSON: ")
        assert "Traceback" not in err


class TestMain:
    def test_dispatch(self, tmp_path, capsys):
        data = base_scenario(name="cli", generator={"kind": "geodesic"})
        path = write_config(tmp_path, data)
        assert main(["verify", str(path), "--out", str(tmp_path)]) == 0
        assert main(["shift", str(path), "--out", str(tmp_path)]) == 0
        assert main(["report", str(tmp_path / "cli.shift.report.json")]) == 0
        capsys.readouterr()

    def test_force_flag_and_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, base_scenario(name="flags"))
        code = main(["shift", str(path), "--force-constant-nu", "--out", str(tmp_path)])
        assert code == 1
        code = main(["shift", str(path), "--force-constant-nu", "--out", str(tmp_path),
                     "--tolerance", "10.0"])
        assert code == 0
        capsys.readouterr()


class TestCsvWriter:
    def test_nan_margins_serialized(self, tmp_path):
        data = base_scenario(name="nan")
        cmd_shift(write_config(tmp_path, data), out=tmp_path)
        text = (tmp_path / "nan.trajectories.csv").read_text()
        assert ",nan" in text


NAN, INF = float("nan"), float("inf")
NAN_BOX = [[NAN, 1.25], [0.25, 1.25], [0.25, 1.25]]


def with_overrides(data, overrides, tmp_path):
    """``data`` with each dotted key of ``overrides`` set; ``{tmp}`` in a string is ``tmp_path``."""
    for dotted, value in overrides.items():
        *sections, field = dotted.split(".")
        target = data
        for section in sections:
            target = target[section]
        target[field] = value.format(tmp=tmp_path) if isinstance(value, str) else value
    return data


class TestRejectedInput:
    """Each outcome of the CLI has its exit code and ends without a traceback.

    Outside input the CLI cannot use exits 2, names its key and writes
    nothing; an uncaught exception would fail the call itself.
    """

    @pytest.mark.parametrize(
        "command,overrides,options,raising,code",
        [
            ("verify", {"generator": {"kind": "geodesic"}}, [], None, 0),
            ("shift", {"run.t_end": 0.05}, ["--force-constant-nu"], None, 1),
            # the plane at x1 = 0.05 moves toward -x1, where sqrt(x1) has no value
            ("shift", {"generator.f": "sqrt(x1)", "surface.offset": 0.05, "surface.axis": 0,
                       "surface.nu0": -1}, [], None, 3),
            ("shift", {"run.box": [[-1.0, 1.0], [-1.0, 1.0], [-0.05, 0.05]]}, [], None, 4),
            # 200 steps in strides of 30
            ("shift", {"run.sample_stride": 30}, [], None, 2),
            ("verify", {"run.sample_stride": 30}, [], None, 2),
            ("shift", {"run.t_end": 0.0305}, [], None, 2),
            # five steps record two times, too few for the speed-law stencil
            ("shift", {"run.t_end": 0.01, "run.sample_stride": 5}, [], None, 2),
            # a ValueError while building from the scenario is a configuration error
            ("shift", {}, [], "build_surface", 2),
            ("verify", {}, [], "build_subject", 2),
            # one raised during the run is a numerical error
            ("shift", {}, [], "run_shift", 3),
            ("verify", {}, [], "verify", 3),
        ],
        ids=[
            "verify-passes", "shift-constant-nu-fails", "shift-domain-error", "shift-escapes",
            "shift-stride-off-steps", "verify-stride-off-steps", "shift-t_end-off-dt",
            "shift-record-too-short", "shift-build-value-error", "verify-build-value-error",
            "shift-run-value-error", "verify-run-value-error",
        ],
    )
    def test_exit_codes(self, tmp_path, monkeypatch, capsys, command, overrides, options,
                        raising, code):
        if raising is not None:
            def fail(*args, **kwargs):
                raise ValueError(f"{raising} refused")

            monkeypatch.setattr(cli, raising, fail)
        path = write_config(tmp_path, with_overrides(base_scenario(), overrides, tmp_path))
        assert main([command, str(path), "--out", str(tmp_path / "out"), *options]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if raising is not None:
            label = "configuration" if code == 2 else "numerical"
            assert err.startswith(f"{label} error: {raising} refused")

    @pytest.mark.parametrize(
        "command,compute,out",
        [("verify", "verify", "afile"), ("shift", "run_shift", "afile/sub")],
        ids=["verify-out-is-a-file", "shift-out-under-a-file"],
    )
    def test_unusable_out_exits_2_before_computing(
        self, tmp_path, monkeypatch, capsys, command, compute, out
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{compute} ran although --out is unusable")

        monkeypatch.setattr(cli, compute, refuse)
        path = write_config(tmp_path, base_scenario())
        (tmp_path / "afile").write_text("kept\n")
        assert main([command, str(path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out") and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize(
        "u_grid",
        [[[-0.1, 0.1, 4], [-0.1, 0.1, 5]], [[0.1, 0.1, 5], [-0.1, 0.1, 5]]],
        ids=["four-points", "zero-width"],
    )
    def test_grid_that_cannot_run_leaves_no_out(self, tmp_path, capsys, u_grid):
        path = write_config(tmp_path, with_overrides(base_scenario(), {"run.u_grid": u_grid}, tmp_path))
        out = tmp_path / "out_c" / "sub"
        assert main(["shift", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert not (tmp_path / "out_c").exists()

    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
    @pytest.mark.parametrize("command", ["shift", "verify"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: scenario file {path} is not valid JSON: ")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,blocked",
        [("verify", "case.verify.report.json"), ("shift", "case.trajectories.csv")],
        ids=["verify-report-is-a-directory", "shift-csv-is-a-directory"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, blocked):
        path = write_config(tmp_path, with_overrides(base_scenario(), {"run.t_end": 0.05}, tmp_path))
        (tmp_path / "out" / blocked).mkdir(parents=True)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write")
        assert str(tmp_path / "out" / blocked) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command,overrides,options,key",
        [
            ("shift", {"run.t_end": INF}, [], "run.t_end"),
            ("shift", {"run.t_end": 10**400}, [], "run.t_end"),
            ("shift", {"run.dt": NAN}, [], "run.dt"),
            ("shift", {"run.tolerance": NAN}, [], "run.tolerance"),
            ("shift", {"surface.offset": INF}, [], "surface.offset"),
            ("verify", {"verify.box": NAN_BOX}, [], "verify.box"),
            ("verify", {"name": "../evil"}, [], "scenario.name"),
            ("verify", {"name": "{tmp}/evil"}, [], "scenario.name"),
            ("verify", {"name": "sub/dir"}, [], "scenario.name"),
            ("verify", {"name": "."}, [], "scenario.name"),
            ("verify", {"name": ".."}, [], "scenario.name"),
            ("verify", {}, ["--tolerance", "nan"], "--tolerance"),
            ("verify", {}, ["--tolerance", "-1"], "--tolerance"),
            ("shift", {}, ["--tolerance", "nan"], "--tolerance"),
            ("shift", {}, ["--tolerance", "-1"], "--tolerance"),
            ("verify", {"seed": -1}, [], "scenario.seed"),
            ("verify", {}, ["--seed", "-1"], "--seed"),
            # the speed quadrature is anchored at 1.0, so the range must contain it
            ("verify", {"generator": {"kind": "nonmetrizable", "f": "x1", "A": "v^3",
                                      "speed_range": [2.0, 5.0]}}, [], "generator.speed_range"),
            # JSON true equals 1 in Python, but it is not a number
            ("shift", {"surface.orientation": True}, [], "surface.orientation"),
        ],
        ids=[
            "t_end-infinite", "t_end-past-float-range", "dt-nan", "run-tolerance-nan", "offset-infinite", "verify-box-nan",
            "name-parent", "name-absolute", "name-subdirectory", "name-dot", "name-dotdot",
            "verify-tolerance-nan", "verify-tolerance-negative", "shift-tolerance-nan",
            "shift-tolerance-negative", "seed-negative", "seed-option-negative",
            "speed-range-without-one", "orientation-true",
        ],
    )
    def test_exits_2_and_names_the_key(
        self, tmp_path, monkeypatch, capsys, command, overrides, options, key
    ):
        monkeypatch.chdir(tmp_path)
        data = with_overrides(base_scenario(generator={"kind": "geodesic"}), overrides, tmp_path)
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out), *options]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        outside = {p for p in tmp_path.rglob("*") if out not in p.parents and p != out}
        assert outside == {path}


# ---------------------------------------------------------------------------
# The CLI's compiled closures against closures written with one
# Expression.eval per expression, the evaluator they must match bit for bit.

def eval_env(x, s=None):
    env = {f"x{i + 1}": x[..., i] for i in range(x.shape[-1])}
    if s is not None:
        env["v"] = np.asarray(s, dtype=float)
    return env


def eval_metric(sc):
    """``build_metric``'s conformal or diagonal metric, one ``eval`` per expression."""
    dim, eye = sc.dim, np.eye(sc.dim)
    if sc.metric["kind"] == "conformal":
        f = sc.metric["f"]
        grad = [f.derivative(f"x{k + 1}") for k in range(dim)]

        def g(x):
            return np.exp(-2.0 * f.eval(eval_env(x)))[..., None, None] * eye

        def dg(x):
            env = eval_env(x)
            factor = -2.0 * np.exp(-2.0 * f.eval(env))
            cube = np.zeros(x.shape[:-1] + (dim, dim, dim))
            for m, part in enumerate(grad):
                cube[..., m, :, :] = (factor * part.eval(env))[..., None, None] * eye
            return cube

        return MetricField(dim=dim, g=g, dg=dg, stacked=True)
    entries = sc.metric["entries"]

    def g_diag(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        for i, entry in enumerate(entries):
            out[..., i, i] = entry.eval(eval_env(x))
        return out

    def dg_diag(x):
        cube = np.zeros(x.shape[:-1] + (dim, dim, dim))
        for i, entry in enumerate(entries):
            for m in range(dim):
                cube[..., m, i, i] = entry.derivative(f"x{m + 1}").eval(eval_env(x))
        return cube

    return MetricField(dim=dim, g=g_diag, dg=dg_diag, stacked=True)


def eval_scalar(expr, dim, speed):
    """W(x, s) of a position expression, or with ``speed`` of one in x and v."""
    grad = [expr.derivative(f"x{k + 1}") for k in range(dim)]

    def env(x, s):
        return eval_env(x, s if speed else None)

    def dspeed(x, s):
        return expr.derivative("v").eval(env(x, s)) if speed else np.zeros(x.shape[:-1])

    return IsotropicScalar(
        eval=lambda x, s: expr.eval(env(x, s)),
        dx=lambda x, s: np.stack([part.eval(env(x, s)) for part in grad], axis=-1),
        dspeed=dspeed,
        stacked=True,
    )


def eval_single(expr):
    return lambda w: expr.eval({"v": w if isinstance(w, np.ndarray) and w.ndim else float(w)})


def eval_generator(sc):
    """``build_generator``'s metrizable, nonmetrizable or custom pair, one
    ``eval`` per expression."""
    gen = sc.generator
    if gen["kind"] == "metrizable":
        return builtin_metrizable(eval_scalar(gen["f"], sc.dim, False), H=eval_single(gen["H"]))
    if gen["kind"] == "nonmetrizable":
        return builtin_nonmetrizable(
            eval_scalar(gen["f"], sc.dim, False), eval_single(gen["A"]),
            speed_range=gen["speed_range"],
        )
    return GeneratingScalar(W=eval_scalar(gen["W"], sc.dim, True), h=eval_single(gen["h"]))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


WAVY = "0.3*sin(x1 + 2*x2) + 0.1*x3"
# a one-row stack, an (N, n) stack and a (k, N, n) stack
STACKS = [(1,), (7,), (2, 7)]


def stack(lead, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 1.2, size=lead + (3,)), rng.uniform(0.5, 2.0, size=lead)


class TestCompiledClosures:
    """Every closure the CLI builds from expressions equals the same closure
    written with one ``Expression.eval`` per expression, bit for bit."""

    @pytest.mark.parametrize("lead", STACKS, ids=str)
    @pytest.mark.parametrize(
        "metric",
        [{"kind": "conformal", "f": WAVY},
         {"kind": "diagonal", "entries": ["1 + x1^2", "exp(x2)", "2 + sin(x3)"]}],
        ids=["conformal", "diagonal"],
    )
    def test_metrics(self, tmp_path, metric, lead):
        sc = load_scenario(write_config(tmp_path, base_scenario(metric=metric)))
        got, want = build_metric(sc), eval_metric(sc)
        x, _ = stack(lead, 1)
        assert_same_bits(got.g(x), want.g(x))
        assert_same_bits(got.dg(x), want.dg(x))

    @pytest.mark.parametrize("lead", STACKS, ids=str)
    @pytest.mark.parametrize(
        "text,speed",
        [(WAVY, False), ("x1*x2", False), ("v*exp(-x1) + v^3*x2^2", True), ("v/sqrt(x3)", True)],
        ids=["position-wavy", "position-product", "custom-w", "custom-w-sqrt"],
    )
    def test_isotropic_scalars(self, tmp_path, text, speed, lead):
        if speed:
            generator = {"kind": "custom", "W": text, "h": "0"}
            sc = load_scenario(write_config(tmp_path, base_scenario(generator=generator)))
            got = build_generator(sc).W
        else:
            got = _isotropic_from_position_expression(parse_expression(text), 3)
        want = eval_scalar(parse_expression(text), 3, speed)
        x, s = stack(lead, 2)
        for name in ("eval", "dx", "dspeed"):
            assert_same_bits(getattr(got, name)(x, s), getattr(want, name)(x, s))

    @pytest.mark.parametrize("text", ["v^3", "v^3 + v", "0.5*v", "0", "exp(-v)/v"])
    def test_single_variable_functions(self, text):
        expr = parse_expression(text)
        got, want = _single_variable_fn(expr), eval_single(expr)
        for lead in STACKS:
            _, s = stack(lead, 3)
            assert_same_bits(got(s), want(s))
        for w in (1.3, np.float64(0.7), np.array(2.1)):
            assert type(got(w)) is float and got(w) == want(w)

    @pytest.mark.parametrize("lead", [(1,), (500,), (2, 7)], ids=str)
    def test_perturbation_is_one_pass_per_stack(self, tmp_path, monkeypatch, lead):
        # the README scenario with a nonmetrizable generator and a perturbation
        gen = {"kind": "nonmetrizable", "f": "x1", "A": "v^3",
               "perturb": {"component": 1, "expression": "v * x2 + 0.1*exp(-x3)"}}
        sc = load_scenario(write_config(tmp_path, base_scenario(
            metric={"kind": "conformal", "f": WAVY}, generator=gen)))
        m, perturb = build_metric(sc), sc.generator["perturb"]
        expr = perturb["expression"]

        def bump(m_, x, v):
            env = dict(zip(("x1", "x2", "x3"), x.tolist()), v=speed_at(m_, x, v))
            return expr.eval(env)

        want = perturbed_field(as_force_field(build_generator(sc)), perturb["component"], bump)
        passes, point_evals = [], []
        compile_stack, point_eval = cli.compile_stack, Expression.eval

        def counted_compile_stack(exprs):
            fn = compile_stack(exprs)
            if exprs[0] is not expr:
                return fn

            def counted(env, shape):
                passes.append(shape)
                return fn(env, shape)

            return counted

        def counted_eval(self_, env):
            point_evals.append(self_ is expr)
            return point_eval(self_, env)

        monkeypatch.setattr(cli, "compile_stack", counted_compile_stack)
        got = build_subject(sc)
        monkeypatch.setattr(Expression, "eval", counted_eval)
        x, s = stack(lead, 4)
        v = s[..., None] * np.random.default_rng(5).normal(size=lead + (3,))
        value = got.eval(m, x, v)
        assert passes == [lead] and not any(point_evals)
        monkeypatch.setattr(Expression, "eval", point_eval)
        assert_same_bits(value, want.eval(m, x, v))

    def test_shift_csv_equals_the_eval_closures(self, tmp_path, monkeypatch):
        # the cli-scenario benchmark's scenario: 5 x 5 trajectories, 20 steps
        data = base_scenario(
            name="bench",
            metric={"kind": "conformal", "f": WAVY},
            generator={"kind": "nonmetrizable", "f": "x1", "A": "v^3"},
            surface={"kind": "sphere", "orientation": -1, "base_u": [0.5 * np.pi, 0.0]},
            run={"t_end": 0.02, "dt": 1e-3, "sample_stride": 4,
                 "u_grid": [[0.5 * np.pi - 0.1, 0.5 * np.pi + 0.1, 5], [-0.1, 0.1, 5]]},
        )
        path = write_config(tmp_path, data)
        assert cmd_shift(path, out=tmp_path / "compiled") == 0
        monkeypatch.setattr(cli, "build_metric", eval_metric)
        monkeypatch.setattr(cli, "build_generator", eval_generator)
        assert cmd_shift(path, out=tmp_path / "eval") == 0
        compiled = (tmp_path / "compiled" / "bench.trajectories.csv").read_bytes()
        assert compiled == (tmp_path / "eval" / "bench.trajectories.csv").read_bytes()

