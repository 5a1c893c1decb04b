"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import FIELD_NEAR_MISSES, near_misses
from test_output_digests import CHANNEL_PINS, OUTPUT_PINS

import wlansim
from wlansim.arrays import MAX_ITERATIONS, Scenario, Source, load_scenario
from wlansim.cli import EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from wlansim.propagation import EARTH_RADIUS_M
from wlansim.spectrum import dft_magnitude
from wlansim.survey import CSV_COLUMNS

DATA = Path(__file__).parent / "data"

BEAMFORM_OUTPUTS = [
    "trace.csv",
    "weights.csv",
    "pattern.csv",
    "spectrum_before.csv",
    "spectrum_after.csv",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChannelsCommand:
    def test_unii_table_has_23_rows(self, capsys):
        code, out, _ = run_cli(["channels", "--plan", "unii"], capsys)
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        assert len(rows) == 24  # header + 23 channels

    def test_overlap_of_non_overlapping_pair(self, capsys):
        code, out, _ = run_cli(["channels", "--overlap", "1", "6"], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == 0.0

    def test_overlap_of_adjacent_pair(self, capsys):
        code, out, _ = run_cli(["channels", "--overlap", "1", "2"], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(17 / 22, abs=1e-12)

    def test_unknown_channel_exits_nonzero(self, capsys):
        code, _, err = run_cli(["channels", "--overlap", "1", "99"], capsys)
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_overlap_across_plans_exits_1(self, capsys):
        code, out, err = run_cli(["channels", "--overlap", "1", "36"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "different plans" in err

    def test_sub_band_table_has_its_rows(self, capsys):
        code, out, _ = run_cli(["channels", "--plan", "unii_a"], capsys)
        assert code == EXIT_OK
        _, *rows = csv.reader(io.StringIO(out))
        assert [int(row[0]) for row in rows] == [36, 40, 44, 48, 52, 56, 60, 64]
        assert {row[3] for row in rows} == {"unii_a"}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,named",
        [
            (["coverage", "survey.csv", "--plan", "unii"], "--plan"),
            (["throughput", "--modulation", "qam256"], "--modulation"),
            (["channels", "--plan", "ism24", "--overlap", "1", "6"], "--overlap"),
            (["coverage", "survey.csv", "--bogus"], "--bogus"),
        ],
    )
    def test_usage_error_exits_1_naming_the_flag(self, tmp_path, capsys, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)  # a parser that accepted argv would write here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == EXIT_OK
        assert "wlansim" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:Support for `.tool.setuptools.`")  # setuptools "beta" notice
    def test_package_version_is_the_module_version(self):
        pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = Path(__file__).resolve().parent.parent
        config = pyproject.read_configuration(root / "pyproject.toml", expand=True)
        assert config["project"]["version"] == wlansim.__version__ == "0.1.0"


class TestBeamformCommand:
    def test_default_scenario_reports_deep_null(self, tmp_path, capsys):
        code, out, _ = run_cli(["beamform", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        match = re.search(r"null_depth_db=([-\d.]+)", out)
        assert match, f"no null depth in summary: {out!r}"
        assert float(match.group(1)) >= 30.0
        for name in BEAMFORM_OUTPUTS:
            assert (tmp_path / name).exists()

    def test_zero_iterations_is_a_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["beamform", "--out", str(tmp_path), "--iterations", "0"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "iterations" in err

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("step_size", 3.0, "iteration"),
            ("step_size", math.nan, "step_size"),
            ("noise_power", math.inf, "noise_power"),
            ("sources", 5, "sources"),
            ("iterations", [1], "iterations"),
            ("iterations", 300.7, "iterations"),
            ("num_elements", 2.9, "num_elements"),
            ("iterations", "300", "iterations"),
            ("step_size", " 0.32 ", "step_size"),
            ("seed", "7", "seed"),
            ("step_size", True, "step_size"),
            ("noise_power", False, "noise_power"),
            pytest.param("step_size", 10**400, "step_size", id="step_size-int-beyond-float"),
            pytest.param(
                "sources",
                [dict(src, role="desired") for src in load_scenario().to_dict()["sources"]],
                "sources[1].role",
                id="second-desired-source",
            ),
            pytest.param("num_elements", 1025, "num_elements: must be <= 1024", id="num_elements-above-bound"),
            pytest.param("noise_power", 1e201, "noise_power: must be in [0, 1e+200]", id="noise_power-above-bound"),
            pytest.param(
                "spacing_wavelengths", 1e308, "spacing_wavelengths: must be in (0, 1e+100]", id="spacing-above-bound"
            ),
            pytest.param(
                "sources",
                [dict(src, amplitude=1e-160) for src in load_scenario().to_dict()["sources"]],
                "sources[0].amplitude: must be 0 or in [1e-100, 1e+100], got 1e-160",
                id="amplitude-below-bound",
            ),
            pytest.param(
                "sources",
                [dict(src, normalized_freq=0.75) for src in load_scenario().to_dict()["sources"]],
                "sources[0].normalized_freq: must be in [-0.5, 0.5], got 0.75",
                id="normalized_freq-above-nyquist",
            ),
            pytest.param("carrier_hz", 5e9, "carrier_hz: unknown field", id="unknown-key"),
            pytest.param(
                "sources",
                [dict(src, amplitdue=0.1) for src in load_scenario().to_dict()["sources"]],
                "sources[0].amplitdue: unknown field",
                id="unknown-source-key",
            ),
        ],
    )
    def test_bad_numerics_exit_1_and_create_no_outputs(self, tmp_path, capsys, field, value, named):
        data = load_scenario().to_dict()
        data[field] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))  # writes NaN / Infinity literals
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["beamform", "--scenario", str(scenario), "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("given_by", ["flag", "file"])
    def test_iterations_bound_is_one_check_for_flag_and_file(self, tmp_path, capsys, given_by):
        out_dir = tmp_path / "out"
        argv = ["beamform", "--out", str(out_dir)]
        if given_by == "flag":
            argv += ["--iterations", "1000001"]
        else:
            data = load_scenario().to_dict()
            data["iterations"] = 1000001
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(data))
            argv += ["--scenario", str(scenario)]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_VALIDATION
        assert err == "error: iterations: must be <= 1000000, got 1000001\n"
        assert not out_dir.exists()

    def test_divergence_names_the_same_iteration_at_any_run_length(self, tmp_path, capsys):
        """A step size so large that the first update overflows the weights
        while that iteration's error power is finite (the 1e-156 amplitudes
        of the NLMS test are below the amplitude bound, so a document
        reaches the case this way): one iteration or more than a chunk,
        the run names iteration 0 and writes nothing."""
        data = {**load_scenario().to_dict(), "step_size": 1e300, "noise_power": 0.0}
        for source in data["sources"]:
            source["amplitude"] = 1e-10
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        errors = []
        for iterations in ("1", "1025"):
            out_dir = tmp_path / f"out{iterations}"
            argv = ["beamform", "--scenario", str(scenario), "--iterations", iterations, "--out", str(out_dir)]
            code, _, err = run_cli(argv, capsys)
            assert code == EXIT_VALIDATION
            assert not out_dir.exists()
            errors.append(err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: iteration 0: adaptation diverged")

    def test_each_spectrum_is_transformed_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dft_magnitude(*args, **kwargs)

        monkeypatch.setattr(wlansim.spectrum, "dft_magnitude", counted)  # cmd_beamform imports it per call
        assert run_cli(["beamform", "--out", str(tmp_path)], capsys)[0] == EXIT_OK
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_exits_1_naming_seed(self, tmp_path, capsys, seed):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["beamform", "--out", str(out_dir), "--iterations", "50", "--seed", seed], capsys)
        assert code == EXIT_VALIDATION
        assert "seed" in err
        assert not out_dir.exists()

    def test_silent_scenario_leaves_out_the_suppression_fields(self, tmp_path, capsys):
        data = {**load_scenario().to_dict(), "num_elements": 4, "iterations": 600, "noise_power": 0.0}
        for source in data["sources"]:
            source["amplitude"] = 0.0  # a silent array: the suppression changes have no reference
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["beamform", "--scenario", str(scenario), "--out", str(out_dir)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert "desired_change_db" not in out and "interferer_change_db" not in out
        assert_summary_finite(out)
        for name in BEAMFORM_OUTPUTS:
            assert_numeric_fields_finite((out_dir / name).read_text(encoding="utf-8"), name)

    def test_zero_step_size_summary_is_finite(self, tmp_path, capsys):
        data = load_scenario().to_dict()
        data["step_size"] = 0.0  # weights stay zero: every array gain is -inf
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        code, out, _ = run_cli(["beamform", "--scenario", str(scenario), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert_summary_finite(out)

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli(["beamform", "--out", str(dir_a)], capsys)[0] == EXIT_OK
        assert run_cli(["beamform", "--out", str(dir_b)], capsys)[0] == EXIT_OK
        for name in BEAMFORM_OUTPUTS:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_shorter_run_is_a_prefix_of_a_longer_one(self, tmp_path, capsys):
        # Each input row is keyed on its sample index and the recursion is
        # causal, so iterations past n leave the first n trace rows as they
        # are.
        lines = {}
        for n in (300, 700):
            argv = ["beamform", "--iterations", str(n), "--out", str(tmp_path / str(n))]
            assert run_cli(argv, capsys)[0] == EXIT_OK
            lines[n] = (tmp_path / str(n) / "trace.csv").read_bytes().splitlines(keepends=True)
        assert len(lines[300]) == 301
        assert lines[700][:301] == lines[300]

    def test_failed_write_leaves_no_partial_set(self, tmp_path, capsys, monkeypatch):
        write_lines = wlansim.cli._write_lines
        written = []

        def failing(out, table):
            written.append(table)
            if len(written) < 4:
                return write_lines(out, table)
            out.write("normalized_freq,")
            raise OSError("disk full")

        earlier, fresh = tmp_path / "earlier", tmp_path / "fresh"
        assert run_cli(["beamform", "--iterations", "300", "--seed", "1", "--out", str(earlier)], capsys)[0] == EXIT_OK
        complete_set = {p.name: p.read_bytes() for p in earlier.iterdir()}
        # The fourth table, spectrum_before.csv, follows trace, weights and pattern: a failure mid-set.
        monkeypatch.setattr(wlansim.cli, "_write_lines", failing)
        for out_dir in (earlier, fresh):
            written.clear()
            code, out, err = run_cli(["beamform", "--iterations", "300", "--seed", "2", "--out", str(out_dir)], capsys)
            assert code == EXIT_IO
            assert "disk full" in err and out == ""
        assert {p.name: p.read_bytes() for p in earlier.iterdir()} == complete_set
        assert list(fresh.iterdir()) == []

    def test_manifest_records_digest_and_outputs(self, tmp_path, capsys):
        run_cli(["beamform", "--out", str(tmp_path)], capsys)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_sha256"])
        assert manifest["seed"] == 20240511
        assert manifest["outputs"] == BEAMFORM_OUTPUTS

    def test_manifest_names_the_runtime(self, tmp_path, capsys):
        assert run_cli(["beamform", "--iterations", "50", "--out", str(tmp_path)], capsys)[0] == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["python_version"] == sys.version.split()[0]
        assert manifest["numpy_version"] == np.__version__

    def test_missing_scenario_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["beamform", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_IO
        assert "I/O" in err

    def test_output_dir_defaults_to_the_current_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WLANSIM_OUTPUT_DIR", str(tmp_path / "env_out"))  # ignored: only --out chooses
        code, _, _ = run_cli(["beamform", "--iterations", "50"], capsys)
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*BEAMFORM_OUTPUTS, "manifest.json"])


def write_survey_csv(path: Path, ap_lat=51.8776, ap_lon=0.9426, exponent=2.7,
                     eirp=20.0, ref_loss=40.0) -> None:
    """Synthetic noiseless survey: samples on a meridian at known distances."""
    lines = ["t,bssid,ssid,channel,rssi_dbm,lat,lon"]
    for i, d in enumerate([5.0, 10.0, 20.0, 40.0, 80.0, 160.0]):
        lat = ap_lat + math.degrees(d / EARTH_RADIUS_M)
        rssi = eirp - (ref_loss + 10.0 * exponent * math.log10(d))
        for k in range(5):
            lines.append(
                f"2013-05-14T09:{i:02d}:{k:02d}Z,00:11:22:33:44:55,eduroam,1,{rssi},{lat},{ap_lon}"
            )
    path.write_text("\n".join(lines) + "\n")


class TestCoverageCommand:
    def test_fixture_summaries(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["coverage", str(log), "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        assert "parsed 30 records, 0 malformed lines" in out
        rows = (out_dir / "summaries.csv").read_text().strip().splitlines()
        assert len(rows) == 7  # header + 6 locations
        assert (out_dir / "interference.csv").exists()

    def test_row_order_leaves_the_tables_unchanged(self, tmp_path):
        header, *rows = (DATA / "survey_mixed.csv").read_text().splitlines()
        tables = ("summaries.csv", "interference.csv")
        assert main(["coverage", str(DATA / "survey_mixed.csv"), "--out", str(tmp_path / "out")]) == EXIT_OK
        expected = {name: (tmp_path / "out" / name).read_bytes() for name in tables}
        for seed in range(3):
            random.Random(seed).shuffle(rows)
            log = tmp_path / f"shuffled{seed}.csv"
            log.write_text("\n".join([header, *rows]) + "\n")
            out_dir = tmp_path / f"out{seed}"
            assert main(["coverage", str(log), "--out", str(out_dir)]) == EXIT_OK
            assert {name: (out_dir / name).read_bytes() for name in tables} == expected

    def test_empty_file_exits_nonzero(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("")
        code, _, err = run_cli(["coverage", str(log), "--out", str(tmp_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "no valid" in err

    def test_log_without_a_valid_record_lists_each_reason_then_the_error(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        log.write_text("garbage,line\n2013-05-14T09:00:00Z,not-a-mac,eduroam,1,-60.0,51.8776,0.9426\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["coverage", str(log), "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert out == "parsed 0 records, 2 malformed lines\n"
        assert err == (
            "  line 1: expected 7 columns, got 2\n"
            "  line 2: invalid MAC address 'not-a-mac'\n"
            "error: no valid measurement records in input\n"
        )
        assert not out_dir.exists()

    def test_fit_recovers_planted_exponent(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log, exponent=2.7)
        code, out, _ = run_cli(
            [
                "coverage", str(log), "--out", str(tmp_path / "out"), "--fit",
                "--tx-eirp", "20", "--ap-lat", "51.8776", "--ap-lon", "0.9426",
            ],
            capsys,
        )
        assert code == EXIT_OK
        match = re.search(r"exponent=([-\d.]+)", out)
        assert match
        assert float(match.group(1)) == pytest.approx(2.7, abs=1e-3)

    def test_fit_leaves_out_groups_under_one_metre(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log, exponent=2.7)
        # Off-model samples 0.5 m from the AP: under the 1 m reference distance.
        lat = 51.8776 + math.degrees(0.5 / EARTH_RADIUS_M)
        near = [f"2013-05-14T09:10:{k:02d}Z,00:11:22:33:44:55,eduroam,1,-30.0,{lat},0.9426" for k in range(5)]
        log.write_text(log.read_text() + "\n".join(near) + "\n")
        code, out, _ = run_cli(
            [
                "coverage", str(log), "--out", str(tmp_path / "out"), "--fit",
                "--tx-eirp", "20", "--ap-lat", "51.8776", "--ap-lon", "0.9426",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "samples=6" in out
        assert float(re.search(r"exponent=([-\d.]+)", out).group(1)) == pytest.approx(2.7, abs=1e-3)

    def test_fit_without_ap_position_rejected(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        code, _, err = run_cli(
            ["coverage", str(log), "--out", str(tmp_path / "out"), "--fit"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "ap-lat" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "given,missing", [(["--ap-lat", "51.8776"], "--ap-lon"), (["--ap-lon", "0.9426"], "--ap-lat")]
    )
    def test_half_given_ap_position_rejected(self, tmp_path, capsys, given, missing):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        code, _, err = run_cli(["coverage", str(log), "--out", str(tmp_path / "out"), *given], capsys)
        assert code == EXIT_VALIDATION
        assert missing in err
        assert not (tmp_path / "out").exists()

    def test_fit_with_one_distance_leaves_no_outputs(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:6]) + "\n")  # header + the 5 samples at 5 m
        code, _, err = run_cli(
            [
                "coverage", str(log), "--out", str(tmp_path / "out"), "--fit",
                "--ap-lat", "51.8776", "--ap-lon", "0.9426",
            ],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert "two points" in err
        assert not (tmp_path / "out").exists()

    def test_fit_over_one_distance_is_degenerate(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        header, *samples = log.read_text().splitlines()
        # The 5 m samples again under a second AP: two points, one distance.
        second = [line.replace("00:11:22:33:44:55", "00:11:22:33:44:66") for line in samples[:5]]
        log.write_text("\n".join([header, *samples[:5], *second]) + "\n")
        code, _, err = run_cli(
            [
                "coverage", str(log), "--out", str(tmp_path / "out"), "--fit",
                "--ap-lat", "51.8776", "--ap-lon", "0.9426",
            ],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert "degenerate" in err
        assert not (tmp_path / "out").exists()

    def test_antipodal_ap_position(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        log.write_text(
            "t,bssid,ssid,channel,rssi_dbm,lat,lon\n"
            "2013-05-14T09:00:00Z,00:11:22:33:44:55,eduroam,1,-60.0,87.5,180\n"
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["coverage", str(log), "--ap-lat=-87.5", "--ap-lon=0", "--out", str(out_dir)], capsys)
        assert code == EXIT_OK, err
        (row,) = csv.DictReader(io.StringIO((out_dir / "summaries.csv").read_text()))
        assert float(row["distance_m"]) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-7)

    @pytest.mark.parametrize("eirp", ["1e308", "-1e308"])
    def test_fit_at_extreme_eirp_prints_finite_fields(self, tmp_path, capsys, eirp):
        argv = [
            "coverage", str(DATA / "survey_mixed.csv"), "--out", str(tmp_path / "out"), "--fit",
            "--ap-lat", "51.8776", "--ap-lon", "0.9426", f"--tx-eirp={eirp}",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        fields = dict(pair.split("=") for pair in out.splitlines()[-1].removeprefix("fit: ").split())
        assert set(fields) == {"exponent", "reference_loss_db", "residual_rms_db", "samples"}
        assert all(math.isfinite(float(value)) for value in fields.values()), fields

    @pytest.mark.parametrize(
        "channel_a,channel_b,verdict",
        [
            (1, 36, "0.0,1,0"),  # 2.4 and 5 GHz: different plans never overlap
            (36, 36, "1.0,1,1"),  # a log of 5 GHz APs only
        ],
    )
    def test_plan_inferred_per_ap(self, tmp_path, capsys, channel_a, channel_b, verdict):
        log = tmp_path / "survey.csv"
        log.write_text(
            "t,bssid,ssid,channel,rssi_dbm,lat,lon\n"
            + "".join(
                f"2013-05-14T09:00:0{k}Z,{mac},eduroam,{cid},-50.0,51.8776,0.9426\n"
                for mac, cid in (("00:11:22:33:44:55", channel_a), ("00:11:22:33:44:66", channel_b))
                for k in range(5)
            )
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["coverage", str(log), "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        rows = (out_dir / "interference.csv").read_text().splitlines()
        assert rows[1:] == [f"00:11:22:33:44:55,00:11:22:33:44:66,{verdict}"]

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--fit", "--tx-eirp", "nan"], "--tx-eirp: must be finite, got nan"),
            (["--fit", "--tx-eirp", "inf"], "--tx-eirp: must be finite, got inf"),
            (["--tx-eirp", "nan"], "--tx-eirp: must be finite, got nan"),
            (["--coverage-threshold", "nan"], "--coverage-threshold: must be finite, got nan"),
            (["--ap-lat", "91"], "--ap-lat"),
            (["--ap-lon", "181"], "--ap-lon"),
        ],
        ids=[
            "fit-tx-eirp-nan", "fit-tx-eirp-inf", "tx-eirp-nan", "coverage-threshold-nan",
            "ap-lat-91", "ap-lon-181",
        ],
    )
    def test_non_finite_option_exits_1_naming_it(self, tmp_path, capsys, flags, named):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["coverage", str(log), "--out", str(out_dir), "--ap-lat", "51.8776", "--ap-lon", "0.9426", *flags],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert named in err
        assert not out_dir.exists()

    def test_config_digest_covers_the_options(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)

        def config_sha256(name, threshold):
            out_dir = tmp_path / name
            argv = ["coverage", str(log), "--out", str(out_dir), "--coverage-threshold", threshold]
            assert run_cli(argv, capsys)[0] == EXIT_OK
            return json.loads((out_dir / "manifest.json").read_text())["config_sha256"]

        first = config_sha256("a", "-80")
        assert config_sha256("b", "-80") == first
        assert config_sha256("c", "-52") != first

    def test_truncated_kml_exits_1_and_creates_no_outputs(self, tmp_path, capsys):
        log = tmp_path / "survey.kml"
        log.write_text((DATA / "survey.kml").read_text(encoding="utf-8")[:300], encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["coverage", str(log), "--format", "kml", "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert "not a parseable KML document" in err
        assert not out_dir.exists()

    def test_stray_key_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # Only ValueError means invalid input; any other exception is a bug.
        def broken(*args, **kwargs):
            raise KeyError("x")

        monkeypatch.setattr("wlansim.cli.summarize", broken)
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["coverage", str(log), "--out", str(out_dir)], capsys)
        assert code == EXIT_INTERNAL
        assert err.startswith("internal error:")
        assert not out_dir.exists()

    def test_kml_error_names_the_placemark_line(self, tmp_path, capsys):
        kml = Path(__file__).parent / "data" / "survey.kml"
        code, out, err = run_cli(["coverage", str(kml), "--format", "kml", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert "parsed 2 records, 1 malformed lines" in out
        assert err == "  line 27: placemark missing fields: rssi_dbm\n"

    @pytest.mark.parametrize(
        "text,fmt,out_text",
        [
            pytest.param(
                "t,bssid,ssid,channel,rssi_dbm,lat,lon\n"
                "2013-05-14T09:00:00Z,00:11:22:33:44:55,eduroam,1,-60.0,51.8776,0.9426\n",
                "csv", "parsed 1 records, 0 malformed lines", id="csv-header",
            ),
            pytest.param(
                (DATA / "survey.kml").read_text(encoding="utf-8"), "kml", "parsed 2 records, 1 malformed lines",
                id="kml",
            ),
        ],
    )
    def test_byte_order_mark_is_not_part_of_the_log(self, tmp_path, capsys, text, fmt, out_text):
        log = tmp_path / f"survey.{fmt}"
        log.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        code, out, err = run_cli(["coverage", str(log), "--format", fmt, "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert out_text in out
        assert "line 1:" not in err

    def test_pairs_stream_to_their_csv(self, tmp_path):
        # Each AP's pairs go to the CSV, in one write, as they are made: 400
        # co-located APs make 79 800 pairs, which as a list would take over
        # 6 MiB, and the first AP's text holds 399 lines.
        log = tmp_path / "survey.csv"
        log.write_text(
            "".join(
                f"2013-05-14T09:00:00Z,00:11:22:33:{k // 256:02X}:{k % 256:02X},net,{1 + k % 11},-60.0,51.8776,0.9426\n"
                for k in range(400)
            )
        )
        out_dir = tmp_path / "out"
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()):
                code = main(["coverage", str(log), "--out", str(out_dir)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        with open(out_dir / "interference.csv", encoding="utf-8") as f:
            assert sum(1 for _ in f) == 1 + 400 * 399 // 2
        assert peak < 2 * 2**20, peak

    def test_records_stream_into_their_groups(self, tmp_path):
        # 20 000 samples of 4 APs in a few 1 m cells, which as a list of
        # records would take over 4 MiB: a group keeps only its least record
        # and each member's RSSI, latitude and longitude.
        log = tmp_path / "survey.csv"
        log.write_text(
            "".join(
                f"2013-05-14T09:{k // 60 % 60:02d}:{k % 60:02d}Z,00:11:22:33:44:{k % 4:02X},net,1,"
                f"{-50 - k % 40}.5,51.87760{k % 7},0.94260{k % 5}\n"
                for k in range(20_000)
            )
        )
        out_dir = tmp_path / "out"
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()) as out:
                code = main(["coverage", str(log), "--out", str(out_dir)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out.getvalue() == "parsed 20000 records, 0 malformed lines\n"
        assert peak < 3 * 2**20, peak

    def test_malformed_line_count_reported(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        with open(log, "a") as f:
            f.write("bad,line\n")
        code, out, err = run_cli(["coverage", str(log), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert "1 malformed" in out
        assert "line 32" in err

    @pytest.mark.parametrize(
        "extra,code,out_text,err_text",
        [
            pytest.param(
                ("t," + "x" * 140_000 + "\n"
                 "2013-05-14T09:09:00Z,00:11:22:33:44:55,eduroam,1,-60.0,51.8776,0.9426\n").encode(),
                EXIT_OK, "parsed 31 records, 1 malformed lines", "line 32: field larger than field limit",
                id="over-long-field",
            ),
            pytest.param(b"caf\xe9\n", EXIT_VALIDATION, "", "can't decode byte 0xe9", id="not-utf-8"),
            # 120 rows of 71 bytes put the byte past the decoder's first 8 KiB chunk.
            pytest.param(
                b"2013-05-14T09:09:00Z,00:11:22:33:44:55,eduroam,1,-60.0,51.8776,0.9426\n" * 120 + b"caf\xff\n",
                EXIT_VALIDATION, "", "error: line 152: can't decode byte 0xff: invalid start byte",
                id="not-utf-8-past-8-kib",
            ),
            *(
                pytest.param(
                    f"2013-05-14T09:09:00Z,{row}\n".encode(), EXIT_OK, "parsed 30 records, 1 malformed lines",
                    f"line 32: {message}", id=name,
                )
                for name, row, message in [
                    ("bad-mac", "not-a-mac,eduroam,1,-60.0,51.8776,0.9426", "invalid MAC address 'not-a-mac'"),
                    ("rssi-below-range", "00:11:22:33:44:55,eduroam,1,-200,51.8776,0.9426",
                     "rssi -200.0 dBm outside [-120.0, 0.0]"),
                    ("rssi-plus-sign", "00:11:22:33:44:55,eduroam,1,+5,51.8776,0.9426",
                     "rssi '+5' violates the [-120, 0] dBm range"),
                    ("unknown-channel", "00:11:22:33:44:55,eduroam,165,-60.0,51.8776,0.9426",
                     "channel 165 not in any known plan"),
                    ("latitude-91", "00:11:22:33:44:55,eduroam,1,-60.0,91,0.9426",
                     "latitude 91.0 outside [-90, 90]"),
                ]
            ),
        ],
    )
    def test_malformed_input_keeps_the_exit_contract(self, tmp_path, capsys, extra, code, out_text, err_text):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        with open(log, "ab") as f:
            f.write(extra)
        out_dir = tmp_path / "out"
        got, out, err = run_cli(["coverage", str(log), "--out", str(out_dir)], capsys)
        assert got == code
        assert out_text in out
        assert err_text in err
        assert out_dir.exists() == (code == EXIT_OK)

    def test_quoted_line_ends_keep_their_bytes(self, tmp_path, capsys):
        """The log is opened with newline="", so an SSID's CRLF and CR reach
        summaries.csv as written, and a later row keeps its physical line."""
        row = "2013-05-14T09:00:00Z,00:11:22:33:44:{},{},1,-60.0,51.8776,0.9426\r\n"
        log = tmp_path / "survey.csv"
        log.write_bytes(
            (",".join(CSV_COLUMNS) + "\r\n" + row.format(55, '"a\r\nb"') + row.format(66, '"c\rd"')
             + "bad,row\r\n").encode()
        )
        code, out, err = run_cli(["coverage", str(log), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert "parsed 2 records, 1 malformed lines" in out
        assert "line 6: expected 7 columns, got 2" in err
        with open(tmp_path / "out" / "summaries.csv", encoding="utf-8", newline="") as f:
            assert [r[1] for r in csv.reader(f)] == ["ssid", "a\r\nb", "c\rd"]


# Each rejected throughput input and what its message must hold.
THROUGHPUT_REJECTIONS = [
    (["--tx-eirp", "nan"], "--tx-eirp: must be finite, got nan"),
    (["--exponent", "nan"], "--exponent: must be finite and >= 1, got nan"),
    (["--exponent", "inf"], "--exponent: must be finite and >= 1, got inf"),
    (["--exponent=-inf"], "--exponent: must be finite and >= 1, got -inf"),
    (["--exponent", "0.5"], "--exponent: must be finite and >= 1, got 0.5"),
    (["--frequency", "nan"], "--frequency: must be positive and finite, got nan"),
    (["--frequency", "inf"], "--frequency: must be positive and finite, got inf"),
    (["--frequency", "0"], "--frequency: must be positive and finite, got 0.0"),
    (["--frequency", "-5"], "--frequency: must be positive and finite, got -5.0"),
    (["--min-distance", "inf"], "--min-distance: must be positive and finite, got inf"),
    (["--min-distance", "0"], "--min-distance: must be positive and finite, got 0.0"),
    (["--step", "nan"], "--step: must be >= 0 and finite, got nan"),
    (["--step", "-0.25"], "--step: must be >= 0 and finite, got -0.25"),
    (["--exponent", "1e308"], "path-loss exponent 1e+308 overflows the link budget over 1.0..3.0 m"),
    (["--points", "0"], "--points: must be in [1, 1000000], got 0"),
    (["--points", "-5"], "--points: must be in [1, 1000000], got -5"),
    (["--points", "1000001"], "--points: must be in [1, 1000000], got 1000001"),
    (["--min-distance", "1e308", "--step", "1e308"], "--step: the last distance 1e+308 + 2 * 1e+308 m is not finite"),
]


class TestThroughputCommand:
    def test_ac_three_stream_cap(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["throughput", "--standard", "ac", "--streams", "3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert "cap_mbps=1300.0" in out

    def test_invalid_width_cites_constraint(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["throughput", "--standard", "n", "--width", "80", "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_VALIDATION
        assert "20/40" in err

    @pytest.mark.parametrize(
        "flags,named", THROUGHPUT_REJECTIONS, ids=["-".join(flags) for flags, _ in THROUGHPUT_REJECTIONS]
    )
    def test_non_finite_input_exits_1_and_creates_no_outputs(self, tmp_path, capsys, flags, named):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["throughput", "--points", "3", *flags, "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags,streams",
        [
            (["--streams", "0"], 0),
            (["--streams", "2"], 2),
            (["--streams", "9"], 9),
            (["--standard", "n", "--streams", "4"], 4),
        ],
        ids=["ac-0", "ac-2", "ac-9", "n-4"],
    )
    def test_streams_outside_the_rate_table_exit_1(self, tmp_path, capsys, flags, streams):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["throughput", *flags, "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert f"with {streams} streams" in err
        assert not out_dir.exists()

    def test_default_sweep_is_monotone(self, tmp_path, capsys):
        code, _, _ = run_cli(["throughput", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        rows = (tmp_path / "throughput.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 30
        rates = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_shorter_curve_is_a_prefix_of_a_longer_one(self, tmp_path, capsys):
        # Each distance is computed from its own index.
        lines = {}
        for n in (1000, 5000):
            argv = ["throughput", "--points", str(n), "--step", "0.37", "--out", str(tmp_path / str(n))]
            assert run_cli(argv, capsys)[0] == EXIT_OK
            lines[n] = (tmp_path / str(n) / "throughput.csv").read_bytes().splitlines(keepends=True)
        assert len(lines[1000]) == 1001
        assert lines[5000][:1001] == lines[1000]

    def test_curve_streams_to_its_csv(self, tmp_path):
        # Each row goes to the CSV as it is computed, one line per write.
        # The run peaks near 0.66 MiB, the modules the manifest imports
        # included; a writer that held the 20 000 rows would take over 2 MiB.
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()):
                code = main(["throughput", "--points", "20000", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2**20, peak


# Columns that hold text; every other column of every output is a number.
TEXT_COLUMNS = {"band", "bssid", "ssid", "bssid_a", "bssid_b"}


@pytest.mark.parametrize(
    "argv,headers",
    [
        pytest.param(["channels"], {"stdout": "id,center_hz,bandwidth_hz,band,eirp_mw"}, id="channels"),
        pytest.param(
            ["beamform", "--iterations", "300"],
            {
                "trace.csv": "n,error_power,output_re,output_im",
                "weights.csv": "n,element,re,im",
                "pattern.csv": "angle_rad,gain_db",
                "spectrum_before.csv": "normalized_freq,magnitude,magnitude_db",
                "spectrum_after.csv": "normalized_freq,magnitude,magnitude_db",
            },
            id="beamform",
        ),
        pytest.param(
            # With an AP position, every distance is known.
            ["coverage", str(DATA / "survey_mixed.csv"), "--ap-lat", "51.8776", "--ap-lon", "0.9426"],
            {
                "summaries.csv": "bssid,ssid,channel,cell_x,cell_y,lat,lon,mean_rssi_dbm,stddev_rssi_dbm,"
                "count,low_confidence,distance_m",
                "interference.csv": "bssid_a,bssid_b,overlap,co_located,interferes",
            },
            id="coverage",
        ),
        pytest.param(["throughput"], {"throughput.csv": "distance_m,rate_mbps,snr_db"}, id="throughput"),
    ],
)
def test_output_headers_and_finite_fields(tmp_path, capsys, argv, headers):
    out_args = [] if argv[0] == "channels" else ["--out", str(tmp_path)]
    assert main([*argv, *out_args]) == EXIT_OK
    stdout = capsys.readouterr().out
    for name, header in headers.items():
        text = stdout if name == "stdout" else (tmp_path / name).read_text(encoding="utf-8")
        assert text.splitlines()[0] == header, name
        assert len(text.splitlines()) > 1, name
        assert_numeric_fields_finite(text, name)


def assert_numeric_fields_finite(text: str, name: str, blank_distance: bool = False) -> None:
    """Every row of the CSV ``text`` is full and every field outside
    ``TEXT_COLUMNS`` is a finite number; with ``blank_distance`` (no AP
    position given) an empty ``distance_m`` passes too."""
    columns, *rows = csv.reader(io.StringIO(text))
    for row in rows:
        assert len(row) == len(columns), (name, row)
        assert all(
            math.isfinite(float(field))
            for column, field in zip(columns, row)
            if column not in TEXT_COLUMNS and not (blank_distance and column == "distance_m" and field == "")
        ), (name, row)


def assert_summary_finite(out: str) -> None:
    """The stdout summary line holds ``name=value`` fields, each value finite."""
    fields = dict(field.split("=") for field in out.split())
    assert fields and all(math.isfinite(float(value)) for value in fields.values()), out


GOOD_SAMPLE = ["2013-05-14T09:00:00Z", "00:11:22:33:44:55", "eduroam", "1", "-60", "51.8776", "0.9426"]


@st.composite
def near_miss_rows(draw):
    """A sample with one or two fields replaced by near misses; one row in
    five also has a column too few or too many."""
    row = list(GOOD_SAMPLE)
    for i in draw(st.sets(st.integers(0, 6), min_size=1, max_size=2)):
        row[i] = draw(FIELD_NEAR_MISSES[i])
    return draw(st.sampled_from([row, row, row, row[:-1], [*row, ""]]))


# Each value a float that argparse accepts: a value it refuses exits before main's handlers.
# "-51.8776", "-179.0574" is GOOD_SAMPLE's antipode.
AP_POSITIONS = st.tuples(
    st.sampled_from(["51.8776", "51.8777", "-51.8776", "-90", "90", "91", "nan", "1e308"]),
    st.sampled_from(["0.9426", "0.9427", "-179.0574", "-180", "180", "-181", "inf"]),
)
OPTION_VALUES = {
    "--tx-eirp": st.sampled_from(["20", "-1e308", "1e308", "nan"]),
    "--coverage-threshold": st.sampled_from(["-80", "0", "-1e308", "-inf"]),
}


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(near_miss_rows(), max_size=6),
    ap=st.none() | AP_POSITIONS,
    fit=st.booleans(),
    options=st.fixed_dictionaries({}, optional=OPTION_VALUES),
)
# The antipode, which the derandomized draws do not pair, with a second
# sample so that the fit runs: every distance is about half the Earth's circumference.
@example(rows=[[*GOOD_SAMPLE[:5], "51.8777", "0.9427"]], ap=("-51.8776", "-179.0574"), fit=True, options={})
def test_coverage_exit_contract_holds_for_near_miss_logs(rows, ap, fit, options):
    """Survey CSV of one good sample and near misses, with or without an AP
    position and a fit: exit 0 with finite numbers, or exit 1 and no outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "survey.csv"
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([CSV_COLUMNS, GOOD_SAMPLE, *rows])
        log.write_text(out.getvalue(), encoding="utf-8")
        out_dir = Path(tmp) / "out"
        argv = ["coverage", str(log), "--out", str(out_dir), *(["--fit"] if fit else [])]
        if ap is not None:
            options = {**options, "--ap-lat": ap[0], "--ap-lon": ap[1]}
        argv += [f"{flag}={value}" for flag, value in options.items()]  # "=": "-inf" is not a flag
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if code == EXIT_OK:
            for name in ("summaries.csv", "interference.csv"):
                assert_numeric_fields_finite((out_dir / name).read_text(encoding="utf-8"), name, ap is None)
        else:
            assert not out_dir.exists()


# XML 1.0 cannot carry these characters at all; CR and LF it carries only
# as a line end, and near_misses draws neither.
XML_ILLEGAL = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
SSID_TEXTS = near_misses("", "a,b", 'say "hi"', "AT&T", "<guest>", 'x & "y", <z>')


@st.composite
def kml_safe_rows(draw):
    """A sample of one of three APs on channel 1, 2 or 36 in one of three
    cells, with an SSID of near misses or texts with commas, quotes, ``&``
    and ``<``, and up to two other fields replaced by near misses.  The
    position texts hold no comma, which separates them in a KML
    ``coordinates`` element."""
    row = [
        draw(st.sampled_from(["2013-05-14T09:00:00Z", "2013-05-14T09:00:05Z"])),
        draw(st.sampled_from(["00:11:22:33:44:55", "00:11:22:33:44:66", "00:11:22:33:44:77"])),
        draw(SSID_TEXTS),
        draw(st.sampled_from(["1", "2", "36"])),
        draw(st.sampled_from(["-60", "-85", "-70.5"])),
        *draw(st.sampled_from([("51.8776", "0.9426"), ("51.87761", "0.94261"), ("51.8777", "0.9427")])),
    ]
    for i in draw(st.sets(st.sampled_from([0, 1, 3, 4, 5, 6]), max_size=2)):
        row[i] = draw(FIELD_NEAR_MISSES[i])
    row = [XML_ILLEGAL.sub("", text) for text in row]
    row[5:] = [text.replace(",", "") for text in row[5:]]
    return row


def kml_document(rows) -> str:
    """The samples as a KML document, one Placemark a line, each text
    XML-escaped."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<kml xmlns="http://www.opengis.net/kml/2.2"><Document>']
    for row in rows:
        t, bssid, ssid, channel, rssi, lat, lon = map(escape, row)
        data = "".join(
            f'<Data name="{name}"><value>{text}</value></Data>'
            for name, text in [("bssid", bssid), ("ssid", ssid), ("channel", channel), ("rssi_dbm", rssi)]
        )
        lines.append(
            f"<Placemark><TimeStamp><when>{t}</when></TimeStamp><ExtendedData>{data}</ExtendedData>"
            f"<Point><coordinates>{lon},{lat}</coordinates></Point></Placemark>"
        )
    lines.append("</Document></kml>")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(kml_safe_rows(), min_size=2, max_size=8))
def test_csv_and_kml_logs_of_the_same_samples_agree(rows):
    """The same samples as a CSV log and as a KML document: the same
    ``summaries.csv`` and ``interference.csv`` bytes, or exit 1 and no
    outputs for both; never exit 3.  Texts hold no CR, LF or character that
    XML cannot carry verbatim, and the position texts no comma."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([CSV_COLUMNS, *rows])
        logs = {"csv": out.getvalue(), "kml": kml_document(rows)}
        results = {}
        for fmt, text in logs.items():
            log = Path(tmp) / f"survey.{fmt}"
            log.write_text(text, encoding="utf-8")
            out_dir = Path(tmp) / fmt
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["coverage", str(log), "--format", fmt, "--out", str(out_dir)])
            assert code in (EXIT_OK, EXIT_VALIDATION)
            if code == EXIT_OK:
                results[fmt] = [(out_dir / name).read_bytes() for name in ("summaries.csv", "interference.csv")]
            else:
                assert not out_dir.exists()
                results[fmt] = code
        assert results["csv"] == results["kml"]


# Values of each throughput flag, valid ones at their extremes among them.
THROUGHPUT_FLAGS = {
    "--standard": st.sampled_from(["n", "ac"]),
    "--streams": st.sampled_from(["1", "2", "3"]),
    "--width": st.sampled_from(["20", "40", "80", "160"]),
    "--tx-eirp": st.sampled_from(["20", "-1e308", "1e308", "nan", "-inf"]),
    "--frequency": st.sampled_from(["5e9", "1e-300", "1e308", "0", "inf"]),
    # 10 * exponent overflows just above 1.7976931348623157e307.
    "--exponent": st.sampled_from(["1", "2.7", "0.5", "1e306", "1.7e307", "1.7976931348623157e307",
                                   "1.8e307", "nan"]),
    "--min-distance": st.sampled_from(["1", "5e-324", "2.2e-308", "1e300", "1e308", "0", "-1", "inf"]),
    "--step": st.sampled_from(["1", "0", "-0.0", "5e-324", "1e300", "1e308", "-0.25", "nan"]),
    "--points": st.integers(1, 50).map(str) | st.sampled_from(["0", "-1", "1000001", "1000002"]),
}


@settings(max_examples=100, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional=THROUGHPUT_FLAGS))
def test_throughput_exit_contract_holds_for_any_flags(flags):
    """Exit 0 with finite fields and the cap equal to the top rate, or exit
    1 and no outputs; never exit 3."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        # "=": argparse reads a bare "-1e308" as an option.
        argv = ["throughput", "--out", str(out_dir), *(f"{flag}={value}" for flag, value in flags.items())]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if code == EXIT_OK:
            text = (out_dir / "throughput.csv").read_text(encoding="utf-8")
            assert_numeric_fields_finite(text, "throughput.csv")
            rates = [float(row[1]) for row in list(csv.reader(io.StringIO(text)))[1:]]
            assert stdout.getvalue() == f"cap_mbps={max(rates)}\n"
        else:
            assert not out_dir.exists()


# JSON values of every kind a scenario field may be given: wrong types,
# nesting, integers beyond a float or at a size bound, tiny and huge floats
# and each magnitude bound, NaN and infinities (json.dumps writes
# NaN/Infinity literals).
EDGE_NUMBERS = st.sampled_from([
    0, -0.0, 1, -1, 0.5, 0.5000000000000001, 1.5707963267948963, 1024, 1025, MAX_ITERATIONS + 1,
    2**64 - 1, 2**64, 10**200, 10**400, 5e-324, 1e-100, 9.999999999999999e-101, 1e100, 1.0000000000000002e100,
    1e200, 1.0000000000000002e200, 1e308, -1e308,
])
JSON_VALUES = EDGE_NUMBERS | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(min_size=1, max_size=4), inner, max_size=3),
    max_leaves=4,
)
# Each field, and one unknown key, of a scenario and of a source.
SCENARIO_KEYS = [*Scenario._fields, "carrier_hz"]
SOURCE_KEYS = [*Source._fields, "amplitdue"]


def is_long_run(value) -> bool:
    """Whether ``value`` is an iteration count the scenario accepts above 300."""
    return type(value) in (int, float) and 300 < value <= MAX_ITERATIONS and value == int(value)


@st.composite
def scenario_documents(draw):
    """The shipped scenario at 1-300 iterations, maybe silent (every
    amplitude and the noise 0), with up to three fields of it or of its
    sources set to drawn JSON values; or one drawn JSON value in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    data = {**load_scenario().to_dict(), "iterations": draw(st.integers(1, 300))}
    if draw(st.booleans()):
        data["noise_power"] = 0
        for source in data["sources"]:
            source["amplitude"] = 0
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            source = data["sources"][draw(st.integers(0, 1))]
            source[draw(st.sampled_from(SOURCE_KEYS))] = draw(JSON_VALUES)
        else:
            key = draw(st.sampled_from(SCENARIO_KEYS))
            # Iterations stay few, so each example runs in milliseconds.
            data[key] = draw(JSON_VALUES.filter(lambda v: not is_long_run(v)) if key == "iterations" else JSON_VALUES)
            if key == "sources":
                break  # the sources are no longer the two to edit
    return data


def shipped_with(source_fields: dict, **fields) -> dict:
    """The shipped scenario at 300 iterations with ``fields`` set, and
    ``source_fields`` set in its first source."""
    data = {**load_scenario().to_dict(), "iterations": 300, **fields}
    data["sources"][0].update(source_fields)
    return data


@settings(max_examples=100, deadline=None)
@given(document=scenario_documents())
# Values past the magnitude bounds, where the snapshot energy (exit 3), a
# sinusoid's phase (a message naming no field) or the NLMS norm (a
# divergence blamed on step_size) would overflow.
@example(document=shipped_with({"amplitude": 10**200}))
@example(document=shipped_with({"normalized_freq": 1e306}))
@example(document=shipped_with({}, noise_power=1e308))
def test_beamform_exit_contract_holds_for_any_scenario_json(document):
    """Exit 0 with finite CSV fields and a finite summary line, or exit 1
    naming a field and no outputs; never exit 3."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        out_dir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["beamform", "--scenario", str(scenario), "--out", str(out_dir)])
        assert code in (EXIT_OK, EXIT_VALIDATION), stderr.getvalue()
        if code == EXIT_OK:
            assert_summary_finite(stdout.getvalue())
            for name in BEAMFORM_OUTPUTS:
                assert_numeric_fields_finite((out_dir / name).read_text(encoding="utf-8"), name)
        else:
            # A field name, or an unknown key of the document or of a source.
            keys = {"scenario", *SCENARIO_KEYS, *SOURCE_KEYS}
            sources = document.get("sources") if isinstance(document, dict) else None
            for record in [document, *(sources if isinstance(sources, list) else [])]:
                if isinstance(record, dict):
                    keys |= set(record)
            assert any(key in stderr.getvalue() for key in keys), stderr.getvalue()
            assert not out_dir.exists()


def run_python(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package, with ``env`` added to its environment."""
    src = str(Path(wlansim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


# Three samples per group whose RSSI standard deviation, taken with ``d ** 2``
# (libm pow), reads differently under glibc's FMA and non-FMA libm on an
# x86-64 CPU with FMA.
LIBM_SENSITIVE_RSSI = [(-75.0, -64.46, -86.4), (-47.76, -66.69, -85.2), (-81.16, -54.7, -87.77)]

# Positions, one AP's one sample at each, whose great-circle distance from
# (51.8776, 0.9426), taken with ``math.sin(x) ** 2`` (libm pow), reads
# differently under the same two libm variants.
LIBM_SENSITIVE_POSITIONS = [
    (51.878567610000005, 0.941171705),
    (51.87757276, 0.94189871),
    (51.8776612, 0.9433420800000001),
    (51.87729442, 0.94050173),
    (51.87739326, 0.94126853),
    (51.8770966075, 0.9438848075),
    (51.87811033, 0.94408014),
]


@pytest.mark.parametrize(
    "samples,options",
    [
        pytest.param(
            [(ap, rssi, 51.8776, 0.9426) for ap, rssis in enumerate(LIBM_SENSITIVE_RSSI) for rssi in rssis],
            [],
            id="stddev_rssi_dbm",
        ),
        pytest.param(
            [(ap, -60, lat, lon) for ap, (lat, lon) in enumerate(LIBM_SENSITIVE_POSITIONS)],
            ["--ap-lat", "51.8776", "--ap-lon", "0.9426"],
            id="distance_m",
        ),
    ],
)
def test_summaries_do_not_depend_on_the_libm_variant(tmp_path, samples, options):
    """``summaries.csv`` has the same bytes whichever libm variant glibc
    loads: ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-FMA4``, set on one child
    process only, makes glibc load its non-FMA variant there.  On a CPU or
    a glibc where the tunable changes nothing, this passes trivially."""
    lines = [",".join(CSV_COLUMNS)]
    for k, (ap, rssi, lat, lon) in enumerate(samples):
        lines.append(f"2013-05-14T09:00:{k:02d}Z,00:11:22:33:44:{ap:02d},eduroam,1,{rssi},{lat},{lon}")
    log = tmp_path / "survey.csv"
    log.write_text("\n".join(lines) + "\n")
    tables = {}
    for name, env in [("default", {}), ("no_fma", {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-FMA4"})]:
        out_dir = tmp_path / name
        argv = ["coverage", str(log), *options, "--out", str(out_dir)]
        done = run_python(f"from wlansim.cli import main; main({argv!r})", **env)
        assert done.returncode == 0, done.stderr
        tables[name] = (out_dir / "summaries.csv").read_bytes()
    assert tables["default"] == tables["no_fma"]


def test_non_beamform_pins_hold_under_the_non_fma_libm(tmp_path):
    """Every pin of ``test_output_digests`` but beamform's, whose bits
    depend on the CPU and the libm, holds under glibc's non-FMA libm
    (``GLIBC_TUNABLES`` as above), with every case run in one child
    process.  On a CPU or a glibc where the tunable changes nothing, this
    passes trivially."""
    cases = [(["channels", "--plan", plan], {"stdout": pin}, None) for plan, pin in CHANNEL_PINS]
    cases += [(*case.values, str(tmp_path / case.id)) for case in OUTPUT_PINS if case.id != "beamform"]
    done = run_python(
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_output_digests import output_digests\n"
        f"print(json.dumps([output_digests(*case) for case in {cases!r}]))",
        GLIBC_TUNABLES="glibc.cpu.hwcaps=-FMA,-FMA4",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [pins for _, pins, _ in cases]


class TestImports:
    def test_cli_import_loads_no_command_modules(self):
        # numpy and pyexpat come only with the commands that use them;
        # dataclasses with none; inspect only with numpy; and the writer
        # modules only with _publish and _sha256_file, as `channels` writes no file.
        done = run_python(
            "import sys, wlansim.cli\n"
            "modules = ('numpy', 'pyexpat', 'dataclasses', 'inspect', 'datetime', 'hashlib', 'json')\n"
            "print(sorted(m for m in modules if m in sys.modules))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv,unloaded",
        [
            (["channels"], ["dataclasses"]),
            (["throughput", "--points", "5"], ["dataclasses", "numpy"]),
            (["coverage", str(DATA / "survey_mixed.csv")], ["dataclasses", "numpy", "pyexpat"]),
            (["beamform", "--iterations", "50"], ["dataclasses", "numpy.random"]),
        ],
        ids=["channels", "throughput", "coverage", "beamform"],
    )
    def test_run_loads_no_dataclasses(self, tmp_path, argv, unloaded):
        """Each command in a child of its own, which exits 0 without
        loading ``dataclasses``, nor ``numpy`` for throughput or CSV
        coverage, nor ``pyexpat`` for CSV coverage, nor ``numpy.random``
        for beamform."""
        out_dir = tmp_path / "out"
        out_args = [] if argv[0] == "channels" else ["--out", str(out_dir)]
        done = run_python(
            "import sys\n"
            "from wlansim.cli import main\n"
            f"code = main({[*argv, *out_args]!r})\n"
            f"print(code, [m for m in {unloaded!r} if m in sys.modules])"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"
        if argv[0] == "throughput":
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["python_version"] == sys.version.split()[0]
            assert "numpy_version" not in manifest
        if argv[0] == "coverage":
            assert (out_dir / "summaries.csv").exists()
