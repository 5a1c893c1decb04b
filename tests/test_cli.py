"""End-to-end tests of the command-line interface."""

import json
import math
import re
from pathlib import Path

import pytest

import wlansim
from wlansim.arrays import default_scenario
from wlansim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from wlansim.propagation import EARTH_RADIUS_M
from wlansim.spectrum import dft_magnitude

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
                [dict(src, role="desired") for src in default_scenario().to_dict()["sources"]],
                "sources[1].role",
                id="second-desired-source",
            ),
        ],
    )
    def test_bad_numerics_exit_1_and_create_no_outputs(self, tmp_path, capsys, field, value, named):
        data = default_scenario().to_dict()
        data[field] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))  # writes NaN / Infinity literals
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["beamform", "--scenario", str(scenario), "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert named in err
        assert not out_dir.exists()

    def test_each_spectrum_is_transformed_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dft_magnitude(*args, **kwargs)

        monkeypatch.setattr(wlansim.cli, "dft_magnitude", counted)
        monkeypatch.setattr(wlansim.spectrum, "dft_magnitude", counted)
        assert run_cli(["beamform", "--out", str(tmp_path)], capsys)[0] == EXIT_OK
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_exits_1_naming_seed(self, tmp_path, capsys, seed):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["beamform", "--out", str(out_dir), "--iterations", "50", "--seed", seed], capsys)
        assert code == EXIT_VALIDATION
        assert "seed" in err
        assert not out_dir.exists()

    def test_failed_summary_leaves_no_outputs(self, tmp_path, capsys):
        data = default_scenario().to_dict()
        data["noise_power"] = 0.0
        for source in data["sources"]:
            source["amplitude"] = 0.0  # a silent array: the suppression report has no reference
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["beamform", "--scenario", str(scenario), "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert "zero magnitude" in err
        assert not out_dir.exists()

    def test_zero_step_size_summary_is_finite(self, tmp_path, capsys):
        data = default_scenario().to_dict()
        data["step_size"] = 0.0  # weights stay zero: every array gain is -inf
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        code, out, _ = run_cli(["beamform", "--scenario", str(scenario), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert "nan" not in out and "inf" not in out
        values = re.findall(r"=(\S+)", out)
        assert values and all(math.isfinite(float(v)) for v in values)

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli(["beamform", "--out", str(dir_a)], capsys)[0] == EXIT_OK
        assert run_cli(["beamform", "--out", str(dir_b)], capsys)[0] == EXIT_OK
        for name in BEAMFORM_OUTPUTS:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_failed_write_leaves_no_partial_set(self, tmp_path, capsys, monkeypatch):
        def failing(result, out):
            out.write("frequency_bin,")
            raise OSError("disk full")

        earlier, fresh = tmp_path / "earlier", tmp_path / "fresh"
        assert run_cli(["beamform", "--iterations", "300", "--seed", "1", "--out", str(earlier)], capsys)[0] == EXIT_OK
        complete_set = {p.name: p.read_bytes() for p in earlier.iterdir()}
        # The spectra are written after trace, weights and pattern: a failure mid-set.
        monkeypatch.setattr(wlansim.cli, "spectrum_to_csv", failing)
        for out_dir in (earlier, fresh):
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

    def test_missing_scenario_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["beamform", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_IO
        assert "I/O" in err

    def test_output_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WLANSIM_OUTPUT_DIR", str(tmp_path / "env_out"))
        code, _, _ = run_cli(["beamform", "--iterations", "50"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "trace.csv").exists()


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

    def test_empty_file_exits_nonzero(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("")
        code, _, err = run_cli(["coverage", str(log), "--out", str(tmp_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "no valid" in err

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
            (["--fit", "--tx-eirp", "nan"], "tx_eirp_dbm"),
            (["--fit", "--tx-eirp", "inf"], "tx_eirp_dbm"),
            (["--coverage-threshold", "nan"], "coverage_threshold_dbm"),
        ],
        ids=["fit-tx-eirp-nan", "fit-tx-eirp-inf", "coverage-threshold-nan"],
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

    def test_malformed_line_count_reported(self, tmp_path, capsys):
        log = tmp_path / "survey.csv"
        write_survey_csv(log)
        with open(log, "a") as f:
            f.write("bad,line\n")
        code, out, err = run_cli(["coverage", str(log), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        assert "1 malformed" in out
        assert "line 32" in err


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
        "flag,value,named",
        [
            ("--tx-eirp", "nan", "tx_eirp_dbm"),
            ("--exponent", "nan", "exponent"),
            ("--frequency", "nan", "frequency"),
            ("--frequency", "inf", "frequency"),
            ("--min-distance", "inf", "distances"),
            ("--step", "nan", "distances"),
        ],
    )
    def test_non_finite_input_exits_1_and_creates_no_outputs(self, tmp_path, capsys, flag, value, named):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["throughput", flag, value, "--points", "3", "--out", str(out_dir)], capsys)
        assert code == EXIT_VALIDATION
        assert named in err
        assert not out_dir.exists()

    def test_default_sweep_is_monotone(self, tmp_path, capsys):
        code, _, _ = run_cli(["throughput", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        rows = (tmp_path / "throughput.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 30
        rates = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
