"""Byte pins of the default CLI outputs.

Each pin is the first 12 hex digits of the SHA-256 of one output of a
default run.  A refactor that claims identical outputs must leave every
pin as it is; a change that alters output bytes on purpose updates the
pin and says why.  ``manifest.json`` is not pinned, as it holds a
timestamp, but the output SHA-256s it records must agree with the pins.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wlansim.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


@pytest.mark.parametrize(
    "plan,pin",
    [("unii", "ef926975a820"), ("ism24", "6cb14c42d643")],
)
def test_channel_plan_stdout(capsys, plan, pin):
    assert main(["channels", "--plan", plan]) == EXIT_OK
    assert digest(capsys.readouterr().out.encode()) == pin


@pytest.mark.parametrize(
    "argv,pins",
    [
        pytest.param(["throughput"], {"throughput.csv": "d0a0dade24a5"}, id="throughput"),
        pytest.param(
            # 30 000 rows over all nine rates, 450.0 down to 0.0, from an
            # exponent-form first distance.
            ["throughput", "--standard", "n", "--streams", "3", "--width", "40", "--tx-eirp", "22.8",
             "--exponent", "2.75", "--min-distance", "5e-05", "--step", "0.0087", "--points", "30000"],
            {"throughput.csv": "eb0c76332886"},
            id="throughput-long",
        ),
        pytest.param(
            ["coverage", str(DATA / "survey.kml"), "--format", "kml"],
            {"summaries.csv": "07a6bd36ebdd", "interference.csv": "9ae65c5d1fee", "stderr": "2cc142289c07"},
            id="coverage-kml",
        ),
        pytest.param(
            ["coverage", str(DATA / "survey_mixed.csv")],
            {"summaries.csv": "c34fdc509419", "interference.csv": "bd93178648b0", "stderr": "e3b0c44298fc"},
            id="coverage-mixed",
        ),
        pytest.param(
            ["coverage", str(DATA / "survey_mixed.csv"), "--ap-lat", "51.8776", "--ap-lon", "0.9426", "--fit"],
            {"summaries.csv": "395d19668c49", "interference.csv": "bd93178648b0", "stdout": "824178fee50e"},
            id="coverage-fit",
        ),
        pytest.param(
            ["beamform"],
            {
                "trace.csv": "91264a0b92fd",
                "weights.csv": "7645d2691ca9",
                "pattern.csv": "dcfe6f52e039",
                "spectrum_before.csv": "1df6a835b0e7",
                "spectrum_after.csv": "228ea068066e",
                "stdout": "50e52a6ca78e",
            },
            id="beamform",
        ),
    ],
)
def test_default_output_files(tmp_path, capsys, argv, pins):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    streams = {"stdout": captured.out.encode(), "stderr": captured.err.encode()}
    got = {
        name: digest(streams[name] if name in streams else (tmp_path / name).read_bytes())
        for name in pins
    }
    assert got == pins
    recorded = json.loads((tmp_path / "manifest.json").read_text())["output_sha256"]
    assert all(recorded[name].startswith(pin) for name, pin in pins.items() if name not in streams)
