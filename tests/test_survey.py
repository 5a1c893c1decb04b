"""Tests for survey-log parsing, aggregation and path-loss fitting."""

import csv
import io
import random
import statistics
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    FIELD_NEAR_MISSES,
    interference_oracle,
    location_cell,
    survey_record_oracle,
    synth_fit_points,
)

import wlansim.survey
from wlansim.cli import _write_pairs, build_parser
from wlansim.channels import channel_by_id, overlap_fraction
from wlansim.survey import (
    CSV_COLUMNS,
    LOG_FORMATS,
    ApSummary,
    fit_path_loss,
    interference_report,
    parse_log,
    summarize,
)

KML_FIXTURE = Path(__file__).parent / "data" / "survey.kml"

AP_A = "00:11:22:33:44:55"
AP_B = "66:77:88:99:AA:BB"


def csv_line(t="2013-05-14T09:00:00Z", bssid=AP_A, ssid="eduroam", channel=1,
             rssi=-60.0, lat=51.8776, lon=0.9426):
    return f"{t},{bssid},{ssid},{channel},{rssi},{lat},{lon}"


def make_record(bssid=AP_A, ssid="eduroam", channel=1, rssi=-60.0, lat=51.8776, lon=0.9426):
    """A record as parse_log builds it: (t, bssid, ssid, channel_id, rssi_dbm, lat, lon)."""
    return ("2013-05-14T09:00:00Z", bssid, ssid, channel, rssi, lat, lon)


class TestCsvParsing:
    def test_well_formed_lines_roundtrip(self):
        text = "\n".join([csv_line(rssi=-60), csv_line(rssi=-61), csv_line(rssi=-62)])
        records, errors = parse_log(io.StringIO(text), "csv")
        assert errors == []
        # Order preserved; lat and lon are the record's last two fields.
        assert records == [make_record(rssi=rssi) for rssi in (-60.0, -61.0, -62.0)]

    def test_header_row_skipped(self):
        text = "t,bssid,ssid,channel,rssi_dbm,lat,lon\n" + csv_line()
        records, errors = parse_log(io.StringIO(text), "csv")
        assert len(records) == 1
        assert errors == []

    def test_positive_rssi_rejected_with_range_note(self):
        text = csv_line() + "\n" + csv_line(rssi="+10")
        records, errors = parse_log(io.StringIO(text), "csv")
        assert len(records) == 1
        assert len(errors) == 1
        lineno, message = errors[0]
        assert lineno == 2
        assert "range" in message or "-120" in message

    def test_bad_mac_rejected(self):
        text = csv_line() + "\n" + csv_line(bssid="not-a-mac")
        records, errors = parse_log(io.StringIO(text), "csv")
        assert len(records) == 1
        assert "MAC" in errors[0][1]

    def test_unknown_channel_rejected(self):
        text = csv_line() + "\n" + csv_line(channel=37)
        records, errors = parse_log(io.StringIO(text), "csv")
        assert len(records) == 1
        assert "channel" in errors[0][1]

    def test_wrong_column_count_reported_with_line_number(self):
        text = csv_line() + "\nonly,three,columns\n" + csv_line()
        records, errors = parse_log(io.StringIO(text), "csv")
        assert len(records) == 2
        assert errors[0][0] == 2

    @pytest.mark.parametrize(
        "lines,expected",
        [
            pytest.param(
                [csv_line(), csv_line(ssid='"two\nlines"'), csv_line(), "bad,row", csv_line()],
                [(5, "expected 7 columns, got 2")],
                id="after-a-two-line-record",
            ),
            pytest.param(
                [csv_line(), csv_line(ssid='"two\nlines",extra'), csv_line(rssi="+10")],
                [(2, "expected 7 columns, got 8"), (4, "rssi '+10' violates the [-120, 0] dBm range")],
                id="a-malformed-two-line-record",
            ),
        ],
    )
    def test_errors_name_the_physical_line_where_the_record_starts(self, lines, expected):
        records, errors = parse_log(io.StringIO("\n".join(lines) + "\n"), "csv")
        assert errors == expected
        assert len(records) == len(lines) - len(expected)

    def test_zero_valid_records_is_an_error(self):
        with pytest.raises(ValueError, match="no valid"):
            parse_log(io.StringIO("garbage,line\n"), "csv")

    def test_formats_come_from_one_table(self):
        (subparsers,) = (a for a in build_parser()._actions if a.dest == "command")
        (fmt,) = (a for a in subparsers.choices["coverage"]._actions if a.dest == "format")
        assert fmt.choices == list(LOG_FORMATS)


# Two good samples, one with padded fields.
GOOD_ROWS = [
    ("2013-05-14T09:00:00Z", AP_A, "eduroam", "1", "-60", "51.8776", "0.9426"),
    (" 09:00 ", f" {AP_B} ", " essex ", " 36 ", " -61.5 ", "-90", "180"),
]


@st.composite
def sample_rows(draw):
    """A good row with up to three of its fields replaced by near misses."""
    row = list(draw(st.sampled_from(GOOD_ROWS)))
    for i in sorted(draw(st.sets(st.integers(0, 6), max_size=3))):
        row[i] = draw(FIELD_NEAR_MISSES[i])
    return tuple(row)


@settings(max_examples=40)
@given(rows=st.lists(sample_rows(), min_size=1, max_size=8))
@example(rows=[(" t ", "00:11:22:33:44:gg", "s", "15", "+5", "91", "nan")])
@example(rows=[("t", AP_A, "s", "x", "nan", "91", "181"), ("t", "bad", "s", "0", "-200", "91", "0")])
def test_checks_match_the_record_object_oracle(rows):
    """Any seven-field rows: the same records, and the same (line, message)
    for each rejected row, as the check of record objects gave."""
    rows = [*rows, ("t", AP_A, "s", "1", "-60", "0", "0")]  # one good row, so the log parses
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    expected_records, expected_errors = [], []
    for lineno, row in enumerate(rows, start=2):  # the header is line 1
        try:
            expected_records.append(survey_record_oracle(*row))
        except ValueError as exc:
            expected_errors.append((lineno, str(exc)))
    assert parse_log(io.StringIO(out.getvalue()), "csv") == (expected_records, expected_errors)


class TestKmlParsing:
    def test_fixture_matches_hand_parsed_oracle(self):
        with open(KML_FIXTURE, "r", encoding="utf-8") as f:
            records, errors = parse_log(f, "kml")
        assert len(records) == 2
        t, bssid, ssid, channel_id, rssi_dbm, lat, lon = records[0]
        # Hand-extracted from tests/data/survey.kml.
        assert t == "2013-05-14T09:00:00Z"
        assert bssid == "00:1A:2B:3C:4D:5E"
        assert ssid == "eduroam"
        assert channel_id == 36
        assert rssi_dbm == -61.5
        assert lat == 51.8776
        assert lon == 0.9426

    def test_broken_placemark_reported(self):
        with open(KML_FIXTURE, "r", encoding="utf-8") as f:
            _, errors = parse_log(f, "kml")
        # The broken placemark starts on line 27 of the fixture.
        assert errors == [(27, "placemark missing fields: rssi_dbm")]

    def test_each_error_names_its_own_placemark_line(self):
        data = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>\n'
            for k, v in [("bssid", AP_A), ("ssid", "eduroam"), ("channel", "36")]
        )
        good = (
            f'<Placemark>\n{data}<Data name="rssi_dbm"><value>-61</value></Data>\n'
            "<Point><coordinates>0.9,51.8</coordinates></Point>\n</Placemark>\n"
        )
        bad = good.replace("-61", "+3")
        text = f"<kml>\n<Document>\n{good}\n\n{bad}</Document>\n</kml>\n"
        records, errors = parse_log(io.StringIO(text), "kml")
        assert len(records) == 1
        # kml, Document, a 7-line placemark and two blank lines come first.
        assert errors == [(12, "rssi '+3' violates the [-120, 0] dBm range")]
        assert text.splitlines()[11] == "<Placemark>"

    def test_multi_line_start_tag_is_numbered_where_it_closes(self):
        """The pull parser reports a start tag once its ``>`` is read, so a
        placemark whose start tag spans lines 3-4 is numbered 4."""
        fields = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>\n'
            for k, v in [("bssid", AP_A), ("ssid", "eduroam"), ("channel", "36"), ("rssi_dbm", "-61")]
        )
        point = "<Point><coordinates>0.9,51.8</coordinates></Point>\n</Placemark>\n"
        good = f"<Placemark>\n{fields}{point}"
        bad = f'<Placemark\n id="a">\n{fields.replace("-61", "+3")}{point}'
        text = f"<kml>\n<Document>\n{bad}{good}</Document>\n</kml>\n"
        records, errors = parse_log(io.StringIO(text), "kml")
        assert len(records) == 1
        assert errors == [(4, "rssi '+3' violates the [-120, 0] dBm range")]
        assert text.splitlines()[2:4] == ["<Placemark", ' id="a">']

    def test_not_xml_rejected(self):
        with pytest.raises(ValueError, match="KML"):
            parse_log(io.StringIO("this is not xml"), "kml")


class TestSummarize:
    def test_constant_group(self):
        records = [make_record(rssi=-58.0) for _ in range(25)]
        (summary,) = summarize(records)
        assert summary.mean_rssi_dbm == -58.0
        assert summary.stddev_rssi_dbm == 0.0
        assert summary.count == 25
        assert not summary.low_confidence

    def test_two_aps_interleaved(self):
        records = []
        for i in range(10):
            records.append(make_record(bssid=AP_A, rssi=-60))
            records.append(make_record(bssid=AP_B, ssid="essex", channel=6, rssi=-70))
        summaries = summarize(records)
        assert len(summaries) == 2
        by_bssid = {s.bssid: s for s in summaries}
        assert by_bssid[AP_A].count == 10
        assert by_bssid[AP_B].count == 10
        assert by_bssid[AP_B].mean_rssi_dbm == -70.0

    def test_twelve_locations_against_aggregation_oracle(self):
        rng = random.Random(17)
        records = []
        oracle: dict[float, list[float]] = {}
        for i in range(12):
            lat = 51.8776 + i * 3e-4  # ~33 m apart, distinct 1 m cells
            for _ in range(25):
                rssi = -50.0 - i - rng.random()
                records.append(make_record(rssi=round(rssi, 3), lat=lat))
                oracle.setdefault(lat, []).append(round(rssi, 3))
        summaries = summarize(records)
        assert len(summaries) == 12
        for s in summaries:
            key = min(oracle, key=lambda k: abs(k - s.lat))
            assert (s.cell_x, s.cell_y) == location_cell(key, 0.9426)
            assert s.count == 25
            assert s.mean_rssi_dbm == pytest.approx(statistics.mean(oracle[key]), abs=1e-9)
            assert s.stddev_rssi_dbm == pytest.approx(statistics.pstdev(oracle[key]), abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(5)
        records = [
            make_record(rssi=-50 - rng.random(), lat=51.8776 + (i % 3) * 3e-4)
            for i in range(60)
        ]
        # Tied on (t, rssi_dbm, lat, lon), apart in SSID and channel.
        records += [
            make_record(ssid=ssid, channel=channel, rssi=-70.0, lat=51.879)
            for ssid, channel in [("beta", 6), ("alpha", 1)]
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        summaries = summarize(records)
        assert summaries == summarize(shuffled) == summarize(records[::-1])
        # The earliest sample names the group, the rest of the record breaking the tie.
        assert [(s.ssid, s.channel) for s in summaries if s.lat == 51.879] == [("alpha", 1)]

    def test_low_confidence_flag(self):
        summaries = summarize([make_record() for _ in range(4)])
        assert summaries[0].low_confidence == 1

    def test_distance_from_ap_position(self):
        records = [make_record() for _ in range(5)]
        (summary,) = summarize(records, ap_position=(51.8776, 0.9426))
        assert summary.distance_m == pytest.approx(0.0, abs=1e-6)


class TestFitPathLoss:
    def test_exact_recovery_exponent_two(self):
        fit = fit_path_loss(synth_fit_points(2.0), 20.0)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.reference_loss_db == pytest.approx(40.0, abs=1e-9)
        assert fit.residual_rms_db == pytest.approx(0.0, abs=1e-9)

    def test_exact_recovery_exponent_2p7(self):
        fit = fit_path_loss(synth_fit_points(2.7), 20.0)
        assert fit.exponent == pytest.approx(2.7, abs=1e-9)

    def test_noisy_recovery_within_tolerance(self):
        fit = fit_path_loss(synth_fit_points(2.7, noise=2.0, seed=1), 20.0)
        assert fit.exponent == pytest.approx(2.7, abs=0.05)
        assert fit.sample_count == 50

    def test_equal_distances_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_path_loss([(5.0, -50.0), (5.0, -55.0)], 20.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="two"):
            fit_path_loss([(5.0, -50.0)], 20.0)


def summary_at(bssid, channel, lat, lon, rssi=-60.0, ssid="net"):
    cell_x, cell_y = location_cell(lat, lon)
    return ApSummary(
        bssid=bssid,
        ssid=ssid,
        channel=channel,
        cell_x=cell_x,
        cell_y=cell_y,
        lat=lat,
        lon=lon,
        mean_rssi_dbm=rssi,
        stddev_rssi_dbm=0.0,
        count=25,
        low_confidence=0,
    )


class Pair(NamedTuple):
    bssid_a: str
    bssid_b: str
    overlap: float
    co_located: int
    interferes: int


def report_pairs(summaries, threshold):
    """The report's per-AP blocks flattened to one row per AP pair."""
    return [Pair(a, b, *verdict) for a, block in interference_report(summaries, threshold) for b, verdict in block]


class TestInterferenceReport:
    def test_disjoint_channels_not_flagged(self):
        summaries = [
            summary_at(AP_A, 1, 51.8776, 0.9426),
            summary_at(AP_B, 11, 51.8776, 0.9426),
        ]
        (pair,) = report_pairs(summaries, -80.0)
        assert pair.overlap == 0.0
        assert pair.co_located
        assert not pair.interferes

    def test_cochannel_colocated_flagged(self):
        summaries = [
            summary_at(AP_A, 36, 51.8776, 0.9426),
            summary_at(AP_B, 36, 51.8776, 0.9426),
        ]
        (pair,) = report_pairs(summaries, -80.0)
        assert pair.overlap == 1.0
        assert pair.co_located
        assert pair.interferes

    def test_adjacent_channels_flagged_iff_colocated(self):
        near = [
            summary_at(AP_A, 1, 51.8776, 0.9426),
            summary_at(AP_B, 3, 51.8776, 0.9426),
        ]
        (pair,) = report_pairs(near, -80.0)
        assert pair.overlap == pytest.approx(12 / 22, abs=1e-12)
        assert pair.interferes
        far = [
            summary_at(AP_A, 1, 51.8776, 0.9426),
            summary_at(AP_B, 3, 51.9776, 0.9426),  # ~11 km away
        ]
        (pair,) = report_pairs(far, -80.0)
        assert pair.overlap == pytest.approx(12 / 22, abs=1e-12)
        assert not pair.interferes

    def test_overlap_agrees_with_channel_plan(self):
        summaries = [
            summary_at(AP_A, 2, 51.8776, 0.9426),
            summary_at(AP_B, 5, 51.8776, 0.9426),
        ]
        (pair,) = report_pairs(summaries, -80.0)
        expected = overlap_fraction(
            channel_by_id(2), channel_by_id(5)
        )
        assert pair.overlap == expected

    def test_cross_plan_pair_has_zero_overlap(self):
        summaries = [
            summary_at(AP_A, 1, 51.8776, 0.9426),
            summary_at(AP_B, 36, 51.8776, 0.9426),
        ]
        (pair,) = report_pairs(summaries, -80.0)
        assert pair.overlap == 0.0
        assert pair.co_located
        assert not pair.interferes

    def test_weak_coverage_not_colocated(self):
        summaries = [
            summary_at(AP_A, 1, 51.8776, 0.9426, rssi=-85.0),
            summary_at(AP_B, 1, 51.8776, 0.9426, rssi=-60.0),
        ]
        (pair,) = report_pairs(summaries, -80.0)
        assert not pair.co_located

    def test_overlap_computed_once_per_channel_pair(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a.id, b.id))
            return overlap_fraction(a, b)

        monkeypatch.setattr(wlansim.survey, "overlap_fraction", counted)
        channels = [1, 6, 36, 40]
        summaries = [
            summary_at(f"00:11:22:33:44:{k:02X}", channels[k % len(channels)], 51.8776, 0.9426)
            for k in range(40)
        ]
        assert len(report_pairs(summaries, -80.0)) == 40 * 39 // 2
        assert len(calls) <= len(channels) ** 2


MACS = [f"00:11:22:33:44:{k:02X}" for k in range(6)]


def summary_in_cell(bssid, channel, cell, rssi):
    return ApSummary(
        bssid=bssid, ssid="net", channel=channel, cell_x=cell[0], cell_y=cell[1], lat=0.0, lon=0.0,
        mean_rssi_dbm=rssi, stddev_rssi_dbm=0.0, count=5, low_confidence=0,
    )


summary_lists = st.lists(
    st.builds(
        summary_in_cell,
        bssid=st.sampled_from(MACS),
        channel=st.sampled_from([1, 2, 6, 11, 14, 36, 40, 64, 149]),
        cell=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        rssi=st.sampled_from([-90.0, -80.0, -70.0]),
    ),
    min_size=1,
    max_size=24,
)


thresholds = st.sampled_from([-85.0, -80.0, -75.0])


@given(summaries=summary_lists, threshold=thresholds)
@example(
    # Mixed plans, a tie between channels 6 and 1 (1 wins), and an AP with no covered cell.
    summaries=[
        summary_in_cell(MACS[0], 6, (0, 0), -70.0),
        summary_in_cell(MACS[0], 1, (0, 1), -70.0),
        summary_in_cell(MACS[1], 3, (0, 1), -70.0),
        summary_in_cell(MACS[2], 36, (0, 1), -70.0),
        summary_in_cell(MACS[3], 1, (0, 0), -90.0),
    ],
    threshold=-80.0,
)
def test_report_matches_per_pair_oracle(summaries, threshold):
    assert report_pairs(summaries, threshold) == interference_oracle(summaries, threshold)


@settings(max_examples=100)
@given(summaries=summary_lists, threshold=thresholds)
def test_rendered_report_matches_csv_writer_over_the_oracle(summaries, threshold):
    got = io.StringIO()
    _write_pairs(got, interference_report(summaries, threshold))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["bssid_a", "bssid_b", "overlap", "co_located", "interferes"])
    writer.writerows(
        (a, b, overlap, int(co_located), int(interferes))
        for a, b, overlap, co_located, interferes in interference_oracle(summaries, threshold)
    )
    assert got.getvalue() == expected.getvalue()
