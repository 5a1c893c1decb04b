"""Tests for survey-log parsing, aggregation and path-loss fitting."""

import csv
import io
import random
import statistics
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    FIELD_NEAR_MISSES,
    interference_oracle,
    kml_rows_oracle,
    location_cell,
    survey_record_oracle,
    synth_fit_points,
)

import wlansim.survey
from wlansim.cli import _curve_lines, _pair_lines, _summary_lines, _write_lines, build_parser
from wlansim.channels import channel_by_id, overlap_fraction
from wlansim.survey import (
    CSV_COLUMNS,
    LOG_FORMATS,
    ApSummary,
    _kml_rows,
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


def parse(stream, fmt):
    """``parse_log``'s records, read to the end, and its skipped samples."""
    records, errors = parse_log(stream, fmt)
    return list(records), errors


class TestCsvParsing:
    def test_well_formed_lines_roundtrip(self):
        text = "\n".join([csv_line(rssi=-60), csv_line(rssi=-61), csv_line(rssi=-62)])
        records, errors = parse(io.StringIO(text), "csv")
        assert errors == []
        # Order preserved; lat and lon are the record's last two fields.
        assert records == [make_record(rssi=rssi) for rssi in (-60.0, -61.0, -62.0)]

    def test_header_row_skipped(self):
        text = "t,bssid,ssid,channel,rssi_dbm,lat,lon\n" + csv_line()
        records, errors = parse(io.StringIO(text), "csv")
        assert len(records) == 1
        assert errors == []

    def test_positive_rssi_rejected_with_range_note(self):
        text = csv_line() + "\n" + csv_line(rssi="+10")
        records, errors = parse(io.StringIO(text), "csv")
        assert len(records) == 1
        assert len(errors) == 1
        lineno, message = errors[0]
        assert lineno == 2
        assert "range" in message or "-120" in message

    def test_bad_mac_rejected(self):
        text = csv_line() + "\n" + csv_line(bssid="not-a-mac")
        records, errors = parse(io.StringIO(text), "csv")
        assert len(records) == 1
        assert "MAC" in errors[0][1]

    def test_unknown_channel_rejected(self):
        text = csv_line() + "\n" + csv_line(channel=37)
        records, errors = parse(io.StringIO(text), "csv")
        assert len(records) == 1
        assert "channel" in errors[0][1]

    def test_wrong_column_count_reported_with_line_number(self):
        text = csv_line() + "\nonly,three,columns\n" + csv_line()
        records, errors = parse(io.StringIO(text), "csv")
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
        records, errors = parse(io.StringIO("\n".join(lines) + "\n"), "csv")
        assert errors == expected
        assert len(records) == len(lines) - len(expected)

    def test_formats_come_from_one_table(self):
        (subparsers,) = (a for a in build_parser()._actions if a.dest == "command")
        (fmt,) = (a for a in subparsers.choices["coverage"]._actions if a.dest == "format")
        assert fmt.choices == list(LOG_FORMATS)


class TestSharedTexts:
    def test_equal_texts_share_one_object(self):
        texts = [
            ("09:00", AP_A, "eduroam", "-60.5"),
            (" 09:00 ", f" {AP_B} ", "guest", "-61.5"),
            ("-60.5", AP_A, " eduroam", "-60.5"),
            ("09:01", f"{AP_B} ", "guest ", "-61.5"),
            ("09:00", AP_A, "eduroam", " -60.5 "),
        ]
        text = "\n".join(csv_line(t=t, bssid=b, ssid=s, rssi=r) for t, b, s, r in texts)
        records, errors = parse(io.StringIO(text), "csv")
        assert errors == []
        # A t text equal to an RSSI text stays a str beside its float.
        assert records[2][:5] == ("-60.5", AP_A, "eduroam", 1, -60.5)
        for field in (0, 1, 2, 4):  # t, bssid, ssid, rssi_dbm
            # Every record holds the object of the first record equal to it there.
            first = {}
            for rec in records:
                assert rec[field] is first.setdefault(rec[field], rec[field])

    @pytest.mark.parametrize(
        "lines,expected",
        [
            pytest.param(
                [csv_line(rssi=-60.5), csv_line(channel="x", rssi=-60.5)],
                [(2, "invalid literal for int() with base 10: 'x'")],
                id="accepted-bssid-and-rssi-then-bad-channel",
            ),
            pytest.param(
                [csv_line(bssid="00:11:22:33:44"), csv_line(), csv_line(bssid="00:11:22:33:44")],
                [(1, "invalid MAC address '00:11:22:33:44'"), (3, "invalid MAC address '00:11:22:33:44'")],
                id="bad-mac-twice",
            ),
            pytest.param(
                [csv_line(rssi="nan"), csv_line(), csv_line(rssi="nan")],
                [(1, "rssi nan dBm outside [-120.0, 0.0]"), (3, "rssi nan dBm outside [-120.0, 0.0]")],
                id="nan-rssi-twice",
            ),
            pytest.param(
                [csv_line(rssi="+5"), csv_line(), csv_line(rssi="+5")],
                [(1, "rssi '+5' violates the [-120, 0] dBm range"), (3, "rssi '+5' violates the [-120, 0] dBm range")],
                id="plus-rssi-twice",
            ),
        ],
    )
    def test_repeated_texts_report_their_first_failing_check(self, lines, expected):
        records, errors = parse(io.StringIO("\n".join(lines) + "\n"), "csv")
        assert errors == expected
        assert len(records) == len(lines) - len(expected)


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
    assert parse(io.StringIO(out.getvalue()), "csv") == (expected_records, expected_errors)


class TestKmlParsing:
    def test_fixture_matches_hand_parsed_oracle(self):
        with open(KML_FIXTURE, "r", encoding="utf-8") as f:
            records, errors = parse(f, "kml")
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
            _, errors = parse(f, "kml")
        # The broken placemark starts on line 27 of the fixture.
        assert errors == [(27, "placemark missing fields: rssi_dbm")]

    def test_each_error_names_its_own_placemark_line(self):
        data = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>\n'
            for k, v in [("bssid", AP_A), ("ssid", "eduroam"), ("channel", "36")]
        )
        good = (
            f'<Placemark>\n{data}<Data name="rssi_dbm"><value>-61</value></Data>\n'
            "<TimeStamp><when>t0</when></TimeStamp><Point><coordinates>0.9,51.8</coordinates></Point>\n"
            "</Placemark>\n"
        )
        bad = good.replace("-61", "+3")
        text = f"<kml>\n<Document>\n{good}\n\n{bad}</Document>\n</kml>\n"
        records, errors = parse(io.StringIO(text), "kml")
        assert len(records) == 1
        # kml, Document, a 7-line placemark and two blank lines come first.
        assert errors == [(12, "rssi '+3' violates the [-120, 0] dBm range")]
        assert text.splitlines()[11] == "<Placemark>"

    def test_multi_line_start_tag_is_numbered_where_it_starts(self):
        """A placemark whose start tag spans lines 3-4 is numbered 3, as a
        CSV record whose quoted field spans lines is numbered by its first."""
        fields = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>\n'
            for k, v in [("bssid", AP_A), ("ssid", "eduroam"), ("channel", "36"), ("rssi_dbm", "-61")]
        )
        point = (
            "<TimeStamp><when>t0</when></TimeStamp><Point><coordinates>0.9,51.8</coordinates></Point>\n"
            "</Placemark>\n"
        )
        good = f"<Placemark>\n{fields}{point}"
        bad = f'<Placemark\n id="a">\n{fields.replace("-61", "+3")}{point}'
        text = f"<kml>\n<Document>\n{bad}{good}</Document>\n</kml>\n"
        records, errors = parse(io.StringIO(text), "kml")
        assert len(records) == 1
        assert errors == [(3, "rssi '+3' violates the [-120, 0] dBm range")]
        assert text.splitlines()[2:4] == ["<Placemark", ' id="a">']

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_ends_are_counted_across_blocks(self, end):
        """The CLI opens a log with newline="", so expat meets CR and CRLF
        as written, and a block may end between a CR and its LF."""
        text = end.join(["<kml>", "<Document>", "", f"<Placemark>{SAMPLE_FIELDS}</Placemark>", "</Document></kml>", ""])
        for cap in (1, 2, 3, 64):
            rows, message = read_rows(_kml_rows, text, cap)
            assert ([line for line, _ in rows], message) == ([4], None)

    def test_placemark_without_timestamp_is_refused(self):
        """A placemark must carry its TimeStamp/when, as a CSV row must
        carry its ``t`` column; an empty ``<when/>`` reads "", as an empty
        ``<value/>`` does."""
        fields = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>\n'
            for k, v in [("bssid", AP_A), ("ssid", "e"), ("channel", "1"), ("rssi_dbm", "-60")]
        )
        point = "<Point><coordinates>0.9,51.8</coordinates></Point>\n"
        placemarks = "".join(
            f"<Placemark>\n{fields}{when}{point}</Placemark>\n" for when in ["", "<TimeStamp><when/></TimeStamp>\n"]
        )
        records, errors = parse(io.StringIO(f"<kml>\n<Document>\n{placemarks}</Document>\n</kml>\n"), "kml")
        assert errors == [(3, "placemark missing fields: t")]
        assert records == [("", AP_A, "e", 1, -60.0, 51.8, 0.9)]

    def test_nested_placemark_is_read_by_its_parent_too(self):
        """A placemark inside a placemark is a sample of its own, and its
        fields, read after the parent's own, are the parent's too."""

        def fields(ssid, when):
            data = "".join(
                f'<Data name="{k}"><value>{v}</value></Data>'
                for k, v in [("bssid", AP_A), ("ssid", ssid), ("channel", "1"), ("rssi_dbm", "-60")]
            )
            return f"{data}<TimeStamp><when>{when}</when></TimeStamp>"

        inner = f"<Placemark>{fields('inner', 't1')}<Point><coordinates>0.9,51.8</coordinates></Point></Placemark>\n"
        text = f"<kml>\n<Placemark>{fields('outer', 't0')}\n{inner}</Placemark>\n</kml>\n"
        records, errors = parse(io.StringIO(text), "kml")
        assert errors == []
        assert records == [("t1", AP_A, "inner", 1, -60.0, 51.8, 0.9)] * 2
        # The outer placemark as the document's root.
        root = text.removeprefix("<kml>\n").removesuffix("</kml>\n")
        assert parse(io.StringIO(root), "kml") == (records, [])

    def test_placemarks_are_freed_once_read(self, tmp_path):
        # 3 000 one-line placemarks, whose whole parsed document would take over 8 MiB.
        data = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>'
            for k, v in [("bssid", AP_A), ("ssid", "e"), ("channel", "1"), ("rssi_dbm", "-60")]
        )
        log = tmp_path / "survey.kml"
        log.write_text(
            "<kml><Document>\n"
            + "".join(
                f"<Placemark><ExtendedData>{data}</ExtendedData><TimeStamp><when>t{k}</when></TimeStamp>"
                "<Point><coordinates>0.9,51.8</coordinates></Point></Placemark>\n"
                for k in range(3000)
            )
            + "</Document></kml>\n"
        )
        with open(log, encoding="utf-8") as f:
            tracemalloc.start()
            try:
                records, errors = parse_log(f, "kml")
                count = sum(1 for _ in records)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (count, errors) == (3000, [])
        assert peak < 2 * 2**20, peak

    def test_read_placemarks_leave_nothing_behind(self):
        """The traced peak does not grow with the number of placemarks: a
        read placemark leaves nothing behind.  Even ~80 B left per
        placemark would more than triple the 1 000-placemark peak at
        10 000."""
        data = "".join(
            f'<Data name="{k}"><value>{v}</value></Data>'
            for k, v in [("bssid", AP_A), ("ssid", "e"), ("channel", "1"), ("rssi_dbm", "-60")]
        )
        # Equal fields, so the record memos hold one entry whatever the count.
        placemark = f"<Placemark>{data}<when>t</when><coordinates>0.9,51.8</coordinates></Placemark>\n"

        def peak(count):
            log = io.StringIO(f"<kml><Document>\n{placemark * count}</Document></kml>\n")
            tracemalloc.start()
            try:
                records, errors = parse_log(log, "kml")
                read = sum(1 for _ in records)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (read, errors) == (count, [])
            return peak

        peak(10)  # the parser's one-time allocations
        small, large = peak(1_000), peak(10_000)
        assert large < 1.2 * small, (small, large)

    def test_a_one_line_document_yields_its_first_row_after_one_block(self):
        """The reader feeds expat blocks of at most 64 Ki characters, so a
        one-line document of 10 000 placemarks, about 3 MB, is not read
        whole before its first row."""
        log = io.StringIO(f"<kml><Document>{f'<Placemark>{SAMPLE_FIELDS}</Placemark>' * 10_000}</Document></kml>")
        records, errors = parse_log(log, "kml")
        assert next(records) == ("t0", AP_A, "e", 1, -60.0, 51.8, 0.9)
        assert log.tell() <= 65_536, log.tell()

    def test_not_xml_rejected(self):
        with pytest.raises(ValueError, match="KML"):
            parse(io.StringIO("this is not xml"), "kml")

    def test_deep_nesting_is_read_in_linear_time(self):
        """Placemarks nested 8 000 deep, one sample whose fields every
        enclosing placemark reads too, in a document under 200 KB: each
        placemark walking its descendants would take time quadratic in the
        depth, about 5 s."""
        depth = 8000
        text = f"<kml>{'<Placemark>' * depth}{SAMPLE_FIELDS}{'</Placemark>' * depth}</kml>\n"
        assert len(text) < 200_000
        began = time.perf_counter()
        records, errors = parse(io.StringIO(text), "kml")
        elapsed = time.perf_counter() - began
        assert (records, errors) == ([("t0", AP_A, "e", 1, -60.0, 51.8, 0.9)] * depth, [])
        assert elapsed < 1.0, elapsed

    def test_the_last_field_element_to_close_wins(self):
        """A ``Data`` inside a ``Data`` lies outside the KML 2.2 schema.  Its
        ``value`` closes before the outer one's, so the outer one wins; a
        walk of the placemark by start tag reads the inner one."""
        data = '<Data name="t"><Data name="t"><value>A</value></Data><value>B</value></Data>'
        text = f"<kml><Placemark>{data}{SAMPLE_FIELDS.replace('<when>t0</when>', '')}</Placemark></kml>\n"
        assert parse(io.StringIO(text), "kml") == ([("B", AP_A, "e", 1, -60.0, 51.8, 0.9)], [])
        assert read_rows(kml_rows_oracle, text)[0][0][1][0] == "A"


# The fields of one valid sample, at t0, as a placemark's children.
SAMPLE_FIELDS = (
    "".join(
        f'<Data name="{k}"><value>{v}</value></Data>'
        for k, v in [("bssid", AP_A), ("ssid", "e"), ("channel", "1"), ("rssi_dbm", "-60")]
    )
    + "<TimeStamp><when>t0</when></TimeStamp><Point><coordinates>0.9,51.8</coordinates></Point>"
)


class CappedReads(io.StringIO):
    """A text stream whose ``read(n)`` returns at most ``cap`` characters,
    so a reader fed from it meets tags, texts, CDATA, comments and entities
    split across blocks."""

    def __init__(self, text, cap):
        super().__init__(text)
        self.cap = cap

    def read(self, size=-1):
        return super().read(self.cap if size is None or size < 0 else min(size, self.cap))


def read_rows(reader, text, cap=None):
    """The rows a KML row reader yields from ``text``, read at most ``cap``
    characters at a time if given, and the message of the error that ends
    them, or None."""
    rows = []
    try:
        for row in reader(io.StringIO(text) if cap is None else CappedReads(text, cap)):
            rows.append(row)
    except ValueError as exc:
        return rows, str(exc)
    return rows, None


KML_NAMESPACES = 'xmlns="http://www.opengis.net/kml/2.2" xmlns:kml="http://www.opengis.net/kml/2.2"'
# Field texts, valid ones among them, with an entity, CDATA, a comment and a
# line break in some; None stands for an empty element, such as <value/>.
KML_TEXTS = st.sampled_from(
    [None, "", "t0", "t1", AP_A, "e", "1", "36", "-60", " -61 ", "a&amp;b", "<![CDATA[x<y]]>", "a<!-- c -->b", "a\nb"]
)
KML_COORDINATES = st.sampled_from(
    [None, "", "0.9,51.8", " 0.9 , 51.8 ,10 ", "0.9", "1,2,3", "0.9<!-- c -->,51.8", "<![CDATA[0.9,51.8]]>", "x,y"]
)
KML_GAPS = st.sampled_from(["", "\n", " \n  "])
KML_KINDS = ["Placemark", "Folder", "sample", "ExtendedData", "Data", "TimeStamp", "Point", "comment"]


@st.composite
def kml_documents(draw):
    """KML documents in the schema's shape, where ``value``, ``when`` and
    ``coordinates`` hold text only: placemarks nested in placemarks and
    folders, each tag ``kml:``-prefixed or not, ``ExtendedData``,
    ``TimeStamp`` and ``Point`` around the fields, empty and missing
    fields, line breaks between tags, and the document cut at any offset."""

    def element(name, content, attributes=""):
        tag = draw(st.sampled_from([name, f"kml:{name}"]))
        return f"<{tag}{attributes}/>" if content is None else f"<{tag}{attributes}>{content}</{tag}>"

    def data(name):
        return element("Data", element("value", draw(KML_TEXTS)), f' name="{name}"')

    def when():
        return element("TimeStamp", element("when", draw(KML_TEXTS)))

    def point():
        return element("Point", element("coordinates", draw(KML_COORDINATES)))

    def content(depth):
        parts = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(KML_KINDS if depth < 3 else KML_KINDS[3:]))
            if kind in ("Placemark", "Folder"):
                parts.append(element(kind, content(depth + 1)))
            elif kind == "sample":  # a placemark with every field, or all but one, and other content
                fields = [*map(data, CSV_COLUMNS[1:5]), when(), point()]
                short = draw(st.integers(0, 2 * len(fields) - 1))  # no field short half the time
                del fields[short : short + 1]
                fields.append(content(depth + 1))
                parts.append(element("Placemark", draw(KML_GAPS).join(draw(st.permutations(fields)))))
            elif kind == "ExtendedData":
                names = st.sampled_from([*CSV_COLUMNS, "x"])
                parts.append(element(kind, "".join(data(draw(names)) for _ in range(draw(st.integers(0, 2))))))
            elif kind == "Data":
                parts.append(data(draw(st.sampled_from(CSV_COLUMNS))))
            elif kind == "TimeStamp":
                parts.append(when())
            elif kind == "Point":
                parts.append(point())
            else:
                parts.append("<!-- a\ncomment -->")
            parts.append(draw(KML_GAPS))
        return "".join(parts)

    document = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n']))
    document += element("kml", "\n" + content(0), " " + KML_NAMESPACES) + "\n"
    if draw(st.integers(0, 3)) == 0:
        document = document[: draw(st.integers(0, len(document)))]
    return document


@settings(max_examples=100, deadline=None)
@given(document=kml_documents(), cap=st.sampled_from([1, 2, 3, 7, 64]))
def test_kml_rows_match_the_element_tree_oracle(document, cap):
    """On documents in the schema's shape the expat reader yields the rows,
    and ends with the error text, of the element-tree reader it replaced,
    however short the blocks its stream gives it."""
    assert read_rows(_kml_rows, document, cap) == read_rows(kml_rows_oracle, document)


@pytest.mark.parametrize(
    "document",
    [
        pytest.param("", id="empty"),
        pytest.param("x", id="not-xml"),
        pytest.param("<kml>&foo;</kml>", id="undefined-entity"),
        pytest.param("<kml>\n<Folder></Placemark>\n</kml>", id="mismatched-tag-on-line-2"),
        pytest.param("<kml/>\njunk", id="junk-after-the-root"),
        pytest.param("<kml><k:Placemark/></kml>", id="unbound-prefix"),
        pytest.param('<kml><Data name="a" name="b"/></kml>', id="duplicate-attribute"),
        pytest.param('<!DOCTYPE kml SYSTEM "x.dtd">\n<kml>&foo;</kml>', id="entity-under-an-external-subset"),
        pytest.param('<!DOCTYPE kml [<!ENTITY e SYSTEM "e.xml">]>\n<kml>&e;</kml>', id="declared-external-entity"),
        pytest.param(f'<!DOCTYPE kml SYSTEM "x.dtd">\n<kml>&{"é" * 60};</kml>', id="entity-named-past-100-bytes"),
        pytest.param(f"<kml><Placemark>{SAMPLE_FIELDS}</Placemark><Folder></kml>", id="rows-before-the-error"),
    ],
)
def test_kml_errors_read_as_the_element_tree_oracle_reads_them(document):
    rows, message = read_rows(_kml_rows, document)
    assert message is not None
    assert (rows, message) == read_rows(kml_rows_oracle, document)


# Records of two APs over a few 1 m cells, so that groups hold several samples.
record_lists = st.lists(
    st.builds(
        make_record,
        bssid=st.sampled_from([AP_A, AP_B]),
        ssid=st.sampled_from(["a", "b"]),
        channel=st.sampled_from([1, 6, 36]),
        rssi=st.floats(-120.0, 0.0),
        lat=st.floats(51.8776, 51.87762),
        lon=st.floats(0.9426, 0.94263),
    ),
    min_size=1,
    max_size=30,
)


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
        assert summaries == summarize(shuffled) == summarize(records[::-1]) == summarize(iter(records))
        # The earliest sample names the group, the rest of the record breaking the tie.
        assert [(s.ssid, s.channel) for s in summaries if s.lat == 51.879] == [("alpha", 1)]

    @settings(max_examples=100)
    @given(records=record_lists)
    def test_replicated_records_change_only_the_counts(self, records):
        """Every sum is correctly rounded, and two copies of each term
        double the exact sum, so the means, spreads and positions are the
        same bit for bit; only ``count`` doubles, and ``low_confidence``
        may clear."""
        for ap_position in (None, (51.87761, 0.94261)):
            once = summarize(records, ap_position=ap_position)
            twice = summarize(records + records, ap_position=ap_position)
            assert [s._replace(count=0, low_confidence=0) for s in twice] == [
                s._replace(count=0, low_confidence=0) for s in once
            ]
            assert [s.count for s in twice] == [2 * s.count for s in once]

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

    def test_fit_is_bit_identical_under_permutations(self):
        # Every sum is correctly rounded, so the order of the points changes no bit.
        points = synth_fit_points(2.7, noise=6.0, seed=3, count=400)
        expected = fit_path_loss(points, 20.0)
        rng = random.Random(11)
        for order in [points[::-1], *(rng.sample(points, len(points)) for _ in range(5))]:
            assert fit_path_loss(order, 20.0) == expected

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
    return [
        Pair(a, b, *verdict)
        for a, later, verdicts in interference_report(summaries, threshold)
        for b, verdict in zip(later, verdicts, strict=True)
    ]


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


PAIR_HEADER = ["bssid_a", "bssid_b", "overlap", "co_located", "interferes"]


def rendered_report(summaries, threshold):
    """``interference.csv`` as ``coverage`` writes it, one write per AP."""
    out = io.StringIO()
    _write_lines(out, (PAIR_HEADER, _pair_lines(interference_report(summaries, threshold))))
    return out.getvalue()


def oracle_report(summaries, threshold):
    """The oracle's pairs as ``csv.writer`` writes them."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(PAIR_HEADER)
    writer.writerows(
        (a, b, overlap, int(co_located), int(interferes))
        for a, b, overlap, co_located, interferes in interference_oracle(summaries, threshold)
    )
    return out.getvalue()


@settings(max_examples=100)
@given(summaries=summary_lists, threshold=thresholds)
def test_rendered_report_matches_csv_writer_over_the_oracle(summaries, threshold):
    assert rendered_report(summaries, threshold) == oracle_report(summaries, threshold)


@pytest.mark.parametrize(
    "cells",
    [
        # MACS[0] is near MACS[1] and MACS[4], its first and last later AP
        # (bit 0 and the top bit), and MACS[1] is near MACS[4], its last.
        pytest.param([(0, 0), (0, 0), (1, 1), (2, 2), (0, 0)], id="near-at-first-and-last-later-ap"),
        pytest.param([(0, 0)] * 6, id="every-ap-in-one-cell"),
        pytest.param([(k, k) for k in range(6)], id="no-ap-co-located"),
        pytest.param([(0, 0)], id="a-single-ap"),
    ],
)
def test_report_blocks_match_the_oracle_at_their_edges(cells):
    channels = [1, 6, 1, 3, 11, 36]
    summaries = [summary_in_cell(MACS[k], channels[k], cell, -70.0) for k, cell in enumerate(cells)]
    expected = interference_oracle(summaries, -80.0)
    assert report_pairs(summaries, -80.0) == expected
    assert len(expected) == len(cells) * (len(cells) - 1) // 2
    assert rendered_report(summaries, -80.0) == oracle_report(summaries, -80.0)
    if len(cells) == 1:
        assert rendered_report(summaries, -80.0) == ",".join(PAIR_HEADER) + "\r\n"


@pytest.mark.parametrize(
    "header,texts",
    [
        pytest.param(
            PAIR_HEADER,
            lambda: _pair_lines(interference_report(
                [summary_in_cell(MACS[k], channel, (0, 0), -70.0) for k, channel in enumerate([1, 6, 1, 36])],
                -80.0,
            )),
            id="pairs-of-4-aps",
        ),
        pytest.param(
            ["distance_m", "rate_mbps", "snr_db"],
            lambda: _curve_lines((float(d), 6.5 * (d % 3), 30.0 - d) for d in range(1, 21)),
            id="curve-of-20-points",
        ),
    ],
)
def test_each_write_is_one_text_the_table_yielded(header, texts):
    # An AP's pair text can hold a line per AP, so joining texts would make
    # a write as large as the whole table.
    yielded = []

    def kept():
        for text in texts():
            yielded.append(text)
            yield text

    writes = []  # each object the stream's write is given
    _write_lines(SimpleNamespace(write=writes.append), (header, kept()))
    assert writes[0] == ",".join(header) + "\r\n"
    assert len(yielded) >= 3
    assert len(writes) == 1 + len(yielded)
    assert all(written is text for written, text in zip(writes[1:], yielded))


# Texts with every character that csv's minimal quoting looks at.
csv_texts = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"]), max_size=6)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.builds(
            ApSummary,
            bssid=st.sampled_from(MACS),
            ssid=csv_texts,
            channel=st.sampled_from([1, 36]),
            cell_x=st.integers(-(2**40), 2**40),
            cell_y=st.integers(-(2**40), 2**40),
            lat=finite_floats,
            lon=finite_floats,
            mean_rssi_dbm=finite_floats,
            stddev_rssi_dbm=finite_floats,
            count=st.integers(1, 10**6),
            low_confidence=st.sampled_from([0, 1]),
            distance_m=st.none() | finite_floats,
        ),
        max_size=6,
    )
)
@example(rows=[summary_in_cell(AP_A, 1, (0, 0), -60.0)._replace(ssid=s) for s in ["", '"', "a,b", "\r", "\n"]])
def test_rendered_summaries_match_csv_writer(rows):
    got = io.StringIO()
    _write_lines(got, (ApSummary._fields, _summary_lines(rows)))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(ApSummary._fields)
    writer.writerows(rows)
    assert got.getvalue() == expected.getvalue()


@st.composite
def summaries_and_two_of_their_means(draw):
    """A summary list and two thresholds, low <= high, each the mean RSSI of
    one of its groups, so that a group sits on the boundary of each."""
    summaries = draw(summary_lists)
    means = st.sampled_from([s.mean_rssi_dbm for s in summaries])
    low, high = sorted([draw(means), draw(means)])
    return summaries, low, high


@settings(max_examples=100)
@given(case=summaries_and_two_of_their_means())
def test_lower_threshold_co_locates_a_superset_of_pairs(case):
    """Coverage is monotone in the threshold: every pair co-located (and
    interfering) at the higher threshold is so at the lower one too, and
    the pairs and their overlaps are the same at both."""
    summaries, low, high = case
    for lo, hi in zip(report_pairs(summaries, low), report_pairs(summaries, high), strict=True):
        assert lo[:3] == hi[:3]
        assert lo.co_located >= hi.co_located
        assert lo.interferes >= hi.interferes
