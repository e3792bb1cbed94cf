import functools
import json
import pathlib
import pickle
import re
import tracemalloc
import xml.etree.ElementTree as ET
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from oracles import parse_detection_record_lines_objects, \
    sighting_rows_objects
from test_frame_ranges import _no_child_left
from test_golden_mission import _bench_sightings

from pvpipeline import telemetry, workers

from pvpipeline.dedup import Events, Sightings, floats
from pvpipeline.geodesy import checked_point, checked_ring
from pvpipeline.telemetry import (MissionReport, TelemetryError,
                                  detection_record_lines,
                                  parse_detection_record_file,
                                  parse_detection_record_lines, parse_report,
                                  to_json, to_kml, write_atomic)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_report.json"
GOLDEN_MISSIONS = sorted((DATA / "golden_mission").iterdir())
KML_NS = "http://www.opengis.net/kml/2.2"


# The sample report's records, as Events.append takes them.
_RECORDS = (
    dict(id="clu_000", class_id="hotspot", confidence=0.91, peak_temp_c=82.4,
         lat=49.407251, lon=26.984173,
         ring=(49.407249, 26.98417, 49.407249, 26.984176,
               49.407253, 26.984176, 49.407253, 26.98417),
         media_rgb="frames/f0231.jpg", media_tiff="frames/f0231.tiff"),
    dict(id="clu_001", class_id="diode_fault", confidence=0.76,
         peak_temp_c=61.25, lat=49.407301, lon=26.984211,
         ring=(49.407299, 26.984208, 49.407299, 26.984214,
               49.407303, 26.984214, 49.407303, 26.984208),
         media_rgb="frames/f0240.jpg", media_tiff="frames/f0240.tiff"),
)


def _events(*records) -> Events:
    events = Events()
    for record in records:
        events.append(**record)
    return events


def _sample_report() -> MissionReport:
    return MissionReport(site_id="PV-Site-A", uav="uav-01",
                         ts_utc="2025-09-30T10:12:00Z",
                         detections=_events(*_RECORDS))


def test_json_matches_golden_file_byte_for_byte():
    assert to_json(_sample_report()) == GOLDEN.read_bytes()


def test_json_round_trip():
    report = _sample_report()
    parsed = parse_report(to_json(report))
    assert parsed.site_id == report.site_id
    assert parsed.uav == report.uav
    assert parsed.ts_utc == report.ts_utc
    got = parsed.detections
    assert len(got) == 2
    assert got.id[0] == "clu_000"
    assert got.confidence[0] == pytest.approx(0.91)
    assert got.peak_temp_c[0] == pytest.approx(82.4)
    assert (got.lat[0], got.lon[0]) == (49.407251, 26.984173)
    assert got.ring(0) == _sample_report().detections.ring(0)
    assert not got.member and not got.member_end  # a report has no members


@pytest.mark.parametrize("path", [GOLDEN] + [
    m / "report.json" for m in GOLDEN_MISSIONS],
    ids=["golden_report"] + [m.name for m in GOLDEN_MISSIONS])
def test_parse_report_round_trips_the_goldens(path):
    """A report's fixed-point text parses to events that print it again.

    One limit: the centroid's longitude is wrapped, so one printed as
    180.000000 prints back as -180.000000. to_kml writes no centroid, so
    the KML is unaffected.
    """
    payload = path.read_bytes()
    assert to_json(parse_report(payload)) == payload


@pytest.mark.parametrize("mission", GOLDEN_MISSIONS,
                         ids=[m.name for m in GOLDEN_MISSIONS])
def test_kml_of_a_parsed_golden_report_is_its_report_kml(mission):
    report = parse_report((mission / "report.json").read_bytes())
    assert to_kml(report) == (mission / "report.kml").read_bytes()


def test_json_fixed_point_formatting():
    payload = to_json(_sample_report())
    assert b'"conf":0.91' in payload
    assert b'"temp_C":82.40' in payload  # always two decimals
    assert b'"centroid_wgs84":[49.407251,26.984173]' in payload
    assert b" " not in payload  # compact: no whitespace anywhere
    assert b"\n" not in payload


@pytest.mark.parametrize("text", ['q"uo\\te', "\x00\x1f\t\n\r\x7f", "é漢😀",
                                  "lone \ud800 surrogate"],
                         ids=["quote-backslash", "control", "non-ascii",
                              "lone-surrogate"])
def test_json_strings_are_written_as_json_dumps_writes_them(text):
    # Each string field of the report and of its records, set to ``text``,
    # reads exactly as json.dumps(text) where a placeholder read as
    # json.dumps(placeholder).
    keys = ("id", "class_id", "media_rgb", "media_tiff", "site_id", "uav")

    def payload(values):
        rec = {**_RECORDS[0], **{k: values[k] for k in keys[:4]}}
        return to_json(MissionReport(
            site_id=values["site_id"], uav=values["uav"],
            ts_utc="2025-09-30T10:12:00Z",
            detections=_events(rec))).decode()

    want = payload({k: f"<{k}>" for k in keys})
    for k in keys:
        want = want.replace(json.dumps(f"<{k}>"), json.dumps(text))
    assert payload(dict.fromkeys(keys, text)) == want


def test_report_validation():
    with pytest.raises(TelemetryError):
        MissionReport(site_id="s", uav="u", ts_utc="2025-09-30 10:12:00")
    with pytest.raises(TelemetryError):
        MissionReport(site_id="s", uav="u", ts_utc="2025-09-30T10:12:00+00:00")
    rec = _RECORDS[0]
    with pytest.raises(TelemetryError):
        MissionReport(site_id="s", uav="u", ts_utc="2025-09-30T10:12:00Z",
                      detections=_events(rec, rec))  # duplicate ids
    for edit, message in [
            (dict(id=""), "detections[0].id: expected a non-empty string"),
            (dict(ring=(0.0, 0.0, 1.0, 1.0)),
             "detections[0].polygon_wgs84: expected at least 3 vertices")]:
        payload = to_json(MissionReport(
            site_id="s", uav="u", ts_utc="2025-09-30T10:12:00Z",
            detections=_events({**rec, **edit})))
        with pytest.raises(TelemetryError, match=re.escape(message)):
            parse_report(payload)


def test_kml_structure():
    report = _sample_report()
    root = ET.fromstring(to_kml(report))
    assert root.tag == f"{{{KML_NS}}}kml"
    placemarks = root.findall(f".//{{{KML_NS}}}Placemark")
    assert len(placemarks) == 2
    names = [p.find(f"{{{KML_NS}}}name").text for p in placemarks]
    assert names == ["clu_000", "clu_001"]
    desc = placemarks[0].find(f"{{{KML_NS}}}description").text
    assert "class=hotspot" in desc and "conf=0.91" in desc
    coords = placemarks[0].find(f".//{{{KML_NS}}}coordinates").text.split()
    # Closed ring with longitude-first triplets.
    assert len(coords) == 5
    assert coords[0] == coords[-1]
    lon, lat, alt = coords[0].split(",")
    assert float(lon) == pytest.approx(26.98417)
    assert float(lat) == pytest.approx(49.407249)
    assert alt == "0"


@pytest.mark.parametrize("text", ['a&b<c>d"e\'f', "]]>&amp;", "tab\tnl\nend",
                                  "é漢"],
                         ids=["markup", "cdata-end-entity", "tab-newline",
                              "non-ascii"])
def test_kml_text_round_trips(text):
    # Names and descriptions are escaped as element text: an XML parser
    # reads back what the report holds.
    rec = {**_RECORDS[0], "id": text, "class_id": text}
    report = MissionReport(site_id=text, uav="u", ts_utc="2025-09-30T10:12:00Z",
                           detections=_events(rec))
    root = ET.fromstring(to_kml(report))
    doc = root.find(f"{{{KML_NS}}}Document")
    assert doc.find(f"{{{KML_NS}}}name").text == f"{text} {report.ts_utc}"
    placemark = doc.find(f"{{{KML_NS}}}Placemark")
    assert placemark.find(f"{{{KML_NS}}}name").text == text
    assert placemark.find(f"{{{KML_NS}}}description").text == \
        f"class={text} conf=0.91 temp_C=82.40"


def test_file_sink_atomic_write(tmp_path):
    target = tmp_path / "report.json"
    payload = to_json(_sample_report())
    write_atomic(str(target), payload)
    assert target.read_bytes() == payload
    # No temp-file droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    write_atomic(str(target), b"second")
    assert target.read_bytes() == b"second"
    # A target whose parent directory does not exist yet.
    nested = tmp_path / "new" / "dir" / "report.json"
    write_atomic(str(nested), payload)
    assert nested.read_bytes() == payload
    assert [p.name for p in nested.parent.iterdir()] == ["report.json"]


def _projected(lat=49.4071, lon=26.9842):
    ring = floats([lat - 1e-5, lon - 1e-5, lat - 1e-5, lon + 1e-5,
                   lat + 1e-5, lon + 1e-5, lat + 1e-5, lon - 1e-5])
    return (floats([1.0, 2.0, 5.0, 6.0]), "hotspot", 0.83, 47.5, ring, lat,
            lon, "f0003", "2025-09-30T10:00:07Z", "f0003.jpg", "f0003.tiff")


def test_detection_record_lines_round_trip():
    items = Sightings.of_rows([_projected(), _projected(lat=49.4075)])
    data = detection_record_lines(items)
    assert data.endswith(b"\n")
    parsed = parse_detection_record_lines(data)
    assert len(parsed) == 2
    assert parsed.class_id == items.class_id
    assert parsed.confidence == pytest.approx(items.confidence)
    assert parsed.lat == pytest.approx(items.lat)
    assert parsed.frame_id == items.frame_id
    assert parsed.media_rgb == items.media_rgb
    assert detection_record_lines(Sightings()) == b""


def test_parse_detection_record_lines_defaults_missing_ids_to_empty():
    line = ('{"bbox": [1.0, 2.0, 5.0, 6.0], "class": "hotspot", '
            '"conf": 0.83, "temp_C": 47.5, "centroid_wgs84": [49.4, 26.9], '
            '"polygon_wgs84": [[49.4, 26.9], [49.4, 26.91], [49.41, 26.91]]}')
    parsed = parse_detection_record_lines(line.encode())
    assert len(parsed) == 1
    assert parsed.frame_id == [""]
    assert parsed.timestamp == [""]
    assert parsed.media_rgb == [""]


def test_parse_detection_record_lines_reports_line_numbers():
    good = detection_record_lines(
        Sightings.of_rows([_projected()])).decode().strip()
    data = (good + "\n" + '{"class": "hotspot"}' + "\n").encode()
    with pytest.raises(TelemetryError, match="line 2"):
        parse_detection_record_lines(data)


def _golden_lines(count: int) -> bytes:
    """``count`` lines of the clutter_miss golden detections.jsonl, which
    repeat after its 82."""
    golden = (DATA / "golden_mission" / "clutter_miss"
              / "detections.jsonl").read_bytes().splitlines(keepends=True)
    return b"".join(golden[k % len(golden)] for k in range(count))


def test_parse_from_a_file_holds_no_copy_of_it(tmp_path):
    # 2,000 golden lines, about 1 MB: read one line at a time, the parse
    # peaks above the table it returns by a small part of the file's size.
    data = _golden_lines(2000)
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            tracemalloc.reset_peak()
            parsed = parse_detection_record_lines(fh)
            held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed) == 2000
    assert peak - held < len(data) / 2, (peak - held, len(data))
    assert repr(parsed) == repr(parse_detection_record_lines(data)) == \
        repr(parse_detection_record_lines_objects(data))


def test_a_parsed_table_holds_at_most_300_bytes_a_row():
    # The numbers are in array('d') columns, the boxes and the rings are
    # one flat array each, and the strings of a frame are shared: the table
    # holds no Python object per number or per row. Tuples of float objects
    # took about 1,150 bytes a row here, and an array per box and per ring
    # about 375; the flat columns take about 210.
    data = _golden_lines(2000)
    tracemalloc.start()
    try:
        parsed = parse_detection_record_lines(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 2000
    assert held <= 300 * len(parsed), held / len(parsed)


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_point = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)).map(
    lambda p: checked_point(*p))


@st.composite
def sighting_rows(draw):
    """A Sightings row as the project stage makes one: a box of positive
    extent, a confidence in [0, 1], a finite temperature, a ring of 3 to 8
    distinct checked points and a checked centroid."""
    x_min, y_min = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    width, height = draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6))
    ring = draw(st.lists(_point, min_size=3, max_size=8, unique=True))
    return (floats([x_min, y_min, x_min + width, y_min + height]),
            draw(_text), draw(st.floats(0.0, 1.0)),
            draw(st.floats(allow_nan=False, allow_infinity=False)),
            checked_ring(ring), *draw(_point), draw(_text), draw(_text),
            draw(_text), draw(_text))


def _assert_typed(table):
    for name in ("bbox", "confidence", "peak_temp_c", "polygon", "lat",
                 "lon"):
        column = getattr(table, name)
        assert type(column) is array and column.typecode == "d", name
    assert len(table.bbox) == 4 * len(table)
    ends = table.ring_end
    assert type(ends) is array and ends.typecode == "q"
    assert len(ends) == len(table)
    # Each ring holds 3 to 8 (lat, lon) pairs, the last ending the column.
    assert all(end - start in range(6, 17, 2)
               for start, end in zip([0, *ends], ends))
    assert (ends[-1] if ends else 0) == len(table.polygon)
    for name in ("class_id", "frame_id", "timestamp", "media_rgb",
                 "media_tiff"):
        column = getattr(table, name)
        assert type(column) is list, name
        assert all(type(v) is str for v in column), name


@settings(max_examples=60)
@given(st.lists(sighting_rows(), max_size=4),
       st.lists(sighting_rows(), max_size=4))
def test_a_table_of_drawn_rows_is_typed_and_round_trips(first, second):
    table = Sightings.of_rows(first)
    _assert_typed(table)
    parsed = parse_detection_record_lines(detection_record_lines(table))
    _assert_typed(parsed)
    assert parsed == table
    assert pickle.loads(pickle.dumps(table)) == table
    joined = table + Sightings.of_rows(second)
    _assert_typed(joined)
    assert joined == Sightings.of_rows(first + second)


def _rows_of(table) -> list:
    """``table``'s rows, each read through the table's box slice and ring
    accessor, in the form of :func:`oracles.sighting_rows_objects`."""
    return [(tuple(table.bbox[4 * i:4 * i + 4]), table.class_id[i],
             table.confidence[i], table.peak_temp_c[i],
             table.ring(i), table.lat[i], table.lon[i],
             table.frame_id[i], table.timestamp[i], table.media_rgb[i],
             table.media_tiff[i]) for i in range(len(table))]


@settings(max_examples=60)
@given(st.lists(sighting_rows(), max_size=5),
       st.lists(sighting_rows(), max_size=5))
def test_flat_rings_of_3_to_8_vertices_read_back_row_by_row(first, second):
    # Each way a table is made or moved keeps every row's box and ring, as
    # the rows held one by one as objects have them.
    want = sighting_rows_objects(first)
    table = Sightings.of_rows(first)
    assert _rows_of(table) == want
    data = detection_record_lines(table)
    assert _rows_of(parse_detection_record_lines(data)) == want
    assert _rows_of(parse_detection_record_lines_objects(data)) == want
    assert _rows_of(pickle.loads(pickle.dumps(table))) == want
    # Joined, the second table's ring ends move past the first's rings,
    # whether into a new table or in place.
    both = sighting_rows_objects(first + second)
    other = Sightings.of_rows(second)
    assert _rows_of(table + other) == both
    assert _rows_of(table) == want  # + leaves its operands alone
    table += other
    assert _rows_of(table) == both
    assert _rows_of(other) == sighting_rows_objects(second)


# ---------------------------------------------------------------------------
# The ranged parse of a sightings file, and the UTF-8 check of a bad input
# ---------------------------------------------------------------------------

def _golden_record(**media) -> bytes:
    """A golden sighting's line, with ``media`` set in its media object."""
    line = (DATA / "golden_mission" / "default"
            / "detections.jsonl").read_bytes().splitlines()[0]
    record = json.loads(line)
    record["media"].update(media)
    return json.dumps(record).encode() + b"\n"


# The first line is longer than the other two together, so the 2- and 3-CPU
# cuts both fall at the second line's start: there range 1 begins, and on
# 3 CPUs range 2 begins there too and range 1 is empty.
_LONG = _golden_record(rgb="x" * 2000)
_SHORT = _golden_record()
_BAD = b'{"class": "hotspot"}\n'


@functools.cache
def _ranged_inputs() -> dict:
    golden = (DATA / "golden_mission" / "default"
              / "detections.jsonl").read_bytes()
    bench, _ = _bench_sightings().generate(0)
    return {
        "golden": golden,
        "benchmark": b"".join(bench.splitlines(keepends=True)[:600]),
        "whitespace-at-a-cut": _LONG + b" \t\r\n" + _SHORT,
        "crlf": golden.replace(b"\n", b"\r\n"),
        "no-trailing-newline": golden.rstrip(b"\n"),
        "line-longer-than-a-range": _LONG + _SHORT,
        "empty": b"",
        "bad-record-in-range-1": _golden_lines(40) + _BAD + _golden_lines(3),
        "bad-record-at-a-cut": _LONG + _BAD + _SHORT,
        "not-utf8-in-range-0-bad-record-in-range-1":
            _golden_record(tiff="caf\xe9").replace(b"\\u00e9", b"\xe9")
            + _golden_lines(40) + _BAD + _golden_lines(3),
    }


def _parsed(parse, source) -> str:
    """The repr of the table ``parse`` makes of ``source``, or its error."""
    try:
        return repr(parse(source))
    except TelemetryError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("name", sorted(_ranged_inputs()))
def test_a_file_parsed_in_byte_ranges_is_parsed_as_one(tmp_path,
                                                       monkeypatch, name):
    # With the range minimum at one byte, each usable CPU parses a range;
    # the joined table, or the error, is the serial parse's.
    data = _ranged_inputs()[name]
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    serial = _parsed(parse_detection_record_lines, data)
    fails = name.startswith(("bad", "not"))
    assert serial.startswith("error: line " if name.startswith("bad") else
                             "error: input is not UTF-8: " if fails else
                             "Sightings("), serial
    monkeypatch.setattr(telemetry, "_MIN_RANGE_BYTES", 1)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        counts = []

        def parse(fh):
            table, ranges = parse_detection_record_file(fh)
            counts.append(ranges)
            return table

        with open(path, "rb") as fh:
            same = _parsed(parse, fh) == serial  # no diff of long reprs
        assert same, f"{name} on {cpus} CPUs"
        _no_child_left()
        assert counts == ([] if fails else [cpus if data else 1])


def _parse_peak(path) -> int:
    """The tracemalloc peak of parsing the file at ``path``, which may
    raise TelemetryError."""
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            tracemalloc.reset_peak()
            try:
                parse_detection_record_lines(fh)
            except TelemetryError:
                pass
            return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("where", ["bad-last-line", "bad-byte-at-the-end"])
def test_a_bad_input_is_checked_for_utf8_in_bounded_memory(tmp_path, where):
    # The rest of the input is decoded a chunk at a time: the error path
    # holds no copy of the input, so a parse that fails peaks above a clean
    # parse of the same lines by a small part of the file's size.
    clean = _golden_lines(2000)
    bad = clean + _BAD if where == "bad-last-line" else _BAD + clean + b"\xff"
    (tmp_path / "clean.jsonl").write_bytes(clean)
    (tmp_path / "bad.jsonl").write_bytes(bad)
    assert _parse_peak(tmp_path / "bad.jsonl") - \
        _parse_peak(tmp_path / "clean.jsonl") < len(bad) / 2
    message = _parsed(parse_detection_record_lines, bad)
    assert message.startswith("error: ")
    assert message == _parsed(parse_detection_record_lines_objects, bad)
