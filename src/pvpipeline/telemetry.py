"""Relevance-only telemetry: bit-exact JSON mission payloads of an Events
table, KML export, the detection interchange lines of a Sightings table,
and an atomic file write.

The JSON serializer formats every number explicitly (6 decimal places for
coordinates, 2 for confidence and temperature) and emits keys in a fixed
order with no insignificant whitespace, so payload bytes are identical
across runs and platforms.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO
# json.dumps(s) for a str s, without json.dumps's dispatch on the type
from json.encoder import encode_basestring_ascii as _json_string

from .dedup import Events, Sightings
from .detector import check_box
from .geodesy import GeodesyError, checked_point, checked_ring

KML_NS = "http://www.opengis.net/kml/2.2"


class TelemetryError(ValueError):
    pass


@dataclass(frozen=True)
class MissionReport:
    site_id: str
    uav: str
    ts_utc: str
    detections: Events = field(default_factory=Events)

    def __post_init__(self):
        parse_ts_utc(self.ts_utc)  # validates
        ids = self.detections.id
        if len(ids) != len(set(ids)):
            raise TelemetryError("duplicate detection ids in report")


def parse_ts_utc(ts: str) -> datetime:
    if not ts.endswith("Z"):
        raise TelemetryError(f"ts_utc must end with 'Z': {ts!r}")
    try:
        return datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc)
    except ValueError as exc:
        raise TelemetryError(f"ts_utc not RFC-3339 UTC: {ts!r}") from exc


def _coord(value: float) -> str:
    return f"{value:.6f}"


def _pair(lat: float, lon: float) -> str:
    return f"[{_coord(lat)},{_coord(lon)}]"


def _record_json(events: Events, k: int) -> str:
    """The JSON record of row ``k`` of ``events``."""
    polygon = ",".join(_pair(lat, lon) for lat, lon in events.ring(k))
    return ('{'
            f'"id":{_json_string(events.id[k])},'
            f'"class":{_json_string(events.class_id[k])},'
            f'"conf":{events.confidence[k]:.2f},'
            f'"temp_C":{events.peak_temp_c[k]:.2f},'
            f'"centroid_wgs84":{_pair(events.lat[k], events.lon[k])},'
            f'"polygon_wgs84":[{polygon}],'
            f'"media":{{"rgb":{_json_string(events.media_rgb[k])},'
            f'"tiff":{_json_string(events.media_tiff[k])}}}'
            '}')


def _write_records(events: Events, out: BinaryIO):
    """The JSON array of events, written record by record to ``out``."""
    out.write(b"[")
    for k in range(len(events)):
        out.write(("," * (k > 0) + _record_json(events, k)).encode("utf-8"))
    out.write(b"]")


def records_json(events: Events) -> bytes:
    """The JSON array of events, as a report's "detections", UTF-8."""
    out = io.BytesIO()
    _write_records(events, out)
    return out.getvalue()


def to_json(report: MissionReport) -> bytes:
    """The report's JSON, encoded into one buffer as it is made."""
    out = io.BytesIO()
    out.write(('{'
               f'"site_id":{_json_string(report.site_id)},'
               f'"uav":{_json_string(report.uav)},'
               f'"ts_utc":{_json_string(report.ts_utc)},'
               '"detections":').encode("utf-8"))
    _write_records(report.detections, out)
    out.write(b"}")
    return out.getvalue()


# Field checks for parsed JSON: each returns the value when it has the
# expected JSON type and raises TelemetryError naming the field otherwise.

def _typed(kind: type, label: str):
    def check(value, what: str):
        if not isinstance(value, kind):
            raise TelemetryError(f"{what}: expected {label}, got {value!r:.60}")
        return value
    return check


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def encodes_utf8(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: a lone surrogate, which JSON's
    \\ud800 escape yields, has no UTF-8 form."""
    return text.isascii() or not _SURROGATE.search(text)


def _string(value, what: str):
    if not isinstance(value, str):
        raise TelemetryError(f"{what}: expected a string, got {value!r:.60}")
    if not encodes_utf8(value):
        raise TelemetryError(
            f"{what}: expected a string UTF-8 can encode, got {value!r:.60}")
    return value


_list = _typed(list, "a list")
_object = _typed(dict, "an object")


_FLOAT_MAX = sys.float_info.max


def _number(value, what: str):
    # The bounds are False for NaN, +-inf and ints past the float range;
    # the type test turns bools away.
    kind = type(value)
    if (kind is float or kind is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    raise TelemetryError(f"{what}: expected a finite number, got {value!r:.60}")


def _lat_lon(value, what: str) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise TelemetryError(f"{what}: expected [lat, lon], got {value!r:.60}")
    lat, lon = value
    return _number(lat, what), _number(lon, what)


def _bbox(value, what: str) -> tuple:
    if type(value) is not list or len(value) != 4:
        raise TelemetryError(
            f"{what}: expected [x_min, y_min, x_max, y_max], got {value!r:.60}")
    x_min, y_min, x_max, y_max = value
    return (_number(x_min, what), _number(y_min, what),
            _number(x_max, what), _number(y_max, what))


def _field(obj: dict, key: str, check, where: str = ""):
    what = f"{where}.{key}" if where else key
    if key not in obj:
        raise TelemetryError(f"{what}: missing")
    return check(obj[key], what)


def _vertex(value, what: str) -> tuple:
    """[lat, lon] held to the point check and a longitude in [-180, 180],
    but kept as parsed, not wrapped, so that a polygon vertex printed as
    180.000000 prints so again."""
    lat, lon = _lat_lon(value, what)
    try:
        checked_point(lat, lon)
    except GeodesyError as exc:
        raise TelemetryError(f"{what}: {exc}") from None
    if not -180.0 <= lon <= 180.0:
        raise TelemetryError(f"{what}: longitude out of range: {lon}")
    return lat, lon


def _centroid(value, what: str) -> tuple:
    """_vertex's point, its longitude wrapped by checked_point."""
    return checked_point(*_vertex(value, what))


def _parse_record(d, where: str, events: Events, shared: dict):
    """Check the record ``d`` and append it to ``events``; a string equal
    to one in ``shared`` is that one, and a new one is added."""
    _object(d, where)
    media = _field(d, "media", _object, where)
    event_id = _field(d, "id", _string, where)
    class_id = _field(d, "class", _string, where)
    confidence = _field(d, "conf", _number, where)
    peak_temp_c = _field(d, "temp_C", _number, where)
    lat, lon = _field(d, "centroid_wgs84", _centroid, where)
    vertices = [_vertex(p, f"{where}.polygon_wgs84")
                for p in _field(d, "polygon_wgs84", _list, where)]
    rgb = _field(media, "rgb", _string, f"{where}.media")
    tiff = _field(media, "tiff", _string, f"{where}.media")
    if not event_id:
        raise TelemetryError(f"{where}.id: expected a non-empty string")
    if len(vertices) < 3:
        raise TelemetryError(f"{where}.polygon_wgs84: expected at least 3 "
                             f"vertices, got {len(vertices)}")
    share = shared.setdefault
    events.append(event_id, share(class_id, class_id), confidence,
                  peak_temp_c, lat, lon,
                  [c for vertex in vertices for c in vertex],
                  share(rgb, rgb), share(tiff, tiff))


def parse_report(payload: bytes) -> MissionReport:
    """Inverse of to_json, into an Events table with no members; a number
    is held as a float. Raises TelemetryError naming a field that is
    missing, mistyped, a latitude past 90, a longitude past 180, an empty
    id or under 3 vertices, or JSON nested past the interpreter's recursion
    limit."""
    try:
        obj = _object(json.loads(payload.decode("utf-8")), "report")
    except RecursionError:
        raise TelemetryError("JSON nested too deeply") from None
    detections = _field(obj, "detections", _list)
    site_id = _field(obj, "site_id", _string)
    uav = _field(obj, "uav", _string)
    ts_utc = _field(obj, "ts_utc", _string)
    events, shared = Events(), {}
    for i, d in enumerate(detections):
        _parse_record(d, f"detections[{i}]", events, shared)
    return MissionReport(site_id=site_id, uav=uav, ts_utc=ts_utc,
                         detections=events)


def _xml_text(text: str) -> str:
    """Element text escaped as ElementTree escapes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_kml(report: MissionReport) -> bytes:
    """The report's KML, encoded into one buffer as it is made."""
    out = io.BytesIO()
    out.write(('<?xml version="1.0" encoding="UTF-8"?>\n'
               f'<kml xmlns="{KML_NS}"><Document>'
               f'<name>{_xml_text(f"{report.site_id} {report.ts_utc}")}'
               '</name>').encode("utf-8"))
    events = report.detections
    for k in range(len(events)):
        polygon = events.ring(k)
        ring = " ".join(f"{_coord(lon)},{_coord(lat)},0"
                        for lat, lon in (*polygon, polygon[0]))
        desc = (f"class={events.class_id[k]} conf={events.confidence[k]:.2f} "
                f"temp_C={events.peak_temp_c[k]:.2f}")
        out.write((
            f"<Placemark><name>{_xml_text(events.id[k])}</name>"
            f"<description>{_xml_text(desc)}</description>"
            "<Polygon><outerBoundaryIs><LinearRing>"
            f"<coordinates>{ring}</coordinates>"  # a closed ring
            "</LinearRing></outerBoundaryIs></Polygon></Placemark>"
        ).encode("utf-8"))
    out.write(b"</Document></kml>")
    return out.getvalue()


def write_atomic(path: str, payload):
    """Write payload, bytes or an iterable of bytes chunks, to path
    atomically (temp file + rename), creating the parent directory if
    needed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((payload,) if isinstance(payload, bytes)
                          else payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# json.dumps(obj, sort_keys=True), one encoder for every line.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def detection_record_lines(sightings: Sightings,
                           out: BinaryIO | None = None):
    """Line-delimited interchange format for a Sightings table, consumed by
    the offline `dedup` command: written one line at a time to the binary
    file ``out``, or, with no ``out``, returned as bytes."""
    if out is None:
        out = io.BytesIO()
        detection_record_lines(sightings, out)
        return out.getvalue()
    s = sightings
    for i, (class_id, conf, temp, lat, lon, frame_id, timestamp, rgb,
            tiff) in enumerate(zip(s.class_id, s.confidence, s.peak_temp_c,
                                   s.lat, s.lon, s.frame_id, s.timestamp,
                                   s.media_rgb, s.media_tiff)):
        out.write((_encode_sorted({
            "bbox": s.bbox[4 * i:4 * i + 4].tolist(), "class": class_id,
            "conf": conf, "temp_C": temp,
            "polygon_wgs84": s.ring(i),
            "centroid_wgs84": [lat, lon],
            "frame_id": frame_id, "timestamp": timestamp,
            "media": {"rgb": rgb, "tiff": tiff},
        }) + "\n").encode("utf-8"))


_raw_decode = json.JSONDecoder().raw_decode
# Rows the parser holds before it moves them to the table's columns, one
# C-level extend per column instead of a Python-level append per value.
_ROWS_PER_EXTEND = 256


def _row(line: str, shared: dict) -> tuple:
    """The Sightings row of one line, decoded as json.loads decodes it, its
    box and ring flat. A string equal to one in ``shared`` is that one, and
    a new one is added: the strings of one frame repeat on each of its
    lines. The type tests are inline and accept what the field helpers
    accept."""
    try:
        obj, end = _raw_decode(line)
    except ValueError:
        end = None
    if end != len(line):  # whitespace around the value, a BOM, extra data
        obj = json.loads(line)
    big, num = _FLOAT_MAX, (float, int)  # _number's test
    if type(obj) is not dict:
        _object(obj, "record")
    media = obj.get("media", {})
    if type(media) is not dict:
        _object(media, "media")
    # A value of the wrong shape is looped over as one None, which fails;
    # after a failed test the helpers check the whole field, and raise.
    box = obj.get("bbox")
    for v in box if type(box) is list and len(box) == 4 else (None,):
        if not (type(v) in num and -big <= v <= big):
            box = _field(obj, "bbox", _bbox)
            break
    class_id = obj.get("class")
    if not (type(class_id) is str and class_id.isascii()):
        class_id = _field(obj, "class", _string)
    conf = obj.get("conf")
    if not (type(conf) in num and -big <= conf <= big):
        conf = _field(obj, "conf", _number)
    temp = obj.get("temp_C")
    if not (type(temp) in num and -big <= temp <= big):
        temp = _field(obj, "temp_C", _number)
    ring = obj.get("polygon_wgs84")
    vertices = []  # each vertex's numbers, then its point check
    for p in ring if type(ring) is list else (None,):
        lat, lon = p if type(p) is list and len(p) == 2 else (None, None)
        if not (type(lat) in num and type(lon) in num
                and -big <= lat <= big and -big <= lon <= big):
            vertices = [checked_point(*_lat_lon(v, "polygon_wgs84"))
                        for v in _field(obj, "polygon_wgs84", _list)]
            break
        vertices.append(checked_point(lat, lon))
    polygon = checked_ring(vertices)
    centroid = obj.get("centroid_wgs84")
    lat, lon = (centroid if type(centroid) is list and len(centroid) == 2
                else (None, None))
    if not (type(lat) in num and type(lon) in num
            and -big <= lat <= big and -big <= lon <= big):
        lat, lon = _field(obj, "centroid_wgs84", _lat_lon)
    lat, lon = checked_point(lat, lon)
    strings = [obj.get("frame_id", ""), obj.get("timestamp", ""),
               media.get("rgb", ""), media.get("tiff", "")]
    for k, what in enumerate(("frame_id", "timestamp", "media.rgb",
                              "media.tiff")):
        if not (type(strings[k]) is str and strings[k].isascii()):
            strings[k] = _string(strings[k], what)
    check_box(*box, conf)
    share = shared.setdefault
    return (box, share(class_id, class_id), conf, temp, polygon, lat,
            lon, *map(share, strings, strings))


def _bad_input(message: str, read: int, rest: bytes) -> TelemetryError:
    """The error for a bad line: ``message``, unless the input is not UTF-8
    anywhere; then the codec's error as one decode of the whole input
    gives it, byte position included. ``read`` counts the bytes before the
    bad line, all decoded, and ``rest`` holds the line and all after it."""
    try:
        (bytes(read) + rest).decode("utf-8")  # NULs stand in for what was read
    except UnicodeDecodeError as exc:
        return TelemetryError(f"input is not UTF-8: {exc}")
    return TelemetryError(message)


def parse_detection_record_lines(source: bytes | BinaryIO) -> Sightings:
    """Inverse of detection_record_lines, with no object per number. The
    input, ``bytes`` or a binary file, is read one line at a time into the
    typed columns of the table, _ROWS_PER_EXTEND rows at a time, and equal
    strings are one object, so memory is the table plus one line and those
    rows. Lines end at
    "\\n" only (JSON Lines); a line of JSON whitespace only is skipped, and
    each other is held to these checks, in this order: the record and
    media objects, each field's type in column order (each vertex's
    numbers, then its point check, then the ring check), the centroid, the
    strings, then the box and confidence. Raises with 1-based line numbers,
    or, if the input is not UTF-8 anywhere, for that first."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    table, rows, shared = Sightings(), [], {}
    read = 0
    for lineno, raw in enumerate(source, start=1):
        try:
            line = raw.decode("utf-8").removesuffix("\n")
            if line.strip(" \t\r"):
                rows.append(_row(line, shared))
                if len(rows) == _ROWS_PER_EXTEND:
                    table.extend(rows)
                    rows.clear()
        except RecursionError:
            raise _bad_input(f"line {lineno}: JSON nested too deeply", read,
                             raw + source.read()) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise _bad_input(f"line {lineno}: {exc}", read,
                             raw + source.read()) from exc
        read += len(raw)
    table.extend(rows)
    return table
