"""Relevance-only telemetry: bit-exact JSON mission payloads of an Events
table, KML export, the detection interchange lines of a Sightings table,
and an atomic file write.

The JSON serializer formats every number explicitly (6 decimal places for
coordinates, 2 for confidence and temperature) and emits keys in a fixed
order with no insignificant whitespace, so payload bytes are identical
across runs and platforms.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import re
import stat
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO
# json.dumps(s) for a str s, without json.dumps's dispatch on the type
from json.encoder import encode_basestring_ascii as _json_string

from . import workers
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


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> str:
    """``str(exc)`` as if ``exc.object`` began ``offset`` bytes later."""
    start, end = exc.start + offset, exc.end + offset
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


# Bytes read at a time past a bad line, to look for one not UTF-8.
_DECODE_CHUNK = 1 << 16


def _bad_input(message: str, read: int, raw: bytes,
               source: BinaryIO) -> TelemetryError:
    """The error for a bad line: ``message``, unless the input is not UTF-8
    anywhere; then the codec's error as one decode of the whole input
    gives it, byte position included. ``read`` counts the bytes before the
    bad line ``raw``, all decoded, and ``source`` holds all after it, which
    is decoded _DECODE_CHUNK bytes at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    chunk = raw
    while True:
        # The codec's positions count from the bytes it holds back, a
        # sequence cut at the last chunk's end, then the chunk.
        held = len(decoder.getstate()[0])
        try:
            decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            return TelemetryError(
                f"input is not UTF-8: {_utf8_error(exc, read - held)}")
        if not chunk:
            return TelemetryError(message)
        read += len(chunk)
        chunk = source.read(_DECODE_CHUNK)


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
                             raw, source) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise _bad_input(f"line {lineno}: {exc}", read, raw,
                             source) from exc
        read += len(raw)
    table.extend(rows)
    return table


# A file is cut into at most one byte range per this many bytes, so one of
# fewer than twice this many is parsed in process. The fork and the pickled
# table sent back cost about what a second CPU saves at 192 KiB: in two
# ranges, 128 KiB took 7.4 ms against 5.4 in process, 256 KiB 9.2 against
# 11.0 and 2,434 KiB 62.0 against 90.6 (medians of 41 interleaved runs over
# the first lines of a generated 5,144-line sightings file, two CPUs).
_MIN_RANGE_BYTES = 1 << 17


class _Window(io.RawIOBase):
    """At most ``size`` bytes of the unbuffered file ``raw``, from its
    offset on."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n


def _parse_range(fh: BinaryIO, start: int, stop: int) -> Sightings:
    """parse_detection_record_lines of bytes ``start`` to ``stop`` of the
    file open as ``fh``, read through an open file description of its own:
    the offset of ``fh``'s, which forked children share, is not moved.
    Raises TelemetryError if ``fh.name`` now names another file."""
    with open(fh.name, "rb", buffering=0) as raw:
        if not os.path.samestat(os.fstat(raw.fileno()),
                                os.fstat(fh.fileno())):
            raise TelemetryError(f"{fh.name} changed while read")
        raw.seek(start)
        return parse_detection_record_lines(
            io.BufferedReader(_Window(raw, stop - start)))


def parse_detection_record_file(fh: BinaryIO) -> tuple:
    """parse_detection_record_lines of the binary file ``fh``, open by its
    path ``fh.name``, and the number of byte ranges it was read in. A
    regular file is cut at line starts into ranges of about equal size,
    one per usable CPU and at most one per _MIN_RANGE_BYTES bytes; with two
    or more, they are parsed from the file's start in
    ``workers.forked_map`` (range 0 here, each other in a forked child)
    and joined in range order, and strings are shared within a range. Any
    other file, a pipe say, is one range. If a range raises TelemetryError,
    the whole file is parsed again as one range, so every table and every
    error is the one-range one."""
    info = os.fstat(fh.fileno())
    w = max(1, min(workers.usable_cpus(), info.st_size // _MIN_RANGE_BYTES))
    if w == 1 or not stat.S_ISREG(info.st_mode):
        return parse_detection_record_lines(fh), 1
    starts = [0]
    for k in range(1, w):
        fh.seek(info.st_size * k // w - 1)
        fh.readline()  # to the first line start at or past the k-th share
        starts.append(fh.tell())
    try:
        table, *others = workers.forked_map(_parse_range, [
            (fh, start, stop)
            for start, stop in zip(starts, starts[1:] + [info.st_size])])
    except TelemetryError:
        fh.seek(0)
        return parse_detection_record_lines(fh), 1
    for part in others:
        table += part
    return table, w
