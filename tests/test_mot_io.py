import copy
import dataclasses
import io
import math
import pickle
import re
import warnings
from collections import Counter
from fractions import Fraction
from sys import float_info

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trackstitch.mot_io import (
    Detection,
    ParseError,
    SequenceMeta,
    load_tracks,
    parse_tracks,
    read_seqinfo,
    write_tracks,
)
from trackstitch import mot_io
from trackstitch.mot_io import DetectionTable, _format_rows, _read_values


def test_parse_single_line():
    dets = parse_tracks("1,2,10.0,20.0,30.0,40.0,1,-1,-1,-1")
    assert dets == [Detection(frame=1, track_id=2, x=10, y=20, w=30, h=40, conf=1)]


def test_parse_empty_input():
    assert parse_tracks("") == []
    assert parse_tracks(io.StringIO("")) == []


def test_parse_rejects_zero_width():
    with pytest.raises(ParseError, match="line 1"):
        parse_tracks("1,2,10,20,0,40,1,-1,-1,-1")


def two_tracks(side):
    """Two tracks of ten frames, square boxes of the given side at x = 100 and 130."""
    return "".join(f"{f},{t},{70 + 30 * t},50,{side!r},{side!r},1,-1,-1,-1\n" for t in (1, 2) for f in range(1, 11))


# sides the arithmetic cannot represent: the area underflows to 0 (1e-200) or
# overflows to inf (1e160), or x + w rounds to x (1e-200 and 1e-150)
@pytest.mark.parametrize("side, message", [
    (1e-200, "box has no extent in float arithmetic"),
    (1e160, "box area must be a normal finite float"),
    (1e-150, "box has no extent in float arithmetic"),
])
def test_parse_rejects_a_box_without_extent_or_normal_area(side, message):
    with pytest.raises(ParseError, match=f"^line 1: {message}, got "):
        parse_tracks(two_tracks(side))
    good = "1,3,100,50,10,10,1,-1,-1,-1\n"
    with pytest.raises(ParseError, match=f"^line 2: {message}, got "):
        parse_tracks(good + two_tracks(side))


def test_box_domain_edges():
    tiny, huge = float_info.min, 2.0**512
    for x, y, w, h in [(0.0, 0.0, tiny, 1.0), (0.0, 0.0, huge, 2.0**511), (2.0**52, 0.0, 1.0, 1.0), (5e-324, 0.0, 5e-324, 2.0**1000)]:
        Detection(1, 1, x, y, w, h)
        DetectionTable([1], [1], [x], [y], [w], [h], [1.0])
    for x, y, w, h in [(0.0, 0.0, tiny / 2, 1.0), (0.0, 0.0, huge, huge), (2.0**53, 0.0, 1.0, 1.0), (0.0, 1e17, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="^box "):
            Detection(1, 1, x, y, w, h)
        with pytest.raises(ValueError, match="^row 1: box "):
            DetectionTable([1, 1], [1, 2], [0.0, x], [0.0, y], [1.0, w], [1.0, h], [1.0, 1.0])


def test_parse_rejects_short_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_tracks("1,2,10,20,30,40,1,-1,-1,-1\n3,4,5\n")


def test_parse_rejects_garbage_field():
    with pytest.raises(ParseError, match="line 1"):
        parse_tracks("one,2,10,20,30,40,1,-1,-1,-1")


def test_parse_ignores_trailing_fields_and_blank_lines():
    dets = parse_tracks("1,2,10,20,30,40,0.5,7,8,9,extra\n\n2,2,11,21,30,40,0.5,-1,-1,-1\n")
    assert [d.frame for d in dets] == [1, 2]
    assert dets[0].conf == 0.5


PARSE_ERRORS = [
    ("short line", "1,2,3\n", "line 1: expected at least 7 fields, got 3"),
    ("fractional frame", "3.5,2,10,20,30,40,1\n", "line 1: not an integer: '3.5'"),
    ("word id", "1,one,10,20,30,40,1\n", "line 1: could not convert string to float: 'one'"),
    ("garbage float", "1,2,10,2o,30,40,1\n", "line 1: could not convert string to float: '2o'"),
    ("empty float", "1,2,10,20,30,40,\n", "line 1: could not convert string to float: ''"),
    ("zero width", "1,2,10,20,0,40,1\n", "line 1: box size must be positive, got w=0.0, h=40.0"),
    ("zero id", "1,0,10,20,30,40,1\n", "line 1: track_id must be in [1, 2**63), got 0"),
    ("padded frame", " 3.5 ,2,10,20,30,40,1\n", "line 1: not an integer: '3.5'"),
    ("padded float", "1, 2 , 10 , x y ,30,40,1\n", "line 1: could not convert string to float: 'x y'"),
    ("padded height", "1,2,10,20,30, -4 ,1\n", "line 1: box size must be positive, got w=30.0, h=-4.0"),
    ("padded commas", " , , \n", "line 1: expected at least 7 fields, got 3"),
    (
        "after blank and CRLF lines",
        "1,2,10,20,30,40,1,-1\r\n \t \r\n\n1,2,3,4\r\n",
        "line 4: expected at least 7 fields, got 4",
    ),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in PARSE_ERRORS], ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_tracks(text)
    assert str(info.value) == message


def test_parse_accepts_padding_blank_lines_and_crlf():
    text = " 1 , 2 ,10, 20 ,30,40 , 0.5 \r\n   \r\n\t\n2,3.0,1e1,20,30,40,1,-1,-1,-1\r\n"
    assert parse_tracks(text) == [Detection(1, 2, 10, 20, 30, 40, 0.5), Detection(2, 3, 10, 20, 30, 40, 1)]


@pytest.mark.parametrize("column", range(2, 7))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_values(column, value):
    fields = "4,5,10,20,30,40,1,-1,-1,-1".split(",")
    fields[column] = value
    text = "1,1,10,20,30,40,1,-1,-1,-1\n2,1,10,20,30,40,1,-1,-1,-1\n" + ",".join(fields) + "\n"
    with pytest.raises(ParseError, match=r"^line 3: "):
        parse_tracks(text)


def test_detection_contract():
    d = Detection(3, 7, 1.5, -2.0, 10.25, 20.0, 0.75)
    same = Detection(3, 7, 1.5, -2.0, 10.25, 20.0, 0.75)
    assert d == same and hash(d) == hash(same)
    assert d != Detection(3, 8, 1.5, -2.0, 10.25, 20.0, 0.75)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.x = 0.0
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert clone == d and hash(clone) == hash(d)
    moved = dataclasses.replace(d, track_id=12)
    assert moved.track_id == 12
    assert dataclasses.replace(moved, track_id=d.track_id) == d
    with pytest.raises(ValueError):
        dataclasses.replace(d, track_id=0)


def _accepted_boxes(x, y, w, h):
    """The boxes ``(x, y, w, h)``, sides positive, moved into those :class:`Detection` accepts, for tests that draw values anywhere.

    A side too small to move its corner takes the corner's magnitude; where
    the area then leaves the normal floats, y becomes 0 and h the power of two
    that brings the area near 1. Boxes already accepted are returned as they
    are.
    """
    x, y, w, h = (np.asarray(c, dtype=float) for c in (x, y, w, h))
    with np.errstate(over="ignore"):
        w = np.where(x + w == x, np.abs(x), w)
        h = np.where(y + h == y, np.abs(y), h)
        area = w * h
    off = ~((area >= float_info.min) & (area < np.inf))
    y = np.where(off, 0.0, y)
    h = np.where(off, np.ldexp(1.0, np.clip(-np.frexp(w)[1], -1022, 1023)), h)
    return x, y, w, h


def _fmt(value):
    # the track writer's number format: integral values below 1e15 without a
    # decimal point, everything else as repr
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _reference_write(dets):
    """The track writer one value at a time: rows by (frame, id), each value field as its float64 value."""
    rows = sorted(dets, key=lambda d: (d.frame, d.track_id))
    return "".join(
        f"{d.frame},{d.track_id},{','.join(_fmt(float(v)) for v in (d.x, d.y, d.w, d.h, d.conf))},-1,-1,-1\n"
        for d in rows
    )


def test_write_matches_number_format():
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-20, 20, size=(2000, 5))
    values = mags * rng.choice([-1.0, 1.0], size=mags.shape)
    values[::3] = np.round(values[::3])  # integral values at every magnitude
    # positive, nonzero sizes: the magnitude survives, only the sign changes
    values[:, 2:4] = np.where(values[:, 2:4] == 0, 1.0, np.abs(values[:, 2:4]))
    values[:, :4] = np.stack(_accepted_boxes(*values[:, :4].T), axis=1)
    edges = [-0.0, 0.0, 1e15 - 1, 1e15, -1e15, 5e15, -5e15, 1e16, float(2**53), 1e-5, 9999999999999998.0, 0.5]
    rows = [[float(v) for v in row] for row in values]
    rows += [[e, -e, abs(e) or 1.0, abs(e) or 2.0, e] for e in edges]
    rows += [[3, -4, 5, 6, 1], [0, 0, 2**53, 10**16, -1]]  # int fields print their float64 value
    dets = [Detection(k + 1, 1 + k % 3, *row) for k, row in enumerate(rows)]
    text = write_tracks(dets)
    assert text == _reference_write(dets)
    assert text.splitlines()[-1].endswith(",0,0,9007199254740992.0,1e+16,-1,-1,-1,-1")


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
detections = st.builds(
    lambda frame, tid, box, conf: Detection(frame, tid, *(v.item() for v in _accepted_boxes(*box)), conf),
    st.integers(1, 10**6), st.integers(1, 10**6), st.tuples(finite, finite, positive, positive), finite,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(detections, max_size=30))
def test_write_parse_round_trip(dets):
    assert Counter(parse_tracks(write_tracks(dets))) == Counter(dets)


def test_write_numpy_scalars_as_plain_numbers():
    # every value is exactly representable, so each parses back to float(v)
    det = Detection(
        np.int64(3), np.int64(7), np.float64(1.5), np.float32(-2.25), np.int64(40), np.float32(8.0), np.float64(0.5)
    )
    text = write_tracks([det])
    assert text == "3,7,1.5,-2.25,40,8,0.5,-1,-1,-1\n"
    (back,) = parse_tracks(text)
    assert back == Detection(3, 7, 1.5, -2.25, 40.0, 8.0, 0.5)


def test_write_single_detection():
    assert write_tracks([Detection(1, 2, 10, 20, 30, 40, 1)]) == "1,2,10,20,30,40,1,-1,-1,-1\n"


def test_write_empty():
    assert write_tracks([]) == ""


def test_write_sorts_by_frame_then_id():
    dets = [
        Detection(2, 1, 0, 0, 5, 5, 1),
        Detection(1, 9, 0, 0, 5, 5, 1),
        Detection(1, 3, 0, 0, 5, 5, 1),
    ]
    lines = write_tracks(dets).splitlines()
    assert [line.split(",")[:2] for line in lines] == [["1", "3"], ["1", "9"], ["2", "1"]]


def test_round_trip_random_detections():
    rng = np.random.default_rng(1)
    dets = [
        Detection(
            frame=int(rng.integers(1, 500)),
            track_id=int(rng.integers(1, 40)),
            x=float(rng.uniform(-50, 500)),
            y=float(rng.uniform(-50, 500)),
            w=float(rng.uniform(0.1, 80)),
            h=float(rng.uniform(0.1, 80)),
            conf=float(rng.uniform(0, 1)),
        )
        for _ in range(1000)
    ]
    back = parse_tracks(write_tracks(dets))
    key = lambda d: (d.frame, d.track_id, d.x, d.y, d.w, d.h, d.conf)
    assert sorted(map(key, back)) == sorted(map(key, dets))


def test_detection_invariants():
    with pytest.raises(ValueError):
        Detection(0, 1, 0, 0, 5, 5, 1)
    with pytest.raises(ValueError):
        Detection(1, 1, 0, 0, -5, 5, 1)


@pytest.mark.parametrize("field", ["x", "y", "w", "h", "conf"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_detection_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(Detection(1, 1, 0, 0, 5, 5, 1), **{field: value})


@pytest.mark.parametrize(
    "value, message",
    [
        (1.5, "must be an integer, got 1.5"),
        (1.0, "must be an integer, got 1.0"),
        (True, "must be an integer, got True"),
        (np.True_, "must be an integer, got True"),
        (0, r"must be in \[1, 2\*\*63\), got 0"),
        (2**63, rf"must be in \[1, 2\*\*63\), got {2**63}"),
        (np.uint64(2**63), rf"must be in \[1, 2\*\*63\), got {2**63}"),
    ],
)
def test_ids_are_integers_an_int64_column_holds(value, message):
    # an int64 column would truncate 1.5 and True to frame 1, and overflow on 2**63
    for field in ("frame", "track_id"):
        with pytest.raises(ValueError, match=rf"^{field} {message}$"):
            dataclasses.replace(Detection(1, 1, 0, 0, 5, 5, 1), **{field: value})
    columns = [[1, 1], [1, 2], [0.0] * 2, [0.0] * 2, [5.0] * 2, [5.0] * 2, [1.0] * 2]
    for k, field in enumerate(("frame", "track_id")):
        with pytest.raises(ValueError, match=rf"^row 1: {field} {message}$"):
            DetectionTable(*columns[:k], [1, value], *columns[k + 1 :])
    table = DetectionTable(*columns)
    with pytest.raises(ValueError, match=rf"^row 0: track_id {message}$"):
        table.relabeled(value)
    with pytest.raises(ValueError, match=rf"^row 1: track_id {message}$"):
        table.relabeled([2, value])


def test_ids_may_be_numpy_integers_up_to_int64_max():
    largest = 2**63 - 1
    det = Detection(np.int64(3), np.uint64(largest), 0, 0, 5, 5, 1)
    assert (det.frame, det.track_id) == (3, largest)
    table = DetectionTable(np.array([3], dtype=np.uint64), np.array([largest], dtype=np.uint64), [0], [0], [5], [5], [1])
    assert table == [det] and table.relabeled(np.array([largest], dtype=np.uint64)).track_id.tolist() == [largest]
    with pytest.raises(ValueError, match=rf"^row 0: frame must be in \[1, 2\*\*63\), got {2**64 - 1}$"):
        DetectionTable(np.array([2**64 - 1], dtype=np.uint64), [1], [0], [0], [5], [5], [1])


_FLOAT_EDGES = (0.0, -0.0, -1.0, 1.0, 2.0**52, -(2.0**53), 1e17, float_info.min, 5e-324, 2.0**511, 2.0**512)
_ROW_EDGES = {
    "frame": st.sampled_from([0, 1, 2**63 - 1]),
    "track_id": st.sampled_from([0, 1, 2**63 - 1]),
    **{name: st.one_of(st.sampled_from(_FLOAT_EDGES + (math.nan, math.inf, -math.inf)), st.floats()) for name in "xywh"},
    "conf": st.sampled_from([1.0, -1.0, math.nan, math.inf]),
}


@st.composite
def edge_rows(draw):
    """A valid row with up to three fields moved to the edges of the row rule.

    The edges: ids 0, 1 and 2**63 - 1; sizes that are 0, negative, NaN or
    infinite; extents within an ulp of x; areas at ``float_info.min`` and at
    ``float_info.max``.
    """
    row = {"frame": 1, "track_id": 1, "x": 10.0, "y": 20.0, "w": 5.0, "h": 5.0, "conf": 1.0}
    for name in draw(st.lists(st.sampled_from(list(_ROW_EDGES)), max_size=3, unique=True)):
        row[name] = draw(_ROW_EDGES[name])
    edge = draw(st.sampled_from(["none", "ulp", "area"]))
    if edge == "ulp" and math.isfinite(row["x"]):
        # x + w starts to differ from x at about half an ulp of x
        row["w"] = math.ulp(row["x"]) * draw(st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]))
    elif edge == "area":
        # w * h next to the smallest normal float or the largest float (exactly
        # at it for h = 1); at x = 0 a tiny w still has an extent
        row["x"] = draw(st.sampled_from([0.0, row["x"]]))
        row["h"] = draw(st.sampled_from([1.0, 0.75, 3.0, 2.0**-40, 2.0**40]))
        w = draw(st.sampled_from([float_info.min, float_info.max])) / row["h"]
        row["w"] = math.nextafter(w, draw(st.sampled_from([-math.inf, w, math.inf])))
    return tuple(row.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(edge_rows(), min_size=1, max_size=8))
def test_rejected_marks_the_rows_detection_rejects(rows):
    # the row rule is stated once, in _BOX_RULE and the id checks: Detection reads it per row, _rejected per column
    def rejects(row):
        try:
            Detection(*row)
        except ValueError:
            return True
        return False

    columns = [np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), mot_io._DTYPES)]
    assert mot_io._rejected(*columns).tolist() == [rejects(row) for row in rows]


@pytest.mark.parametrize(
    "box, message",
    [
        # a NaN size passes the positive rule and breaks the finite one
        ((0.0, 0.0, math.nan, 5.0), "box and conf must be finite, got x=0.0, y=0.0, w=nan, h=5.0, conf=1.0"),
        ((0.0, 0.0, -0.0, 5.0), "box size must be positive, got w=-0.0, h=5.0"),
        ((1e6, 0.0, math.ulp(1e6) / 4, 5.0), f"box has no extent in float arithmetic, got x=1000000.0, y=0.0, w={math.ulp(1e6) / 4}, h=5.0"),
        ((0.0, 0.0, 1e200, 1e200), "box area must be a normal finite float, got w=1e+200, h=1e+200, w*h=inf"),
    ],
    ids=["NaN size", "-0.0 size", "quarter-ulp width", "area overflows"],
)
def test_detection_and_table_raise_each_box_rule_alike(box, message):
    with pytest.raises(ValueError) as raised:
        Detection(1, 1, *box, 1.0)
    assert str(raised.value) == message
    columns = zip((1, 1, 0.0, 0.0, 5.0, 5.0, 1.0), (2, 1, *box, 1.0))
    with pytest.raises(ValueError) as raised:
        DetectionTable(*map(list, columns))
    assert str(raised.value) == f"row 1: {message}"


def test_box_values_are_checked_as_floats():
    # an int too large for a float has no float to check
    with pytest.raises(OverflowError):
        Detection(1, 1, 10**400, 0, 5, 5)
    # an int box is checked in float arithmetic, as its row in a float64 column is
    message = "box has no extent in float arithmetic, got x=100000000000000000, y=0, w=1, h=5"
    with pytest.raises(ValueError) as raised:
        Detection(1, 1, 10**17, 0, 1, 5)
    assert str(raised.value) == message
    row = (1, 1, 10**17, 0, 1, 5, -1)
    assert mot_io._rejected(*(np.array([v], dtype=t) for v, t in zip(row, mot_io._DTYPES))).tolist() == [True]


def test_sequence_meta_diagonal():
    meta = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=10)
    assert meta.diagonal == pytest.approx(np.hypot(1920, 1080), abs=0)


def test_read_seqinfo(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\nname=demo\nframeRate=25\nseqLength=600\nimWidth=1280\nimHeight=720\n")
    meta = read_seqinfo(path)
    assert (meta.fps, meta.img_width, meta.img_height, meta.num_frames) == (25, 1280, 720, 600)


def test_read_seqinfo_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("\ufeff[Sequence]\nframeRate=25\nseqLength=600\nimWidth=1280\nimHeight=720\n", encoding="utf-8")
    meta = read_seqinfo(path)
    assert (meta.fps, meta.img_width, meta.img_height, meta.num_frames) == (25, 1280, 720, 600)


def test_load_tracks_drops_a_byte_order_mark(tmp_path):
    text = "1,1,10,20,30,40,0.9,-1,-1,-1\n2,1,11,20,30,40,0.8,-1,-1,-1\n"
    path = tmp_path / "tracks.txt"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert load_tracks(path) == parse_tracks(text)
    # a mark anywhere but at the start is still an error
    path.write_text(text + "\ufeff3,1,12,20,30,40,0.7,-1,-1,-1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: "):
        load_tracks(path)


def test_read_text_names_the_line_of_the_first_byte_that_is_not_utf8(tmp_path):
    # lines end in \r\n, a lone \r and \n, as text-mode open reads them
    path = tmp_path / "text.txt"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\rc\n\xc3\xa9")
    assert mot_io.read_text(path) == "a\nb\nc\n\u00e9"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\rc\n\xc3\xa9\xc3")
    with pytest.raises(ParseError) as raised:
        mot_io.read_text(path)
    assert str(raised.value) == f"{path}: line 4: not UTF-8: byte 0xc3 (unexpected end of data)"
    path.write_bytes(b"1,1,10,20,30,40,0.9,-1,-1,-1\n\xff\n")
    with pytest.raises(ParseError) as raised:
        load_tracks(path)
    assert str(raised.value) == f"{path}: line 2: not UTF-8: byte 0xff (invalid start byte)"


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0])
def test_sequence_meta_rejects_non_finite_or_non_positive_fps(fps):
    with pytest.raises(ValueError, match="^fps must be finite and positive, got "):
        SequenceMeta(fps=fps, img_width=10, img_height=10, num_frames=10)


@pytest.mark.parametrize("field", ["fps", "img_width", "img_height", "num_frames"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_sequence_meta_rejects_a_bool(field, value):
    # True == 1 is a positive integer, and would write seqLength=True, which read_seqinfo rejects
    fields = {"fps": 30.0, "img_width": 1920, "img_height": 1080, "num_frames": 10, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be a number, got {value}$"):
        SequenceMeta(**fields)


# Size texts that are not positive integers a float holds, by test id; both
# SequenceMeta and read_seqinfo reject each. The last lies between
# float_info.max and 2**1024: float() rounds it down to float_info.max, so only
# its comparison with float_info.max rejects it.
BAD_SIZES = {text: text for text in ["nan", "inf", "-inf", "0", "-3", "2.5", "1920.7", "1.5", "1e400"]}
BAD_SIZES["float_info.max+1"] = str(int(float_info.max) + 1)


@pytest.mark.parametrize("field", ["img_width", "img_height", "num_frames"])
@pytest.mark.parametrize("text", BAD_SIZES.values(), ids=BAD_SIZES)
def test_sequence_meta_rejects_a_size_that_is_not_a_positive_integer(field, text):
    value = int(text) if text.lstrip("-").isdigit() else float(text)
    sizes = {"img_width": 10, "img_height": 10, "num_frames": 10, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be a positive integer, got {value}$"):
        SequenceMeta(fps=30, **sizes)
    SequenceMeta(fps=30, **{**sizes, field: 7.0})  # an integral float is an integer


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"img_width": 10**400}, r"^img_width is too large for a float, got 10{400}$"),
        ({"fps": 10**400}, r"^fps is too large for a float, got 10{400}$"),
        # each size fits, and its square does not
        ({"img_height": 10**200}, r"^the image diagonal must be finite, got a 10 x 10{200} image$"),
        # each square fits, and their sum does not
        ({"img_width": 1e154, "img_height": 1e154}, r"^the image diagonal must be finite, got a 1e\+154 x 1e\+154 image$"),
    ],
)
def test_sequence_meta_rejects_numbers_too_large_for_float_arithmetic(fields, message):
    with pytest.raises(ValueError, match=message):
        SequenceMeta(**{"fps": 30, "img_width": 10, "img_height": 10, "num_frames": 10, **fields})


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0", "-5"])
def test_read_seqinfo_rejects_non_finite_frame_rate(tmp_path, value):
    path = tmp_path / "seqinfo.ini"
    path.write_text(f"seqLength=600\nframeRate={value}\nimWidth=1280\nimHeight=720\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: bad value for frameRate: '{value}'$"):
        read_seqinfo(path)


@pytest.mark.parametrize(
    "key, value, lineno",
    [
        pytest.param(key, text, lineno, id=f"{key}-{name}-{lineno}")
        for key, lineno in [("seqLength", 3), ("imWidth", 4), ("imHeight", 5)]
        for name, text in BAD_SIZES.items()
    ],
)
def test_read_seqinfo_rejects_non_integer_sizes(tmp_path, key, value, lineno):
    fields = {"frameRate": "25", "seqLength": "600", "imWidth": "1280", "imHeight": "720", key: value}
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\n" + "".join(f"{k}={v}\n" for k, v in fields.items()))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {lineno}: bad value for {key}: '{value}'$"):
        read_seqinfo(path)


def test_read_seqinfo_accepts_integral_spellings(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("frameRate=29.97\nseqLength=6e2\nimWidth=1920.0\nimHeight= 1080 \n")
    meta = read_seqinfo(path)
    assert (meta.fps, meta.img_width, meta.img_height, meta.num_frames) == (29.97, 1920, 1080, 600)
    assert all(type(v) is int for v in (meta.img_width, meta.img_height, meta.num_frames))


def test_read_seqinfo_missing_key(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("frameRate=25\n")
    with pytest.raises(ParseError, match="missing"):
        read_seqinfo(path)


def _reference_parse(text):
    """The line-by-line parser the fast path must agree with."""

    def parse_int(field):
        try:
            return int(field)
        except ValueError:
            value = float(field)
            if not value.is_integer():
                raise ValueError(f"not an integer: {field!r}")
            return int(value)

    out = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) < 7:
            if not raw.strip():
                continue
            raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
        try:
            out.append(Detection(parse_int(fields[0]), parse_int(fields[1]), *map(float, fields[2:7])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return out


def _outcome(parse, text):
    try:
        return [tuple(map(repr, dataclasses.astuple(d))) for d in parse(text)]
    except ParseError as exc:
        return str(exc)


GOOD = "1,1,10.5,20,30,40,0.9,-1,-1,-1\n"
FAST_PATH_CORPUS = [
    "# a comment line\n",
    "1_0,2,10,20,30,40,1\n",
    "1,2,1_0.5,20,30,40,1\n",
    "0x10,2,10,20,30,40,1\n",
    "1,2,0x10,20,30,40,1\n",
    " 1 , 2 , 10 , 20 , 30 , 40 , 1 \n",
    "\t1\t,2,10,20,30,40,1\x0c\n",
    "1,\xa02,10,20,30,40,1\n",
    "﻿1,2,10,20,30,40,1\n",
    "1,3.0,10,20,30,40,1\n",
    "1e3,2,10,20,30,40,1\n",
    f"1,{2**53 + 1},10,20,30,40,1\n",
    f"{2**53 + 1},1,10,20,30,40,1\n",
    f"1,{2**53},10,20,30,40,1\n",
    f"1,{2**53 - 1},10,20,30,40,1\n",
    "1,9007199254740993.0,10,20,30,40,1\n",
    "3.5,2,10,20,30,40,1\n",
    "0,2,10,20,30,40,1\n",
    "1e-400,2,10,20,30,40,1\n",
    "1,-2,10,20,30,40,1\n",
    "1,2,10,20,0,40,1\n",
    "1,2,10,20,30,-0.0,1\n",
    "1,2,1 0,20,30,40,1\n",
    "+1,2,+10,.5,5.,6e0,7E+1\n",
    "1,2,-0,-0.0,1e-320,5e-324,1e308\n",
    "1,2,10,20,30,40,1e999\n",
    '1,2,"10",20,30,40,1\n',
    "1,2,10,20,30,40\n",
    "1,2,10,20,30,40,\n",
    "1,2,10,20,30,40,1,\n",
    "1,2,10,20,30,40,1,,,\n",
    "1,2,10,20,30,40,1,-1,-1,-1\n2,2,10,20,30,40,1\n3,2,10,20,30,40,1,8,9,10,11,12\n",
    "1,2,10,20,30,40,1\r\n2,2,10,20,30,40,1\r\n",
    "1,2,10,20,30,40,1\r2,2,10,20,30,40,1\n",
    "1,2,10,20,30,40,1,x\ry\n",
    "1,2,10,20,30,40,1 2,2,10,20,30,40,1\n",
    "\n\n1,2,10,20,30,40,1\n\n",
    "  \t \n1,2,10,20,30,40,1\n",
    "1,2,10,20,30,40,1\n   ",
    "1,2,10,20,30,40,1",
    "1,2,3\n",
    "",
    "\n",
    " \r\n\t\n",
    "1,2,1.05e1,20,30,40,1\n",
    "1,2,+10.5,20,30,40,1\n",
    "1,2,10.,20,30,40,1\n",
    "1,2,.25,20,30,40,1\n",
    "1,2,-0,20,30,40,1\n",
    "007,0002,0010.50,020,30.000,40,01\n",
    "1,2,-,20,30,40,1\n",
    "1,2,-.5,20,30,40,1\n",
    "1,2,--1,20,30,40,1\n",
    "1,2,1-0,20,30,40,1\n",
    "1,2,1.0.0,20,30,40,1\n",
    "1,2,1..0,20,30,40,1\n",
    "1,2,1/2,20,30,40,1\n",
    "1,2,1:2,20,30,40,1\n",
    "1,2,123456789,20,30,40,1\n",
    "1,2,10.12345678901234567,20,30,40,1\n",
    "1,2,12345.12345678901234,20,30,40,1\n",
    "1,2,123456.12345678901234,20,30,40,1\n",
    "1,2,0.9999999999999999,20,30,40,1\n",
    "123456789,2,10,20,30,40,1\n",
    "-1,2,10,20,30,40,1\n",
    "1,2,10,20,30,40,1 \n",
    "1,2,1\r0,20,30,40,1\n",
    "1,2,10,20,30,40,1\r",
    "1,2,10,20,30,40,1\n\n\n",
    "1,2,10,20,30,40,1\r\n\r\n\r\n",
    "1,2,10,20,30,40,1,-1,-1,-1\r\n2,2,10,20,30,40,1,-1,-1,-1",
    "1,2,10,20,30,40,1,-1,-1\n2,2,10,20,30,40,1,-1,-1\n",
    "1,2,10,20,30,40,1,-1,-1,-1\n2,2,10,20,30,40,1,-1,-1\n",
    "1,2,10,20,30,40,1\n\n2,2,10,20,30,40,1\n",
    "1,2,10,20,30,40,1,é\n",
    "1,2,10,20,30,40,1,\ud800\n",
    "1,\u20072,10,20,30,40,1\n",
    "1,2,10,20,30,40,１\n",
    "1,2,10,20,30,40,1,\x00,x\n",
]
FAST_PATH_CORPUS += [
    ",".join(value if k == column else f for k, f in enumerate("4,5,10,20,30,40,1".split(","))) + "\n"
    for column in range(7)
    for value in ("nan", "NaN", "inf", "infinity", "-Infinity")
]
# the lines the line parser reads alone, in both orders: the first bad line wins, and valid ones are read
FAST_PATH_CORPUS += [
    "1,2,10,20,0,40,1\n1,2,3\n",
    "1,2,3\n1,2,10,20,0,40,1\n",
    "0,2,10,20,30,40,1\n \n1,2,10,20,30,40\n",
    "1,2,10,20,30,40\n \n0,2,10,20,30,40,1\n",
    "1,2,10,20,30,40,x\n1,2\n",
    "1,2\n1,2,10,20,30,40,x\n",
    "1e400,2,10,20,30,40,1\n1,2,3\n",
    "1,2,3\n1e400,2,10,20,30,40,1\n",
    f"1,{2**53 + 1},10,20,30,40,1\n1,2,10,20,30,40\n",
    f"1,2,10,20,30,40\n1,{2**53 + 1},10,20,30,40,1\n",
    f"1,{2**53 + 1},10,20,30,40,1\n   \n1,2,10,20,30,40,1,\ud800\n\t\r\n1,2,10,20,30,40,1\r",
    "x\n",
    # a byte from 0x80 up on a short line, alone, after fields and before a row
    "é\n",
    "1,2,3,é\n",
    "é\n1,2,10,20,30,40,1\n",
    "\ud800\n1,2,10,20,30,40,1,é\n",
]


@pytest.mark.parametrize("text", FAST_PATH_CORPUS)
def test_parse_fast_path_matches_line_parser(text, monkeypatch):
    # alone, and between well-formed lines so that line numbers shift
    for whole in (text, GOOD + text + ("" if text.endswith("\n") or not text else "\n") + GOOD):
        assert _outcome(parse_tracks, whole) == _outcome(_reference_parse, whole)
        assert _outcome(parse_tracks, io.StringIO(whole)) == _outcome(_reference_parse, whole)
    # in chunks of about two good lines, where the case starts a chunk, ends one or straddles an edge
    monkeypatch.setattr(mot_io, "_CHUNK_BYTES", 64)
    for lead in range(4):
        whole = GOOD * lead + text + ("" if text.endswith("\n") or not text else "\n") + GOOD * 3
        assert _outcome(parse_tracks, whole) == _outcome(_reference_parse, whole)


def test_parse_empty_input_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n", " \n\t\r\n", " ", "\x1c"):
            assert len(parse_tracks(text)) == 0


def test_parse_rejects_frame_and_id_beyond_int64():
    # the message of Detection's id rule
    with pytest.raises(ParseError, match=rf"^line 2: frame must be in \[1, 2\*\*63\), got {2**63}$"):
        parse_tracks(GOOD + f"{2**63},1,10,20,30,40,1\n")
    with pytest.raises(ParseError, match=rf"^line 2: track_id must be in \[1, 2\*\*63\), got {10**20}$"):
        parse_tracks(GOOD + "1,1e20,10,20,30,40,1\n")


CANONICAL = re.compile(r"-?(\d{1,16})(?:\.(\d{1,22}))?")


def canonical(field):
    """Whether the reader reads ``field`` in numpy: ``-?D{1,16}(.D{1,22})?``, 19 digits at most, leading zeros aside where the whole part is zero."""
    match = CANONICAL.fullmatch(field)
    if not match:
        return False
    digits = match[1] + (match[2] or "")
    return len(digits) <= 19 or (int(match[1]) == 0 and int(digits) < 10**19)


def spell(negative, mantissa, fraction, zeros=0):
    """``±mantissa / 10**fraction`` as a field with ``zeros`` more leading zeros, or None past the grammar."""
    digits = "0" * zeros + str(mantissa).zfill(fraction + 1)
    field = ("-" if negative else "") + digits[: len(digits) - fraction] + ("." + digits[-fraction:] if fraction else "")
    return field if canonical(field) else None


def digit_strings(rng, n):
    """``n`` random fields of the grammar: both signs, 1-16 whole digits, 0-22 fraction digits; past 19 digits, all but the last 19 are zeros."""
    rows = (rng.integers(0, 10, (n, 38)) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    whole, fraction, sign = (rng.integers(lo, hi, n).tolist() for lo, hi in ((1, 17), (0, 23), (0, 2)))
    out = []
    for k in range(n):
        count = whole[k] + fraction[k]
        zeros = max(count - 19, whole[k]) if count > 19 else 0
        row = "0" * zeros + rows[38 * k : 38 * k + count - zeros]
        out.append("-" * sign[k] + row[: whole[k]] + ("." + row[whole[k] :] if fraction[k] else ""))
    return out


def canonical_spellings(rng, n):
    """About ``4 * n`` fields of the grammar: the writer's shortest digits, ``%.kf`` spellings and random digit strings."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4, 15, n)
    pool = _format_rows([values], ["\n"]).split()
    pool += [f"{v:.{k}f}" for v, k in zip(rng.uniform(-1e4, 1e4, n).tolist(), rng.integers(0, 19, n).tolist())]
    pool += digit_strings(rng, 2 * n)
    return [f for f in pool if canonical(f)]


def near_powers_of_two(powers=range(-14, 50)):
    """Every spelling in the grammar of the decimals within one unit in the last digit of the doubles next to 2**k, k in ``powers``."""
    out = []
    for k in powers:
        for j in range(-3, 4):
            value = Fraction(2) ** k * (1 + Fraction(j, 2**53))
            for fraction in range(23):
                mantissa = round(value * 10**fraction)
                out += [spell(False, m, fraction) for m in (mantissa - 1, mantissa, mantissa + 1) if m > 0]
    return [f for f in out if f is not None]


def next_to_power_of_two(values):
    """Which values lie within two units in the last place of a power of two."""
    m = np.abs(np.frexp(values)[0]) * 2.0**53
    return (m <= 2**52 + 2) | (m >= 2**53 - 2)


def left_open(field):
    """Whether the reader may leave the rounding of ``field``, of the grammar, to ``float()``; see ``mot_io._nearest``."""
    whole, _, fraction = field.lstrip("-").partition(".")
    return bool(next_to_power_of_two(float(field))) or (int(whole + fraction) >= 2**53 and len(fraction) <= 4)


@pytest.fixture
def settled(monkeypatch):
    """A list that grows by the text of each field the reader reads with ``float()`` while the test runs."""
    fields = []
    settle = mot_io._settle

    def counting(buf, start, end):
        fields.extend(buf[s:e].decode() for s, e in zip(start.tolist(), end.tolist()))
        return settle(buf, start, end)

    monkeypatch.setattr(mot_io, "_settle", counting)
    return fields


def _rounding_text(pool):
    """Lines ``k,7,x,y,w,h,conf,-1,-1,-1`` from ``pool``, five values a line, sizes made positive and boxes accepted; returns the text and the value rows."""
    pool = pool[: len(pool) - len(pool) % 5]
    rows = np.array(pool).reshape(-1, 5)
    sizes = np.where(np.char.startswith(rows[:, 2:4], "-"), np.char.lstrip(rows[:, 2:4], "-"), rows[:, 2:4])
    sizes[np.array([[float(s) == 0.0 for s in row] for row in sizes])] = "1"
    rows[:, 2:4] = sizes
    # a box Detection rejects takes the repr of each value that makes it accepted
    boxes = np.array([[float(s) for s in row] for row in rows[:, :4].tolist()])
    accepted = np.stack(_accepted_boxes(*boxes.T), axis=1)
    moved = accepted != boxes
    rows[:, :4][moved] = [repr(v) for v in accepted[moved].tolist()]
    return "".join(f"{k + 1},7,{','.join(row)},-1,-1,-1\n" for k, row in enumerate(rows.tolist())), rows


def _assert_rounds_like_float(table, rows):
    for k, column in enumerate((table.x, table.y, table.w, table.h, table.conf)):
        expected = np.array([float(s) for s in rows[:, k].tolist()])
        assert np.array_equal(column.view(np.int64), expected.view(np.int64))


def test_parse_fast_path_rounds_like_float(detections_built, settled):
    # 100k fields of the reader's grammar (the writer's shortest digits, %.kf
    # spellings and random digit strings) and 100k others: random bit
    # patterns (every magnitude, subnormals), short decimals and 20-digit
    # spellings that are not shortest reprs. The reader takes them all; it
    # reads the grammar's fields in numpy except next to a power of two
    rng = np.random.default_rng(23)
    pool = canonical_spellings(rng, 28_000)
    bits = rng.integers(0, 2**64, size=61_000, dtype=np.uint64).view(np.float64)
    pool += [repr(v) for v in bits[np.isfinite(bits)].tolist()]
    pool += [repr(round(v, int(d))) for v, d in zip(rng.uniform(-1e4, 1e4, 25_000).tolist(), rng.integers(0, 8, 25_000))]
    pool += [f"{v:.20e}" for v in rng.uniform(-1e3, 1e3, 15_000).tolist()]
    text, rows = _rounding_text(pool)
    table = parse_tracks(text)
    assert not detections_built  # read in one pass, no Detection built
    assert len(rows) * 5 >= 200_000
    _assert_rounds_like_float(table, rows)
    assert all(left_open(f) for f in settled if canonical(f))


def test_reader_reads_what_the_writer_prints_in_numpy(settled):
    # every number _format_rows prints from digits, full precision included,
    # is read without float(); the others it prints by repr are settled by it
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], 70_000) * rng.uniform(0, 1, 70_000) * 10.0 ** rng.uniform(-4, 15, 70_000)
    values[::7] = np.trunc(values[::7])
    values[3::70] = rng.choice([1e-5, 3e-300, 5e-324, 1e15, 1.5e15, 2.0**60, 1e300], 1000)
    text = _format_rows([values[k::7] for k in range(7)], [","] * 6 + ["\n"])
    assert np.array_equal(_read_values(text)[0].reshape(-1).view(np.int64), (values + 0.0).view(np.int64))  # -0.0 prints as 0
    fields = np.array(text.replace(",", "\n").split())
    a = np.abs(values)
    from_digits = (a < 1e15) & ((a >= 1e-4) | (values == np.trunc(values)))
    assert from_digits.sum() > 60_000 and not set(settled) & set(fields[from_digits].tolist())
    assert sorted(settled) == sorted(f for f in fields.tolist() if not canonical(f))


def test_reader_reads_full_precision_confidences_without_a_detection(detections_built, settled):
    # the writer prints 17 digits for a quarter of the doubles in [0.1, 1)
    rng = np.random.default_rng(3)
    n = 3000
    confidences = rng.uniform(0.01, 1, n)
    table = DetectionTable(np.arange(n) // 10 + 1, np.arange(n) % 10 + 1, *rng.uniform(1, 500, (4, n)), confidences)
    text = write_tracks(table)
    assert max(len(line.split(",")[6]) for line in text.splitlines()) >= 19
    assert parse_tracks(text) == table
    assert not detections_built and not settled


@st.composite
def canonical_fields(draw):
    """A field of the reader's grammar, its mantissa anywhere, next to 2**53, or within a few ulps of a power of two."""
    fraction = draw(st.integers(0, 22))
    top = 10 ** min(19, fraction + 16)
    kind = draw(st.sampled_from(["any", "2**53", "power of two"]))
    if kind == "any":
        mantissa = draw(st.integers(0, top - 1))
    elif kind == "2**53":
        mantissa = 2**53 + draw(st.integers(-1000, 1000))
    else:
        power = Fraction(2) ** draw(st.integers(-14, 49)) * (1 + Fraction(draw(st.integers(-4, 4)), 2**53))
        mantissa = round(power * 10**fraction) + draw(st.integers(-2, 2))
    mantissa = min(max(mantissa, 0), top - 1)
    digits = len(str(mantissa).zfill(fraction + 1))
    zeros = draw(st.integers(0, 16 - (digits - fraction) if mantissa < 10**fraction else min(16, 19 - fraction) - (digits - fraction)))
    return spell(draw(st.booleans()), mantissa, fraction, zeros)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(canonical_fields(), min_size=7, max_size=7), min_size=1, max_size=4), st.sampled_from(["\n", "\r\n"]))
def test_reader_rounds_canonical_fields_like_float(lines, newline):
    expected = np.array([[float(f) for f in line] for line in lines])
    values = _read_values("".join(",".join(line) + newline for line in lines))[0]
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


def test_reader_settles_roundings_next_to_a_power_of_two_alone(detections_built, settled):
    # float(9999999999999999) / 1e16 is 1.0, but the decimal lies below it,
    # where the doubles are twice as dense: float() reads that field alone,
    # and the rest of a large file stays in numpy
    k = np.arange(5000)
    text = write_tracks(DetectionTable(k // 10 + 1, k % 10 + 1, k / 7, k / 3, 1 + k / 9, 2.5 + 0 * k, 0.875 + 0 * k))
    lines = text.splitlines(keepends=True)
    lines[2500] = lines[2500].replace(",0.875,", ",0.9999999999999999,")
    table = parse_tracks("".join(lines))
    assert table.conf[2500] == float("0.9999999999999999") < 1.0
    assert not detections_built and settled == ["0.9999999999999999"]
    for field in near_powers_of_two((-14, -1, 0, 1, 2, 13, 26, 49)):  # the parse sweep reads every power
        assert _read_values(f"1,1,{field},1,1,1,1\n")[0][0, 2] == float(field)


def test_reader_settles_fields_with_non_ascii_text_alone(detections_built, settled):
    # a non-ASCII character past the seventh field is not read, and one inside
    # a field sends only that field to float(); the rest stays in numpy
    k = np.arange(5000)
    lines = write_tracks(DetectionTable(k // 10 + 1, k % 10 + 1, k / 7, k / 3, 1 + k / 9, 2.5 + 0 * k, 0.875 + 0 * k)).splitlines(keepends=True)
    lines[100] = lines[100].replace(",-1,-1,-1", ",é,-1,-1")
    lines[2500] = lines[2500].replace(",", ",\xa0", 1)  # a no-break space before the id
    text = "".join(lines)
    table = parse_tracks(text)
    assert not detections_built and settled == ["\xa01"]
    assert table == DetectionTable.of(_reference_parse(text))


def test_reader_settles_long_whole_parts_with_few_fraction_digits_alone(settled):
    # at v >= 2**(53 - fraction) the residual is not an integer; the first
    # two are exact ties, which float() rounds to even
    left = ["562949953421312.0625", "18014398509481986", "-1234567890123456.125", "9999999999999999999"]
    fields = left + ["123456789012345.6789", "562949953421312.125"]  # below that bound: read in numpy
    values = _read_values(",".join(["1"] + fields) + "\n")[0]
    assert np.array_equal(values[0, 1:].view(np.int64), np.array([float(f) for f in fields]).view(np.int64))
    assert settled == left


def float_or_nan(field):
    try:
        return float(field)
    except ValueError:
        return float("nan")


def read_lines(text):
    """``_read_values(text)``'s values, and the lines it reports as unread, without their newlines."""
    values, _, unread, buf = _read_values(text)
    return values, [buf[s : buf.index(b"\n", s)].decode("utf-8", "surrogatepass") for s in unread.tolist()]


def reference_lines(text):
    """Line by line, what ``read_lines`` should give: the first seven fields of each line of seven or more, read by float() or NaN, and the shorter lines that hold a character."""
    lines = [raw.removesuffix("\n") for raw in io.StringIO(text.replace("\r\n", "\n"))]
    rows = [[float_or_nan(f.strip()) for f in line.split(",")[:7]] for line in lines if line.count(",") >= 6]
    return np.array(rows).reshape(-1, 7), [line for line in lines if line and line.count(",") < 6]


def test_reader_chunks_agree(monkeypatch):
    text = write_tracks([Detection(k // 3 + 1, k % 3 + 1, k * 1.25, -k / 8, 1 + k / 3, 2.5, 0.9) for k in range(300)])
    whole = _read_values(text)[0]
    monkeypatch.setattr(mot_io, "_CHUNK_BYTES", 50)  # about one line a chunk
    assert np.array_equal(_read_values(text)[0].view(np.int64), whole.view(np.int64))
    # a line of another field count in a later chunk is read; one of six fields is left to the line parser
    assert np.array_equal(_read_values(text + "1,2,10,20,30,40,1\n")[0][-1], [1, 2, 10, 20, 30, 40, 1])
    values, unread = read_lines(text + "1,2,10,20,30,40\n")
    assert np.array_equal(values.view(np.int64), whole.view(np.int64)) and unread == ["1,2,10,20,30,40"]


def test_reader_reads_blank_text_as_no_rows():
    for text in ("", "\n", "\n\n\r\n"):
        values = _read_values(text)[0]
        assert values.shape == (0, 7) and values.dtype == np.float64


def empty_runs_at_chunk_edges(lines):
    """``lines`` laid out with runs of empty lines at both ends and on every edge of the reader's chunks, on both sides of it.

    Positions are counted as the reader counts them: in UTF-8 bytes, after
    each ``\\r\\n`` became ``\\n``.
    """
    chunk = mot_io._CHUNK_BYTES
    out, size, lo = ["\n\n\n"], 3, 0  # lo: where the reader's current chunk starts
    for line in lines:
        length = len(line.encode("utf-8", "surrogatepass")) - line.count("\r\n")
        if size + length > lo + chunk:  # the line's newline would be the first at or past lo + chunk, and end the chunk
            out.append("\n" * (lo + chunk + 3 - size))  # instead, an empty line's newline there does
            size, lo = lo + chunk + 3, lo + chunk + 1
        out.append(line)
        size += length
    return "".join(out) + "\n\n\n"


def test_reader_reads_each_chunk_once_across_empty_lines(monkeypatch, detections_built):
    k = np.arange(12_000)
    table = DetectionTable(k // 10 + 1, k % 10 + 1, k / 7, k / 3, 1 + k / 9, 2.5 + 0 * k, 0.875 + 0 * k)
    text = empty_runs_at_chunk_edges(write_tracks(table).splitlines(keepends=True))
    calls = []
    read_chunk = mot_io._read_chunk

    def spy(*args):
        calls.append(args[:3])  # buf, lo, hi
        return read_chunk(*args)

    monkeypatch.setattr(mot_io, "_read_chunk", spy)
    assert parse_tracks(text) == table
    assert not detections_built
    assert len(text) > 2 * mot_io._CHUNK_BYTES and len(calls) >= 3
    assert [lo for _, lo, _ in calls[1:]] == [hi for _, _, hi in calls[:-1]]  # one call per chunk, in text order
    for buf, _, hi in calls[:-1]:
        assert buf[hi - 2 : hi + 2] == b"\n\n\n\n"  # empty lines end just before and after the edge


def test_reader_settles_a_non_ascii_field_in_the_last_chunk_alone(detections_built, settled):
    k = np.arange(12_000)
    table = DetectionTable(k // 10 + 1, k % 10 + 1, k / 7, k / 3, 1 + k / 9, 2.5 + 0 * k, 0.875 + 0 * k)
    lines = write_tracks(table).splitlines(keepends=True)
    lines[-1] = lines[-1].replace(",", ",\xa0", 1)  # a no-break space before the last id
    text = "".join(lines)
    assert len(text) - len(lines[-1]) > 2 * mot_io._CHUNK_BYTES
    assert parse_tracks(text) == table
    assert not detections_built and settled == ["\xa010"]


def test_reader_settles_no_field_for_a_non_ascii_short_line(settled):
    # the byte of a short line before a chunk's first row lies in no field
    text = "é\n1,2,é\n" + write_tracks(DetectionTable.of([Detection(1, 2, 10, 20, 30, 40, 1)]))
    with pytest.raises(ParseError, match="^line 1: expected at least 7 fields, got 1$"):
        parse_tracks(text)
    assert settled == []


def test_reader_reads_odd_lines_alone(detections_built):
    # a line of only spaces, an id past 2**53, a lone surrogate past the seventh field and a lone \r at the end:
    # the line parser reads the first two lines alone, and only the id's line builds a Detection
    k = np.arange(12_000)
    table = DetectionTable(k // 10 + 1, k % 10 + 1, k / 7, k / 3, 1 + k / 9, 2.5 + 0 * k, 0.875 + 0 * k)
    lines = write_tracks(table).splitlines(keepends=True)
    lines[3000] += "    \n"
    lines[6000] = f"601,{2**53 + 1},1.5,2,3,4,0.5,-1,-1,-1\n"
    lines[9000] = lines[9000].replace(",-1,-1,-1", ",\ud800,-1,-1")
    text = "".join(lines) + "1,1,1,1,1,1,1\r"
    parsed = parse_tracks(text)
    assert len(detections_built) == 1
    assert parsed == DetectionTable.of(_reference_parse(text))
    assert parsed.track_id[6000] == 2**53 + 1 and len(parsed) == 12_001


def test_reader_does_not_count_an_empty_line_as_a_field():
    for text in ("1,2,10,20,30,40\n\n", "1,2,10,20,30,40\n\n" + GOOD, "1,2,10,20,30,40\r\n\r\n\r\n" + GOOD):
        assert read_lines(text)[1] == ["1,2,10,20,30,40"]
        with pytest.raises(ParseError, match="^line 1: expected at least 7 fields, got 6$"):
            parse_tracks(text)


@st.composite
def mutated_text(draw):
    """Lines of 7 to 9 fields of the reader's grammar, and in half the draws one character replaced or inserted."""
    whole, tail = st.text("0123456789", min_size=1, max_size=16), st.text("0123456789", max_size=23)
    fields = st.builds(lambda sign, w, t: sign + w + ("." + t if t else ""), st.sampled_from(["", "-"]), whole, tail)
    lines = draw(st.lists(st.lists(fields, min_size=7, max_size=9).map(",".join), min_size=1, max_size=5))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(list("0123456789,-.\n\r +e_é\x1c"))) + text[k + draw(st.integers(0, 1)) :]
    return text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutated_text())
def test_reader_reads_what_it_takes_as_float_does(text):
    (values, unread), (rows, short) = read_lines(text), reference_lines(text)
    assert np.array_equal(values.view(np.int64), rows.view(np.int64)) and unread == short
    assert _outcome(parse_tracks, text) == _outcome(_reference_parse, text)


READER_TEXT = [
    ("LF", "1,2,10.5,20,30,40,1,-1,-1,-1\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1\n"),
    ("CRLF", "1,2,10.5,20,30,40,1,-1,-1,-1\r\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1\r\n"),
    ("no final newline", "1,2,10.5,20,30,40,1,-1,-1,-1\r\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1"),
    ("trailing blank lines", "1,2,10.5,20,30,40,1,-1,-1,-1\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1\n\n\r\n\n"),
    ("empty lines inside", "\n\r\n1,2,10.5,20,30,40,1,-1,-1,-1\n\n\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1\r\n\r\n3,3,1,2,3,4,1,-1,-1,-1"),
    ("seven fields", "1,2,10,20,30,40,1\n2,2,10,20,30,40,1\n"),
    ("nine fields", "1,2,10,20,30,40,1,-1,-1\n2,2,10,20,30,40,1,-1,-1\n"),
    ("mixed field counts", "1,2,10,20,30,40,1,-1,-1\n2,2,10,20,30,40,1\n3,2,10,20,30,40,1,-1,-1,-1,x\n"),
    ("garbage past the seventh field", "1,2,10,20,30,40,1,x y,+z,\t\n2,2,10,20,30,40,1,1e5,.,\x00\n"),
    ("leading and signed zeros", "007,02,-0,-0.0,0030.500,40,00\n"),
    ("integral frames", "1.0,2.000,10,20,30,40,1\n"),
    ("widest fields", "9007199254740991,99999999,-1234567890123456.125,0.0001234567890123456789,1,2,0.3000000000000000444089\n"),
    ("full precision", "1,2,0.30000000000000004,0.00012345678901234567,123456789012.34567,1e-05,0.9999999999999999\n"),
    ("other spellings", "1e3,+2,1.05e1, 20 ,\t30.,.25,1_0\n2,2,-1e-320,1E+2,1.5e15,0.5,\x1c1\x1c\n"),
    ("non-ASCII past the seventh field", "1,2,10.5,20,30,40,1,é,-1,-1\n2,3,-4.25,0.5,30,40,0.9,-1,-1,-1\n"),
    ("no-break space in an id", "1,2,10.5,20,30,40,1,-1,-1,-1\n2,\xa03,-4.25,0.5,30,40,0.9\u2003,-1,-1,-1\n"),
]


@pytest.mark.parametrize("text", [c[1] for c in READER_TEXT], ids=[c[0] for c in READER_TEXT])
def test_reader_takes_text_with_regular_lines(text, detections_built):
    table = parse_tracks(text)
    assert not detections_built
    assert [tuple(map(repr, dataclasses.astuple(d))) for d in table] == _outcome(_reference_parse, text)


def test_detection_table_contract():
    dets = [Detection(2, 1, 1.5, 2.0, 3.0, 4.0, 0.5), Detection(1, 3, -1.0, 0.0, 1.0, 1.0, 1.0)]
    table = DetectionTable.of(dets)
    assert DetectionTable.of(table) is table
    assert table == dets and table == tuple(dets) and table != dets[:1] and table != dets[::-1]
    assert table == DetectionTable(*zip(*[dataclasses.astuple(d) for d in dets]))
    assert len(table) == 2 and table[1] == dets[1] and table[-1] == dets[1] and list(table) == dets
    assert table.frame.dtype == np.int64 and table.x.dtype == np.float64
    assert type(table[0].x) is float and type(table[0].frame) is int
    part = table[1:]
    assert isinstance(part, DetectionTable) and part == dets[1:] and np.shares_memory(part.x, table.x)
    for column in table.columns:
        with pytest.raises(ValueError):
            column[0] = 1
    assert table.relabeled(9).track_id.tolist() == [9, 9]
    assert table.relabeled([4, 5]) == [dataclasses.replace(d, track_id=t) for d, t in zip(dets, (4, 5))]
    with pytest.raises(ValueError, match=r"^row 0: track_id must be in \[1, 2\*\*63\), got 0$"):
        table.relabeled(0)
    assert DetectionTable.concat([table, part]) == dets + dets[1:]
    assert len(DetectionTable.concat([])) == 0
    assert table.take(np.array([1, 0])) == dets[::-1]
    assert table.boxes.tolist() == [list(d.box) for d in dets]
    with pytest.raises(TypeError):
        hash(table)


def test_detection_table_checks_rows_like_detection():
    with pytest.raises(ValueError, match=r"^row 1: box size must be positive, got w=0.0, h=1.0$"):
        DetectionTable([1, 2], [1, 1], [0, 0], [0, 0], [1, 0], [1, 1], [1, 1])
    with pytest.raises(ValueError, match=r"^row 0: frame must be in \[1, 2\*\*63\), got 0$"):
        DetectionTable([0], [1], [0], [0], [1], [1], [1])
    with pytest.raises(ValueError, match=r"^row 0: box and conf must be finite"):
        DetectionTable([1], [1], [0], [0], [1], [1], [float("nan")])
    with pytest.raises(ValueError, match="differ in length"):
        DetectionTable([1, 2], [1], [0], [0], [1], [1], [1])
    source = np.array([1.0, 2.0])
    table = DetectionTable([1, 2], [1, 1], source, source, source, source, source)
    source[0] = 5.0  # the table holds its own copy
    assert table.x.tolist() == [1.0, 2.0]


def test_write_table_matches_write_of_its_rows():
    rng = np.random.default_rng(3)
    n = 500
    table = DetectionTable(
        rng.integers(1, 50, n), rng.integers(1, 9, n), [round(v, k % 4) for k, v in enumerate(rng.uniform(-50, 500, n))],
        rng.uniform(-50, 500, n), rng.uniform(0.5, 80, n), np.round(rng.uniform(1, 80, n)), rng.choice([-1.0, 1.0, 0.5], n),
    )
    assert write_tracks(table) == _reference_write(table)
    assert parse_tracks(write_tracks(table)) == sorted(table, key=lambda d: (d.frame, d.track_id))


def test_detection_table_concatenates_like_a_list():
    dets = [Detection(1, 1, 0.0, 0.0, 1.0, 1.0, 1.0), Detection(2, 1, 1.0, 0.0, 1.0, 1.0, 1.0)]
    table = DetectionTable.of(dets)
    assert table[:1] + table[1:] == dets
    assert isinstance(table + dets, DetectionTable) and table + dets == dets + dets


def _assert_writes_like_its_rows(table):
    """The table writer against the one-value-at-a-time rule, its rows as a list, and the stream."""
    text = write_tracks(table)
    assert text == _reference_write(table)
    assert write_tracks(list(table)) == text
    stream = io.StringIO()
    assert write_tracks(table, stream) == text
    assert stream.getvalue() == text
    return text


def _finite_bit_patterns(rng, n):
    values = rng.integers(0, 2**64, size=3 * n, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)][:n]


def test_write_table_matches_rows_on_random_bit_patterns():
    rng = np.random.default_rng(11)
    n = 3000
    x, y, w, h, conf = (_finite_bit_patterns(rng, n) for _ in range(5))
    w, h = (np.where(v == 0, 1.0, np.abs(v)) for v in (w, h))
    boxes = _accepted_boxes(x, y, w, h)
    _assert_writes_like_its_rows(DetectionTable(rng.integers(1, 200, n), rng.integers(1, 20, n), *boxes, conf))


def test_write_table_prints_signed_zeros_as_zero():
    x = [0.0, -0.0, -0.0, 0.0, 1.5, -0.0]
    table = DetectionTable(range(1, 7), [1] * 6, x, [0.0] * 6, [1.0] * 6, [1.0] * 6, [-0.0] * 6)
    text = _assert_writes_like_its_rows(table)
    assert [line.split(",")[2] for line in text.splitlines()] == ["0", "0", "0", "0", "1.5", "0"]
    assert "-0" not in text


def test_write_table_integral_values_around_1e15():
    edges = [1e15 - 1, 1e15, 1e15 + 1, 1e16, 2.0**53, 2.0**53 + 2, 999999999999999.5, 123.0, 1e290]
    values = edges + [-v for v in edges]
    n = len(values)
    sides = [abs(v) for v in values]
    table = DetectionTable(range(1, n + 1), [1] * n, values, values[::-1], sides, sides[::-1], values)
    text = _assert_writes_like_its_rows(table)
    assert text.splitlines()[:4] == [
        "1,1,999999999999999,-1e+290,999999999999999,1e+290,999999999999999,-1,-1,-1",
        "2,1,1000000000000000.0,-123,1000000000000000.0,123,1000000000000000.0,-1,-1,-1",
        "3,1,1000000000000001.0,-999999999999999.5,1000000000000001.0,999999999999999.5,1000000000000001.0,-1,-1,-1",
        "4,1,1e+16,-9007199254740994.0,1e+16,9007199254740994.0,1e+16,-1,-1,-1",
    ]


def test_write_table_matches_rows_on_subnormals():
    tiny = np.nextafter(0.0, 1.0)
    values = [tiny, -tiny, tiny * 3, 2.2250738585072e-308, -1e-310, 5e-324]
    n = len(values)
    # a subnormal side needs a large other side for a normal area
    large = [2.0**1000] * n
    text = _assert_writes_like_its_rows(
        DetectionTable(range(1, n + 1), [1] * n, values, values, np.abs(values), large, values)
    )
    assert text.splitlines()[0] == "1,1,5e-324,5e-324,5e-324,1.0715086071862673e+301,5e-324,-1,-1,-1"
    text = _assert_writes_like_its_rows(
        DetectionTable(range(1, n + 1), [1] * n, values, values, large, np.abs(values), values)
    )
    assert text.splitlines()[0] == "1,1,5e-324,5e-324,1.0715086071862673e+301,5e-324,5e-324,-1,-1,-1"


def test_write_table_matches_rows_with_many_repeated_values():
    rng = np.random.default_rng(5)
    n = 5000
    pool = np.array([0.5, 1.0, -0.0, 0.1, 1e15, 7.0, 2.0**60, 1 / 3])
    x, y, w, h, conf = (rng.choice(pool, n) for _ in range(5))
    w, h = np.where(w > 0, w, 2.0), np.where(h > 0, h, 3.0)
    boxes = _accepted_boxes(x, y, w, h)
    _assert_writes_like_its_rows(DetectionTable(rng.integers(1, 4, n), rng.integers(1, 3, n), *boxes, conf))


def test_write_table_matches_rows_with_ids_up_to_int64_max():
    big = [2**63 - 1, 2**62, 2**53 + 1, 1, 10**15, 10**16]
    n = len(big)
    table = DetectionTable(big, big[::-1], [0.5] * n, [1.0] * n, [1.0] * n, [1.0] * n, [1.0] * n)
    text = _assert_writes_like_its_rows(table)
    assert text.splitlines()[-1] == f"{2**63 - 1},{10**16},0.5,1,1,1,1,-1,-1,-1"


def test_write_empty_table():
    assert _assert_writes_like_its_rows(DetectionTable.of(())) == ""


@st.composite
def tables(draw):
    n = draw(st.integers(0, 25))
    ids = hnp.arrays(np.int64, n, elements=st.integers(1, 2**63 - 1))
    values = hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False))
    sizes = hnp.arrays(np.float64, n, elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    frame, tid, x, y, w, h, conf = (draw(s) for s in (ids, ids, values, values, sizes, sizes, values))
    return DetectionTable(frame, tid, *_accepted_boxes(x, y, w, h), conf)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_write_table_matches_rows_on_generated_columns(table):
    _assert_writes_like_its_rows(table)
