import copy
import dataclasses
import io
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trackstitch.mot_io import (
    Detection,
    ParseError,
    SequenceMeta,
    parse_tracks,
    read_seqinfo,
    write_tracks,
)
from trackstitch.mot_io import DetectionTable


def test_parse_single_line():
    dets = parse_tracks("1,2,10.0,20.0,30.0,40.0,1,-1,-1,-1")
    assert dets == [Detection(frame=1, track_id=2, x=10, y=20, w=30, h=40, conf=1)]


def test_parse_empty_input():
    assert parse_tracks("") == []
    assert parse_tracks(io.StringIO("")) == []


def test_parse_rejects_zero_width():
    with pytest.raises(ParseError, match="line 1"):
        parse_tracks("1,2,10,20,0,40,1,-1,-1,-1")


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
    ("zero id", "1,0,10,20,30,40,1\n", "line 1: track_id must be >= 1, got 0"),
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
    moved = d.relabeled(12)
    assert moved.track_id == 12
    assert dataclasses.replace(moved, track_id=d.track_id) == d
    with pytest.raises(ValueError):
        d.relabeled(0)


def _fmt(value):
    # the track writer's number format: integral values below 1e15 without a
    # decimal point, everything else as repr
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def test_write_matches_number_format():
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-20, 20, size=(2000, 5))
    values = mags * rng.choice([-1.0, 1.0], size=mags.shape)
    values[::3] = np.round(values[::3])  # integral values at every magnitude
    edges = [-0.0, 0.0, 1e15 - 1, 1e15, -1e15, 5e15, -5e15, 1e16, float(2**53), 1e-5, 9999999999999998.0, 0.5]
    rows = [[float(v) for v in row] for row in values]
    rows += [[e, -e, abs(e) or 1.0, abs(e) or 2.0, e] for e in edges]
    rows += [[3, -4, 5, 6, 1], [0, 0, 2**53, 10**16, -1]]  # int fields
    dets = []
    for k, (x, y, w, h, conf) in enumerate(rows):
        # positive, nonzero sizes: the magnitude survives, only the sign changes
        w, h = abs(w) or 1.0, abs(h) or 1.0
        dets.append(Detection(k + 1, 1 + k % 3, x, y, w, h, conf))
    expected = "".join(
        f"{d.frame},{d.track_id},{_fmt(d.x)},{_fmt(d.y)},{_fmt(d.w)},{_fmt(d.h)},{_fmt(d.conf)},-1,-1,-1\n"
        for d in dets
    )
    assert write_tracks(dets) == expected


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
detections = st.builds(
    Detection, st.integers(1, 10**6), st.integers(1, 10**6), finite, finite, positive, positive, finite
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


def test_sequence_meta_diagonal():
    meta = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=10)
    assert meta.diagonal == pytest.approx(np.hypot(1920, 1080), abs=0)


def test_read_seqinfo(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\nname=demo\nframeRate=25\nseqLength=600\nimWidth=1280\nimHeight=720\n")
    meta = read_seqinfo(path)
    assert (meta.fps, meta.img_width, meta.img_height, meta.num_frames) == (25, 1280, 720, 600)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0])
def test_sequence_meta_rejects_non_finite_or_non_positive_fps(fps):
    with pytest.raises(ValueError, match="^fps must be finite and positive, got "):
        SequenceMeta(fps=fps, img_width=10, img_height=10, num_frames=10)


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0", "-5"])
def test_read_seqinfo_rejects_non_finite_frame_rate(tmp_path, value):
    path = tmp_path / "seqinfo.ini"
    path.write_text(f"seqLength=600\nframeRate={value}\nimWidth=1280\nimHeight=720\n")
    with pytest.raises(ParseError, match=f"^line 2: bad value for frameRate: '{value}'$"):
        read_seqinfo(path)


@pytest.mark.parametrize(
    "key, value, lineno",
    [("imWidth", "inf", 4), ("imWidth", "1920.7", 4), ("seqLength", "1.5", 3), ("imHeight", "nan", 5), ("imHeight", "1e400", 5)],
)
def test_read_seqinfo_rejects_non_integer_sizes(tmp_path, key, value, lineno):
    fields = {"frameRate": "25", "seqLength": "600", "imWidth": "1280", "imHeight": "720", key: value}
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\n" + "".join(f"{k}={v}\n" for k, v in fields.items()))
    with pytest.raises(ParseError, match=f"^line {lineno}: bad value for {key}: '{value}'$"):
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
]
FAST_PATH_CORPUS += [
    ",".join(value if k == column else f for k, f in enumerate("4,5,10,20,30,40,1".split(","))) + "\n"
    for column in range(7)
    for value in ("nan", "NaN", "inf", "infinity", "-Infinity")
]


@pytest.mark.parametrize("text", FAST_PATH_CORPUS)
def test_parse_fast_path_matches_line_parser(text):
    # alone, and between well-formed lines so that line numbers shift
    for whole in (text, GOOD + text + ("" if text.endswith("\n") or not text else "\n") + GOOD):
        assert _outcome(parse_tracks, whole) == _outcome(_reference_parse, whole)
        assert _outcome(parse_tracks, io.StringIO(whole)) == _outcome(_reference_parse, whole)


def test_parse_empty_input_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n", " \n\t\r\n"):
            assert len(parse_tracks(text)) == 0


def test_parse_rejects_frame_and_id_beyond_int64():
    with pytest.raises(ParseError, match=r"^line 2: frame and track_id must be below 2\*\*63"):
        parse_tracks(GOOD + f"{2**63},1,10,20,30,40,1\n")


def test_parse_fast_path_rounds_like_float(detections_built):
    # 100k numbers: random bit patterns (every magnitude, subnormals), short
    # decimals and 20-digit spellings that are not shortest reprs
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, size=61_000, dtype=np.uint64).view(np.float64)
    pool = [repr(v) for v in bits[np.isfinite(bits)].tolist()]
    pool += [repr(round(v, int(d))) for v, d in zip(rng.uniform(-1e4, 1e4, 25_000).tolist(), rng.integers(0, 8, 25_000))]
    pool += [f"{v:.20e}" for v in rng.uniform(-1e3, 1e3, 15_000).tolist()]
    pool = pool[: len(pool) - len(pool) % 5]
    rows = np.array(pool).reshape(-1, 5)
    sizes = np.where(np.char.startswith(rows[:, 2:4], "-"), np.char.lstrip(rows[:, 2:4], "-"), rows[:, 2:4])
    sizes[np.array([[float(s) == 0.0 for s in row] for row in sizes])] = "1"
    rows[:, 2:4] = sizes
    text = "".join(f"{k + 1},7,{','.join(row)},-1,-1,-1\n" for k, row in enumerate(rows.tolist()))
    table = parse_tracks(text)
    assert not detections_built  # read in one pass, no Detection built
    assert len(rows) * 5 >= 100_000
    for k, column in enumerate((table.x, table.y, table.w, table.h, table.conf)):
        expected = np.array([float(s) for s in rows[:, k].tolist()])
        assert np.array_equal(column.view(np.int64), expected.view(np.int64))


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
    with pytest.raises(ValueError, match="track_id must be >= 1"):
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
    with pytest.raises(ValueError, match=r"^row 0: frame must be >= 1, got 0$"):
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
    assert write_tracks(table) == write_tracks(list(table))
    assert parse_tracks(write_tracks(table)) == sorted(table, key=lambda d: (d.frame, d.track_id))


def test_detection_table_concatenates_like_a_list():
    dets = [Detection(1, 1, 0.0, 0.0, 1.0, 1.0, 1.0), Detection(2, 1, 1.0, 0.0, 1.0, 1.0, 1.0)]
    table = DetectionTable.of(dets)
    assert table[:1] + table[1:] == dets
    assert isinstance(table + dets, DetectionTable) and table + dets == dets + dets


def _assert_writes_like_its_rows(table):
    """The table writer against the row writer, and the stream against the returned text."""
    text = write_tracks(table)
    assert text == write_tracks(list(table))
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
    _assert_writes_like_its_rows(DetectionTable(rng.integers(1, 200, n), rng.integers(1, 20, n), x, y, w, h, conf))


def test_write_table_prints_signed_zeros_as_zero():
    x = [0.0, -0.0, -0.0, 0.0, 1.5, -0.0]
    table = DetectionTable(range(1, 7), [1] * 6, x, [0.0] * 6, [1.0] * 6, [1.0] * 6, [-0.0] * 6)
    text = _assert_writes_like_its_rows(table)
    assert [line.split(",")[2] for line in text.splitlines()] == ["0", "0", "0", "0", "1.5", "0"]
    assert "-0" not in text


def test_write_table_integral_values_around_1e15():
    edges = [1e15 - 1, 1e15, 1e15 + 1, 1e16, 2.0**53, 2.0**53 + 2, 999999999999999.5, 123.0, 1e300]
    values = edges + [-v for v in edges]
    n = len(values)
    table = DetectionTable(range(1, n + 1), [1] * n, values, values[::-1], [abs(v) for v in values], [1.0] * n, values)
    text = _assert_writes_like_its_rows(table)
    assert text.splitlines()[:4] == [
        "1,1,999999999999999,-1e+300,999999999999999,1,999999999999999,-1,-1,-1",
        "2,1,1000000000000000.0,-123,1000000000000000.0,1,1000000000000000.0,-1,-1,-1",
        "3,1,1000000000000001.0,-999999999999999.5,1000000000000001.0,1,1000000000000001.0,-1,-1,-1",
        "4,1,1e+16,-9007199254740994.0,1e+16,1,1e+16,-1,-1,-1",
    ]


def test_write_table_matches_rows_on_subnormals():
    tiny = np.nextafter(0.0, 1.0)
    values = [tiny, -tiny, tiny * 3, 2.2250738585072e-308, -1e-310, 5e-324]
    n = len(values)
    text = _assert_writes_like_its_rows(
        DetectionTable(range(1, n + 1), [1] * n, values, values, np.abs(values), np.abs(values), values)
    )
    assert text.splitlines()[0] == "1,1,5e-324,5e-324,5e-324,5e-324,5e-324,-1,-1,-1"


def test_write_table_matches_rows_with_many_repeated_values():
    rng = np.random.default_rng(5)
    n = 5000
    pool = np.array([0.5, 1.0, -0.0, 0.1, 1e15, 7.0, 2.0**60, 1 / 3])
    x, y, w, h, conf = (rng.choice(pool, n) for _ in range(5))
    w, h = np.where(w > 0, w, 2.0), np.where(h > 0, h, 3.0)
    _assert_writes_like_its_rows(DetectionTable(rng.integers(1, 4, n), rng.integers(1, 3, n), x, y, w, h, conf))


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
    return DetectionTable(draw(ids), draw(ids), draw(values), draw(values), draw(sizes), draw(sizes), draw(values))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_write_table_matches_rows_on_generated_columns(table):
    _assert_writes_like_its_rows(table)
