import io

import numpy as np
import pytest

from trackstitch.mot_io import (
    Detection,
    ParseError,
    SequenceMeta,
    parse_tracks,
    read_seqinfo,
    write_tracks,
)


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


def test_sequence_meta_diagonal():
    meta = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=10)
    assert meta.diagonal == pytest.approx(np.hypot(1920, 1080), abs=0)


def test_read_seqinfo(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\nname=demo\nframeRate=25\nseqLength=600\nimWidth=1280\nimHeight=720\n")
    meta = read_seqinfo(path)
    assert (meta.fps, meta.img_width, meta.img_height, meta.num_frames) == (25, 1280, 720, 600)


def test_read_seqinfo_missing_key(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("frameRate=25\n")
    with pytest.raises(ParseError, match="missing"):
        read_seqinfo(path)
