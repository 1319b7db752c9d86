"""The bytes of one sequence of each benchmark shape, pinned by sha256.

Each case builds sub-seed 1000 (seed 1, sequence 0) with the sizes, the
corruption settings and the cutter setting of its workload in
``perfbench/inputs.py``, and runs the bench's refine path on it: parse the
written tracker output, refine, write. A change that must leave the outputs
byte-identical keeps all three digests of every shape.
"""

import hashlib

import pytest

from trackstitch import (
    CorruptionConfig,
    PipelineConfig,
    ScenarioConfig,
    corrupt,
    generate,
    parse_tracks,
    refine_detections,
    write_tracks,
)

SHAPES = {
    "fragmented": (
        dict(num_objects=40, num_frames=250),
        dict(random_cuts_per_track=2, gap_frames=(1, 3)),
        True,
    ),
    "long": (
        dict(num_objects=20, num_frames=3000),
        dict(random_cuts_per_track=2, gap_frames=(1, 3), dropout=0.05),
        False,
    ),
    "crossing": (
        dict(num_objects=30, num_frames=600, crossings=10),
        dict(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, gap_frames=(1, 3)),
        True,
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "shape, tracker_digest, refined_digest, log_digest",
    [
        (
            "fragmented",
            "dec693015141da4af0f933f924700bd7575ce9932d534ce9951ef0741aba3dc6",
            "ed9e6d2fe0e27207629503a6ebb0478e2f6a5e39c1c581c088e404006f1243df",
            "113dc58c534200a123cf8432895ff101a8670f1b3fddce3085e41cd17f31088c",
        ),
        (
            "long",
            "10b7f2aa2ffbba5ad6259804e2f64c2a3f300c6b39be1d85e3d330f988b6d731",
            "67705e41cf8161bcb3992f8f49c3e37e1ae781b81ad6b72044bdfc3e441299e4",
            "2945270c79a50ceb3b6774470b9e96e3f4cde8c583dc60edf8705df8466d74b8",
        ),
        (
            "crossing",
            "376b4d3d4d3f84af4f42e7a4f264d4aed43b2257428a771c54df58c3573317d7",
            "4a3fa666e614c5ea19b1f87700218b755a824b4e923b3583b1dfddac42818275",
            "65ea063ed102f2d031ef06c89a07e16e516f0b6d3a56085f6d1e9ff961abd399",
        ),
    ],
    ids=list(SHAPES),
)
def test_bench_shape_bytes_are_pinned(shape, tracker_digest, refined_digest, log_digest):
    scenario, corruption, cutter = SHAPES[shape]
    seed = 1000
    gt, meta = generate(ScenarioConfig(**scenario, seed=seed))
    tracker, log = corrupt(gt, CorruptionConfig(**corruption, seed=seed))
    tracker_text = write_tracks(tracker)
    cfg = PipelineConfig()
    cfg.cutter_enabled = cutter
    refined, _ = refine_detections(parse_tracks(tracker_text), meta, cfg)
    assert sha256(tracker_text) == tracker_digest
    assert sha256(write_tracks(refined)) == refined_digest
    assert sha256(repr(log)) == log_digest
