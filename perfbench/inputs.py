"""Workload shapes and seeded input generation for the refine benchmark.

Run as a script, this builds one workload's inputs from a seed and prints them
as one JSON object on stdout:

    python3 perfbench/inputs.py --workload fragmented --seed 3 [--tiny]

The benchmark runs it in a child process, once per set-up repetition, so that
every repetition pays the program's import afresh and input generation does
not set the refining process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One batch of synthetic sequences and the pipeline settings to refine them with."""

    name: str
    sequences: int
    num_objects: int
    num_frames: int
    corruption: dict = field(default_factory=dict)
    crossings: int = 0
    cutter: bool = True
    tiny_objects: int = 6
    tiny_frames: int = 120


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fragmented",
            sequences=6,
            num_objects=40,
            num_frames=250,
            corruption=dict(random_cuts_per_track=2, gap_frames=(1, 3)),
        ),
        Workload(
            "long",
            sequences=1,
            num_objects=20,
            num_frames=3000,
            corruption=dict(random_cuts_per_track=2, gap_frames=(1, 3), dropout=0.05),
            cutter=False,
            tiny_frames=300,
        ),
        Workload(
            "crossing",
            sequences=4,
            num_objects=30,
            num_frames=600,
            crossings=10,
            corruption=dict(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, gap_frames=(1, 3)),
            tiny_objects=8,
            tiny_frames=150,
        ),
    )
}


def program_available() -> bool:
    return (SRC / "trackstitch" / "__init__.py").is_file()


def import_program():
    """Import trackstitch from this checkout's sources, never from an installed copy."""
    if not program_available():
        raise SystemExit(f"trackstitch sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # numpy's BLAS would start a thread per core on import; the program needs
    # none, and the benchmark runs on few shared cores, so keep it to one
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    import trackstitch

    if Path(trackstitch.__file__).resolve().parent != SRC / "trackstitch":
        raise SystemExit(f"imported trackstitch from {trackstitch.__file__}, not from {SRC}")
    return trackstitch


def build(workload: Workload, seed: int, tiny: bool) -> dict:
    """Import the program and build the workload's inputs; returns the JSON payload.

    ``setup_s`` covers the import and the generate -> corrupt -> write_tracks
    chain of every sequence; ``spans`` holds one span per synth call.
    """
    started = time.perf_counter()
    ts = import_program()
    tracer = Tracer()
    sequences = []
    for k in range(workload.sequences):
        sub_seed = seed * 1000 + k
        scenario = ts.ScenarioConfig(
            num_objects=workload.tiny_objects if tiny else workload.num_objects,
            num_frames=workload.tiny_frames if tiny else workload.num_frames,
            crossings=min(workload.crossings, 2) if tiny else workload.crossings,
            seed=sub_seed,
        )
        with tracer.span("setup", k):
            with tracer.span("synth.generate", k):
                gt, meta = ts.generate(scenario)
            with tracer.span("synth.corrupt", k):
                tracker, log = ts.corrupt(gt, ts.CorruptionConfig(**workload.corruption, seed=sub_seed))
            with tracer.span("synth.write_tracks", k):
                gt_text = ts.write_tracks(gt)
                tracker_text = ts.write_tracks(tracker)
        sequences.append(
            {
                "seed": sub_seed,
                "meta": [meta.fps, meta.img_width, meta.img_height, meta.num_frames],
                "gt": gt_text,
                "tracker": tracker_text,
                "cuts": [[c.left_id, c.right_id] for c in log.cuts],
                "swaps": [[s.source_a, s.source_b, s.frame] for s in log.swaps],
                "fragment_source": {str(f.id): f.source for f in log.fragments},
            }
        )
    return {"setup_s": time.perf_counter() - started, "sequences": sequences, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build one benchmark workload's inputs as JSON on stdout.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every sequence (self-test scale)")
    args = parser.parse_args(argv)
    json.dump(build(WORKLOADS[args.workload], args.seed, args.tiny), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
