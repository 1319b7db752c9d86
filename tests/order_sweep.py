"""Check that refining and scoring do not depend on the order of the input rows, on the crossing scenes of seeds 1 to 24.

    PYTHONPATH=src python tests/order_sweep.py [--seeds 24] [--shuffles 2]

Each seed builds the bench's crossing workload scene: 30 objects, 600
frames, 10 crossings, identity swaps and fragment cuts at 0.5, 2 % dropout
and gaps of 1 to 3 frames. The ground truth, the tracker output and the
refined output are each shuffled by a seeded random permutation of their
rows. The ``repr`` of ``evaluate_sequence`` and of ``clear_frame_matchings``,
for the tracker and for the refined output, and the bytes ``write_tracks``
gives for a refine of the shuffled tracker output must equal those of the
unshuffled input. The predicted ids of the tracker and of the refined output
are also relabeled by a seeded permutation of those ids, which must leave
IDF1 the same; MOTA may change, since the Hungarian step of CLEAR breaks its
ties by id. pytest does not collect this file: it runs more scenes than
tier-1 should, once per CI job. Exits non-zero on the first mismatch.
"""

import argparse
import sys
import time

import numpy as np

from trackstitch import (
    CorruptionConfig,
    ScenarioConfig,
    clear_frame_matchings,
    corrupt,
    evaluate_sequence,
    generate,
    idf1,
    refine_detections,
    write_tracks,
)


def scores(gt, pred) -> str:
    return repr((evaluate_sequence(gt, pred), clear_frame_matchings(gt, pred)))


def check(seed: int, shuffles: int) -> None:
    gt, meta = generate(ScenarioConfig(num_objects=30, num_frames=600, crossings=10, seed=seed))
    tracker, _ = corrupt(gt, CorruptionConfig(swap_prob=0.5, fragment_prob=0.5, dropout=0.02, gap_frames=(1, 3), seed=seed))
    refined, _ = refine_detections(tracker, meta)
    expected = {"tracker": scores(gt, tracker), "refined": scores(gt, refined)}
    written = write_tracks(refined)
    rng = np.random.default_rng(seed)
    for _ in range(shuffles):
        g, t, r = (table.take(rng.permutation(len(table))) for table in (gt, tracker, refined))
        for name, pred in (("tracker", t), ("refined", r)):
            if scores(g, pred) != expected[name]:
                raise SystemExit(f"seed {seed}: the scores of the {name} output depend on the row order")
        if write_tracks(refine_detections(t, meta)[0]) != written:
            raise SystemExit(f"seed {seed}: refine's output depends on the row order")
    for name, pred in (("tracker", tracker), ("refined", refined)):
        ids = np.unique(pred.track_id)
        relabeled = pred.relabeled(rng.permutation(ids)[np.searchsorted(ids, pred.track_id)])
        if idf1(gt, relabeled) != idf1(gt, pred):
            raise SystemExit(f"seed {seed}: the IDF1 of the {name} output depends on its predicted ids")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--shuffles", type=int, default=2)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    for seed in range(1, args.seeds + 1):
        check(seed, args.shuffles)
    print(
        f"{args.seeds} crossing scenes x {args.shuffles} shuffles: scores and refined bytes do not depend on the row order,"
        " nor IDF1 on the predicted ids"
        f" ({time.perf_counter() - started:.1f} s, numpy {np.__version__})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
