"""Command-line interface: refine / eval / synth.

Exit status is 0 on success and 1 on any error; output files are written
atomically, so a failed run leaves no partial files behind.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from . import evaluation, mot_io, synth
from .config import PipelineConfig, load_pipeline_config, load_scenario
from .pipeline import refine_detections


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackstitch",
        description="Post-process multi-object tracker output: cut, re-associate, interpolate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="refine a MOTChallenge track file")
    p.add_argument("input", help="input track file")
    p.add_argument("output", help="refined track file to write")
    p.add_argument("--seqinfo", help="seqinfo file with frameRate/imWidth/imHeight/seqLength")
    p.add_argument("--fps", type=float, help="frame rate (alternative to --seqinfo)")
    p.add_argument("--width", type=int, help="image width in pixels")
    p.add_argument("--height", type=int, help="image height in pixels")
    p.add_argument("--config", help="pipeline config file (flat key = value)")
    p.add_argument("--no-cutter", action="store_true", help="disable the tracklet cutter")
    p.add_argument("--no-interp", action="store_true", help="disable gap interpolation")
    p.add_argument("--dump-candidates", metavar="FILE", help="write the candidate table as TSV")

    p = sub.add_parser("eval", help="score a prediction against ground truth (MOTA, IDF1)")
    p.add_argument("gt", help="ground-truth track file")
    p.add_argument("pred", help="predicted track file")
    p.add_argument("--iou-thresh", type=float, default=0.5, help="match gate (default 0.5)")
    p.add_argument("--seq-name", default="sequence", help="name used in the report")

    p = sub.add_parser("synth", help="generate a synthetic gt + corrupted tracker file")
    p.add_argument("scenario", help="scenario config file (flat key = value)")
    p.add_argument("--out-dir", required=True, help="directory for gt.txt, tracker.txt, seqinfo.ini, corruption_log.tsv")
    return parser


def _sequence_meta(args, detections: mot_io.DetectionTable) -> mot_io.SequenceMeta:
    if args.seqinfo:
        return mot_io.read_seqinfo(args.seqinfo)
    if args.fps is None or args.width is None or args.height is None:
        raise ValueError("provide --seqinfo or all of --fps/--width/--height")
    num_frames = detections.frame.max().item() if len(detections) else 1
    return mot_io.SequenceMeta(args.fps, args.width, args.height, num_frames)


def _cmd_refine(args) -> int:
    if args.seqinfo and (args.fps, args.width, args.height) != (None, None, None):
        raise ValueError("provide --seqinfo or --fps/--width/--height, not both")
    # a dump on the output would share its atomic writer's temporary file, and one on the input would replace it
    for role, path in (("input", args.input), ("output", args.output)):
        if args.dump_candidates and Path(args.dump_candidates).resolve() == Path(path).resolve():
            raise ValueError(f"--dump-candidates must not name the {role} file, got {args.dump_candidates}")
    detections = mot_io.load_tracks(args.input)
    meta = _sequence_meta(args, detections)
    cfg = load_pipeline_config(args.config) if args.config else PipelineConfig()
    if args.no_cutter:
        cfg.cutter_enabled = False
    if args.no_interp:
        cfg.interp_enabled = False
    with mot_io.atomic_writer(args.dump_candidates) if args.dump_candidates else nullcontext() as dump:
        refined, summary = refine_detections(detections, meta, cfg, candidate_dump=dump)
        mot_io.save_tracks(refined, args.output)
    print(summary.format(), end="")
    return 0


def _cmd_eval(args) -> int:
    gt = mot_io.load_tracks(args.gt)
    pred = mot_io.load_tracks(args.pred)
    scores = evaluation.evaluate_sequence(gt, pred, args.iou_thresh)
    print(evaluation.format_report(args.seq_name, scores), end="")
    print(evaluation.report_row(args.seq_name, scores))
    return 0


def _cmd_synth(args) -> int:
    scenario_cfg, corruption_cfg = load_scenario(args.scenario)
    gt, meta = synth.generate(scenario_cfg)
    corrupted, log = synth.corrupt(gt, corruption_cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mot_io.save_tracks(gt, out / "gt.txt")
    mot_io.save_tracks(corrupted, out / "tracker.txt")
    mot_io.write_seqinfo(meta, out / "seqinfo.ini")
    log.write_tsv(out / "corruption_log.tsv")
    print(f"objects: {scenario_cfg.num_objects}")
    print(f"frames: {scenario_cfg.num_frames}")
    print(f"gt detections: {len(gt)}")
    print(f"corrupted detections: {len(corrupted)}")
    print(f"fragments: {len(log.fragments)}")
    print(f"cuts: {len(log.cuts)}  swaps: {len(log.swaps)}  drops: {len(log.drops)}")
    print(f"wrote: {out / 'gt.txt'}, {out / 'tracker.txt'}, {out / 'seqinfo.ini'}, {out / 'corruption_log.tsv'}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"refine": _cmd_refine, "eval": _cmd_eval, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
