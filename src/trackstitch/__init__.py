"""trackstitch: post-processing that improves any multi-object tracker's output.

The pipeline cuts tracklets where they overlap suspiciously, re-associates
them globally by searching successor assignments in descending marginal
order, and fills the remaining trajectory gaps by linear interpolation.
"""

from .associator import (
    STOP,
    Domains,
    SolveStats,
    SuccessorVar,
    build_domains,
    dump_candidates,
    solve_with_stats,
    stitch,
    validate_assignment,
)
from .config import (
    PipelineConfig,
    format_pipeline_config,
    load_pipeline_config,
    save_pipeline_config,
)
from .evaluation import (
    FrameMatching,
    SequenceScores,
    clear_frame_matchings,
    evaluate_sequence,
    format_report,
    idf1,
    report_row,
)
from .interpolate import fill_gaps
from .mot_io import (
    Detection,
    DetectionTable,
    ParseError,
    SequenceMeta,
    load_tracks,
    parse_tracks,
    read_seqinfo,
    save_tracks,
    write_seqinfo,
    write_tracks,
)
from .pipeline import RefineSummary, refine_detections
from .scoring import (
    ConstraintKind,
    ConstraintParams,
    PairScores,
    ScoreConfig,
)
from .synth import (
    CorruptionConfig,
    CorruptionLog,
    ScenarioConfig,
    ScenarioError,
    corrupt,
    generate,
)
from .tracklets import (
    Tracklet,
    Tracklets,
    cut_tracklets,
    group_tracklets,
    iou_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "STOP",
    "Domains",
    "SolveStats",
    "SuccessorVar",
    "build_domains",
    "dump_candidates",
    "solve_with_stats",
    "stitch",
    "validate_assignment",
    "PipelineConfig",
    "format_pipeline_config",
    "load_pipeline_config",
    "save_pipeline_config",
    "FrameMatching",
    "SequenceScores",
    "clear_frame_matchings",
    "evaluate_sequence",
    "format_report",
    "idf1",
    "report_row",
    "fill_gaps",
    "Detection",
    "DetectionTable",
    "ParseError",
    "SequenceMeta",
    "load_tracks",
    "parse_tracks",
    "read_seqinfo",
    "save_tracks",
    "write_seqinfo",
    "write_tracks",
    "RefineSummary",
    "refine_detections",
    "ConstraintKind",
    "ConstraintParams",
    "PairScores",
    "ScoreConfig",
    "CorruptionConfig",
    "CorruptionLog",
    "ScenarioConfig",
    "ScenarioError",
    "corrupt",
    "generate",
    "Tracklet",
    "Tracklets",
    "cut_tracklets",
    "group_tracklets",
    "iou_matrix",
]
