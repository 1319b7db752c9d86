"""Refine benchmark for trackstitch: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fragmented --seed 1 --seconds 35 --trace 0

The program is imported from the checkout's ``src/``; the workloads are
defined in ``inputs.py`` and described in ``README.md``. Each run

1. builds the workload's inputs from the seed three times, each time in a
   fresh child process (``setup_s`` is their median);
2. with ``--trace 0``, times parse -> refine_detections -> write_tracks and
   evaluate_sequence per sequence, cycling over the batch for ``--seconds``
   seconds, and checks every output;
3. with ``--trace 1``, replays the same pipeline one layer call at a time
   under spans recorded here, next to untraced refines of the same sequences
   (their difference is the tracing overhead), and writes the spans to
   ``.perfbench_out/``.

Standard output is a report followed, as its last line, by one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``. An operation is one kind of call on one
sequence (see ``Tally``), however often it is repeated for timing. An
exception in refine or eval fails its operation and is reported with its type
and message; a failed check fails its operation and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
from inputs import ROOT, WORKLOADS, Workload, import_program, program_available
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60  # a set-up takes seconds; a hung one must still end the run within 180 s
OUT_DIR = ROOT / ".perfbench_out"

# spans of the traced refine and eval replays, in call order
LAYER_SPANS = (
    "mot_io.parse_tracks",
    "mot_io.group_tracklets",
    "tracklets.cut_tracklets",
    "associator.build_domains",
    "associator.solve",
    "associator.stitch",
    "interpolate.fill_gaps",
    "mot_io.write_tracks",
    "evaluation.clear_frame_matchings",
    "evaluation.idf1",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (no program, input generation failed)."""


@dataclass
class Sequence:
    """One generated sequence's inputs and what the benchmark observed on it."""

    index: int
    seed: int
    meta: object
    tracker_text: str
    gt_text: str
    cuts: list
    swaps: list
    fragment_source: dict
    dets: int = 0  # input detections
    gt: list = field(default_factory=list)
    error: str | None = None  # first refine exception, "Type: message"
    digest: str | None = None  # sha256 of the first refined output
    output: str | None = None
    violations: list = field(default_factory=list)
    scores: object = None
    rejoined: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.violations)


@dataclass
class Tally:
    """Operations attempted and failed.

    An operation is one kind of call (``refine``, ``trace``, ``eval``) on one
    sequence. Repeating it for timing does not make it a new operation, so the
    counts depend on the inputs only, not on how many repeats fit in a run; a
    repeat that raises or disagrees with the first makes its operation failed.
    """

    sequences: int
    kinds: tuple
    failed_ops: set = field(default_factory=set)

    def fail(self, seq: "Sequence", kind: str) -> None:
        self.failed_ops.add((seq.index, kind))

    @property
    def attempted(self) -> int:
        return self.sequences * len(self.kinds)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def violate(seq: Sequence, tally: Tally, kind: str, *messages: str) -> None:
    """Record failed checks of one operation, which then counts as failed."""
    seq.violations.extend(messages)
    tally.fail(seq, kind)


def setup(workload: Workload, seed: int, tiny: bool) -> tuple[list, list[float], list[list]]:
    """Build the inputs SETUP_REPEATS times in child processes; all repeats must agree."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload.name, "--seed", str(seed)]
    cmd += ["--tiny"] if tiny else []
    first, times, spans = None, [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"input generation failed (exit {proc.returncode}):\n{proc.stderr}")
        payload = json.loads(proc.stdout)
        times.append(payload["setup_s"])
        spans.append(payload["spans"])
        if first is None:
            first = payload["sequences"]
        elif payload["sequences"] != first:
            raise BenchError("input generation is not deterministic: set-up repeats differ")
    return first, times, spans


def make_sequences(ts, raw: list) -> list[Sequence]:
    return [
        Sequence(
            index=k,
            seed=s["seed"],
            meta=ts.SequenceMeta(*s["meta"]),
            tracker_text=s["tracker"],
            dets=s["tracker"].count("\n"),
            gt_text=s["gt"],
            cuts=s["cuts"],
            swaps=s["swaps"],
            fragment_source={int(k): v for k, v in s["fragment_source"].items()},
        )
        for k, s in enumerate(raw)
    ]


def refine_once(ts, seq: Sequence, cfg) -> tuple[str, float]:
    """The ``trackstitch refine`` path minus process start: parse, refine, write."""
    started = time.perf_counter()
    refined, _ = ts.refine_detections(ts.parse_tracks(seq.tracker_text), seq.meta, cfg)
    text = ts.write_tracks(refined)
    return text, time.perf_counter() - started


def timed_refine(ts, seq: Sequence, cfg, cycle: int, tally: Tally) -> tuple[str, float] | None:
    """One untraced refine, checked against the sequence's first outcome.

    The collector runs before the clock starts, so that each timing starts
    from a collected heap instead of paying for garbage left by earlier calls.
    """
    gc.collect()
    try:
        text, elapsed = refine_once(ts, seq, cfg)
    except Exception as exc:  # a crash is a measured outcome, not a benchmark error
        tally.fail(seq, "refine")
        if cycle == 0:
            seq.error = describe(exc)
        elif describe(exc) != seq.error:
            violate(seq, tally, "refine", f"determinism.error: refine raised {describe(exc)} after {seq.error}")
        return None
    if cycle == 0:
        seq.output, seq.digest = text, digest(text)
    elif seq.error is not None or digest(text) != seq.digest:
        violate(seq, tally, "refine", "determinism.output: refined bytes differ between runs on the same input")
    return text, elapsed


def first_cycle_checks(ts, seq: Sequence, tally: Tally) -> list:
    """Check a completed refine's output; returns the prediction to evaluate."""
    tracker = ts.parse_tracks(seq.tracker_text)
    refined = ts.parse_tracks(seq.output) if seq.output is not None else []
    if seq.output is not None:
        problems = checks.multiset_violations(tracker, refined)
        if problems:
            violate(seq, tally, "refine", *problems)
        seq.rejoined = checks.rejoined_cuts(seq.cuts, tracker, refined)
    seq.output = None
    seq.gt = ts.parse_tracks(seq.gt_text)
    # a failed sequence scores as an empty prediction, which is what the CLI leaves behind
    return [] if seq.failed else refined


def timed_eval(ts, seq: Sequence, pred: list, cycle: int, tally: Tally) -> float | None:
    gc.collect()
    started = time.perf_counter()
    try:
        scores = ts.evaluate_sequence(seq.gt, pred)
    except Exception as exc:
        violate(seq, tally, "eval", f"eval.error: {describe(exc)}")
        return None
    elapsed = time.perf_counter() - started
    if cycle == 0:
        seq.scores = scores
        if not (0.0 <= scores.idf1 <= 1.0 and scores.mota <= 1.0):
            violate(seq, tally, "eval", f"eval.range: idf1 {scores.idf1}, mota {scores.mota}")
    elif scores != seq.scores:
        violate(seq, tally, "eval", "determinism.eval: scores differ between runs on the same prediction")
    return elapsed


def rate(seqs: list[Sequence], times: dict, size) -> float | None:
    """Detections per second over the sequences given: detections refined or
    evaluated in timed repeats / the summed time of those repeats.

    The first timing of each sequence is a warm-up and left out, unless it is
    the only one. A sum, not a median, because the shared host alternates
    between a fast and a slow state for seconds at a time: a median of a
    run's repeats jumps from one state to the other as the fast share
    crosses a half, where the sum moves with that share.
    """
    warm = [(s, times[s.index][1:] or times[s.index]) for s in seqs if times[s.index]]
    if not warm:
        return None
    return sum(size(s) * len(t) for s, t in warm) / sum(sum(t) for _, t in warm)


def measure(ts, seqs: list[Sequence], cfg, seconds: float, tally: Tally) -> dict:
    """Untraced end-to-end measurement.

    Cycles over the batch, all refines then all evals, until ``seconds`` have
    passed; no operation starts after that. The first cycle always runs in
    full and is the one whose outputs are checked and scored, and every later
    cycle must reproduce it. Refines and evals alternate through the whole
    run, so a phase in which the shared host runs slower weighs on both alike.
    """
    refine_times = {s.index: [] for s in seqs}
    eval_times = {s.index: [] for s in seqs}
    preds, peak_rss_mb = {}, None
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        for seq in seqs:
            if cycle and time.perf_counter() >= deadline:
                break
            done = timed_refine(ts, seq, cfg, cycle, tally)
            if done is not None:
                refine_times[seq.index].append(done[1])
        if cycle == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            preds = {seq.index: first_cycle_checks(ts, seq, tally) for seq in seqs}
        for seq in seqs:
            if cycle and time.perf_counter() >= deadline:
                break
            elapsed = timed_eval(ts, seq, preds[seq.index], cycle, tally)
            if elapsed is not None:
                eval_times[seq.index].append(elapsed)
        cycle += 1

    completed = [s for s in seqs if not s.failed]
    metrics = {"peak_rss_mb": peak_rss_mb, "completed_ratio": len(completed) / len(seqs)}
    refine_rate = rate(completed, refine_times, lambda s: s.dets)
    # over completed sequences too: a failed sequence's eval scores an empty
    # prediction, which takes a hundredth of the time and would make fixing
    # a crash read as an eval slowdown
    eval_rate = rate(completed, eval_times, lambda s: len(s.gt))
    if refine_rate is not None:
        metrics["refine_dets_per_s"] = refine_rate
    if eval_rate is not None:
        metrics["eval_dets_per_s"] = eval_rate
    scored = [s.scores for s in seqs if s.scores is not None]
    if scored:
        metrics["idf1"] = statistics.fmean(sc.idf1 for sc in scored)
        metrics["mota"] = statistics.fmean(sc.mota for sc in scored)
    total_cuts = sum(len(s.cuts) for s in seqs)
    if total_cuts:
        metrics["rejoin_ratio"] = sum(s.rejoined for s in seqs) / total_cuts
    print(f"measured {cycle} cycles, the first a checked warm-up")
    for name, times in (("refine", refine_times), ("eval", eval_times)):
        for seq in seqs:
            t = times[seq.index]
            if t:
                print(f"{name} sequence {seq.index}: {len(t)} timings, s: " + " ".join(f"{x:.4f}" for x in t))
    print(
        f"quality: fail_ratio {1.0 - metrics['completed_ratio']:.4f}, "
        f"id switches {sum(sc.id_switches for sc in scored)}, rejoined {sum(s.rejoined for s in seqs)}/{total_cuts} cuts"
    )
    return metrics


def traced_refine(ts, tracer: Tracer, seq: Sequence, cfg, rnd: int, state: dict) -> str:
    """Replay ``pipeline.refine_detections`` layer by layer, one span per call.

    Intermediate results go into ``state`` so that the layer counts of a
    replay that raised part-way can still be taken.
    """

    def span(name):
        return tracer.span(name, seq.index, rnd)

    with span("pipeline.refine"):
        with span("mot_io.parse_tracks"):
            state["dets"] = ts.parse_tracks(seq.tracker_text)
        cfg.validate()
        with span("mot_io.group_tracklets"):
            state["grouped"] = ts.group_tracklets(state["dets"], cfg.endpoint_window, cfg.endpoint_min_len)
        tracklets = state["grouped"]
        if cfg.cutter_enabled:
            with span("tracklets.cut_tracklets"):
                tracklets = state["cut"] = ts.cut_tracklets(
                    tracklets, cfg.cut_threshold, cfg.endpoint_window, cfg.endpoint_min_len
                )
        state["tracklets"] = tracklets
        with span("associator.build_domains"):
            state["succ_vars"] = ts.build_domains(tracklets, cfg.scores, seq.meta)
        with span("associator.solve"):
            state["assignment"], state["stats"] = ts.solve_with_stats(state["succ_vars"])
        with span("associator.stitch"):
            state["trajectories"] = ts.stitch(
                state["assignment"], tracklets, cfg.endpoint_window, cfg.endpoint_min_len
            )
        out = []
        with span("interpolate.fill_gaps"):
            for traj in state["trajectories"]:
                dets = list(traj.detections)
                out.extend(ts.fill_gaps(dets, cfg.max_gap_size) if cfg.interp_enabled else dets)
        state["out"] = out
        out.sort(key=lambda d: (d.frame, d.track_id))
        with span("mot_io.write_tracks"):
            return ts.write_tracks(out)


def layer_counts(seq: Sequence, state: dict) -> Counter:
    """Work and outcome counts of one replay, from whatever layers completed."""
    c = Counter()
    if "dets" in state:
        c["mot_io.parse_tracks.rows"] = len(state["dets"])
    if "grouped" in state:
        c["mot_io.group_tracklets.tracklets"] = len(state["grouped"])
    if "cut" in state:
        c["tracklets.cut_tracklets.box_pairs"] = checks.box_pairs(state["dets"])
        c["tracklets.cut_tracklets.cuts"] = len(state["cut"]) - len(state["grouped"])
    if "tracklets" in state and seq.swaps:
        c["tracklets.cut_tracklets.swaps_logged"] = len(seq.swaps)
        c["tracklets.cut_tracklets.swaps_isolated"] = checks.isolated_swaps(
            seq.swaps, seq.fragment_source, state["dets"], state["tracklets"]
        )
    if "succ_vars" in state:
        c["associator.build_domains.edges"] = sum(len(v.pair_scores) - 1 for v in state["succ_vars"])
    if "stats" in state:
        c["associator.solve.nodes"] = state["stats"].nodes
        c["associator.solve.backtracks"] = state["stats"].backtracks
        c["associator.solve.links"] = sum(cand is not None for cand in state["assignment"].values())
    if "trajectories" in state:
        c["associator.stitch.trajectories"] = len(state["trajectories"])
    if "out" in state:
        c["interpolate.fill_gaps.filled"] = len(state["out"]) - len(state["dets"])
    return c


def traced_eval(ts, tracer: Tracer, seq: Sequence, pred: list, rnd: int) -> int:
    """Replay ``evaluate_sequence``'s two calls under spans; returns the id switches."""
    with tracer.span("evaluation.evaluate", seq.index, rnd):
        with tracer.span("evaluation.clear_frame_matchings", seq.index, rnd):
            records = ts.clear_frame_matchings(seq.gt, pred)
        with tracer.span("evaluation.idf1", seq.index, rnd):
            ts.idf1(seq.gt, pred)
    return sum(r.id_switches for r in records)


def measure_traced(ts, seqs: list[Sequence], cfg, seconds: float, tally: Tally, tracer: Tracer) -> dict:
    """Per-layer measurement: full cycles of (untraced refine, traced replay) per sequence, then traced evals."""
    counts_by_cycle, overhead = [], []
    preds = {}
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        counts, traced_s, untraced_s = Counter(), 0.0, 0.0
        for seq in seqs:
            done = timed_refine(ts, seq, cfg, cycle, tally)
            state: dict = {}
            gc.collect()
            root = len(tracer.spans)
            try:
                text = traced_refine(ts, tracer, seq, cfg, cycle, state)
            except Exception as exc:
                tally.fail(seq, "trace")
                if done is not None:
                    violate(seq, tally, "trace", f"trace.error: traced replay raised {describe(exc)}, refine did not")
            else:
                if done is None or digest(text) != seq.digest:
                    violate(seq, tally, "trace", "trace.output: traced replay bytes differ from refine_detections")
                else:
                    traced_s += tracer.spans[root]["end"] - tracer.spans[root]["start"]
                    untraced_s += done[1]
                try:
                    ts.validate_assignment(state["assignment"], state["tracklets"])
                except ValueError as exc:
                    violate(seq, tally, "trace", f"assignment.invalid: {exc}")
            counts.update(layer_counts(seq, state))
        if cycle == 0:
            for seq in seqs:
                seq.gt = ts.parse_tracks(seq.gt_text)
                preds[seq.index] = [] if seq.failed else ts.parse_tracks(seq.output)
                seq.output = None
        for seq in seqs:
            gc.collect()
            try:
                counts["evaluation.id_switches"] += traced_eval(ts, tracer, seq, preds[seq.index], cycle)
            except Exception as exc:
                violate(seq, tally, "eval", f"eval.error: {describe(exc)}")
        counts_by_cycle.append(counts)
        overhead.append(traced_s - untraced_s)
        cycle += 1

    if any(c != counts_by_cycle[0] for c in counts_by_cycle):
        for seq in seqs:
            violate(seq, tally, "trace", "determinism.counts: layer counts differ between cycles")
    counts = counts_by_cycle[0]
    own = self_times(tracer.spans)
    # the two root spans' self time is the pipeline's and the evaluation's own glue
    roots = ("pipeline.refine", "evaluation.evaluate")
    metrics = {f"{name}.s": statistics.median(own.get((r, name), 0.0) for r in range(cycle)) for name in LAYER_SPANS + roots}
    metrics.update(counts)
    for name in ("tracklets.cut_tracklets.box_pairs", "tracklets.cut_tracklets.cuts"):
        metrics.setdefault(name, 0)
    edges = counts["associator.build_domains.edges"]
    metrics["associator.link_yield"] = counts["associator.solve.links"] / edges if edges else 0.0
    swaps = counts["tracklets.cut_tracklets.swaps_logged"]
    if swaps:
        metrics["tracklets.cut_tracklets.swap_isolation"] = counts["tracklets.cut_tracklets.swaps_isolated"] / swaps
    metrics["pipeline.trace_overhead_s"] = statistics.median(overhead)
    print(f"traced {cycle} cycles; layer times are self times, median over cycles")
    return metrics


def synth_metrics(setup_spans: list[list]) -> dict:
    """Median over set-up repeats of each synth call's summed time."""
    out = {}
    for name in ("synth.generate", "synth.corrupt"):
        out[f"{name}.s"] = statistics.median(
            sum(s["end"] - s["start"] for s in spans if s["name"] == name) for spans in setup_spans
        )
    return out


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    if not program_available():
        raise BenchError(f"no trackstitch sources under {ROOT / 'src'}; run from a full checkout")
    workload = WORKLOADS[args.workload]
    raw, setup_times, setup_spans = setup(workload, args.seed, args.tiny)
    ts = import_program()
    seqs = make_sequences(ts, raw)
    del raw
    cfg = ts.PipelineConfig()
    cfg.cutter_enabled = workload.cutter
    tally = Tally(len(seqs), ("refine", "trace", "eval") if args.trace else ("refine", "eval"))
    print(f"workload {workload.name}, seed {args.seed}, {len(seqs)} sequences, trace {args.trace}")

    if args.trace:
        tracer = Tracer()
        for spans in setup_spans:
            tracer.extend(spans)
        metrics = measure_traced(ts, seqs, cfg, args.seconds, tally, tracer)
        metrics.update(synth_metrics(setup_spans))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{workload.name}_seed{args.seed}.json"
        path.write_text(json.dumps({"workload": workload.name, "seed": args.seed, "spans": tracer.spans}))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = measure(ts, seqs, cfg, args.seconds, tally)
        metrics["setup_s"] = statistics.median(setup_times)

    for seq in seqs:
        status = "ok" if not seq.failed else "FAILED"
        print(f"sequence {seq.index} (seed {seq.seed}): {seq.dets} detections, {status}, output sha256 {seq.digest}")
        if seq.error:
            print(f"  refine raised {seq.error}")
        for v in seq.violations:
            print(f"  check failed {v}")
    declared = declared_metrics(args.trace)
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]} {units.get(name, '')}".rstrip())
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"not measured (no sequence completed): {', '.join(missing)}")
    return {
        "correct": not any(seq.violations for seq in seqs),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Refine benchmark for trackstitch.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every sequence (self-test scale)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
