"""Correctness checks and repair-quality counts over one sequence's refine output."""

from __future__ import annotations

from collections import Counter, defaultdict


def _key(d) -> tuple:
    return (d.frame, d.x, d.y, d.w, d.h)


def multiset_violations(inputs, outputs) -> list[str]:
    """Check that refine kept every input detection and added only gap fills.

    Every input (frame, box) must appear in the output exactly as often as in
    the input, each output id may hold one detection per frame, and every
    other output detection must have conf = 1 and lie strictly inside the
    frame span of its trajectory's input detections. Returns one message per
    kind of violation found.
    """
    problems = []
    in_count = Counter(map(_key, inputs))
    missing = in_count - Counter(map(_key, outputs))
    if missing:
        problems.append(f"multiset.missing: {sum(missing.values())} input detections absent, first {min(missing)}")
    doubled = [k for k, n in Counter((d.frame, d.track_id) for d in outputs).items() if n > 1]
    if doubled:
        problems.append(f"multiset.duplicate: {len(doubled)} (frame, id) pairs hold two detections, first {min(doubled)}")

    span: dict[int, tuple[int, int]] = {}
    for d in outputs:
        if _key(d) in in_count:
            lo, hi = span.get(d.track_id, (d.frame, d.frame))
            span[d.track_id] = (min(lo, d.frame), max(hi, d.frame))
    # An interpolated box can coincide exactly with another track's input box
    # (linear synthetic motion), so a key's excess is judged against how many
    # of its holders could be fills, not against whichever holder comes first.
    def fill_like(d) -> bool:
        lo, hi = span.get(d.track_id, (0, 0))
        return d.conf == 1.0 and lo < d.frame < hi

    extra = Counter(map(_key, outputs)) - in_count
    fillable = Counter(_key(d) for d in outputs if _key(d) in extra and fill_like(d))
    bad = sorted(k for k, n in extra.items() if fillable[k] < n)
    if bad:
        problems.append(
            f"multiset.extra: {len(bad)} added (frame, box) are not conf-1 detections inside a trajectory, first {bad[0]}"
        )
    return problems


def rejoined_cuts(cuts, tracker, refined) -> int:
    """Logged cuts whose left fragment's last and right fragment's first detection share one output id.

    Detections are matched by (frame, x, y) rounded to 1e-6, the owner-map
    definition of the acceptance suite's end-to-end repair test.
    """
    owner = {(d.frame, round(d.x, 6), round(d.y, 6)): d.track_id for d in refined}
    by_id = defaultdict(list)
    for d in tracker:
        by_id[d.track_id].append(d)
    rejoined = 0
    for left, right in cuts:
        left_last = max(by_id[left], key=lambda d: d.frame)
        right_first = min(by_id[right], key=lambda d: d.frame)
        a = owner.get((left_last.frame, round(left_last.x, 6), round(left_last.y, 6)))
        b = owner.get((right_first.frame, round(right_first.x, 6), round(right_first.y, 6)))
        rejoined += a is not None and a == b
    return rejoined


def isolated_swaps(swaps, fragment_source, tracker, tracklets) -> int:
    """Logged swaps that the cutter isolated.

    A swap of sources a and b at frame f is isolated when, for both sources,
    the last detection before f and the first detection at or after f lie in
    different tracklets after cutting. Detections are located by (frame, box);
    at a designed crossing the two swapped boxes coincide, so a box maps to
    the set of tracklets holding it.
    """
    holders = defaultdict(set)
    for t in tracklets:
        for d in t.detections:
            holders[_key(d)].add(t.id)
    by_source = defaultdict(list)
    for d in tracker:
        by_source[fragment_source[d.track_id]].append(d)
    isolated = 0
    for a, b, frame in swaps:
        joined = False
        for source in (a, b):
            dets = by_source[source]
            before = max((d for d in dets if d.frame < frame), key=lambda d: d.frame, default=None)
            at = min((d for d in dets if d.frame >= frame), key=lambda d: d.frame, default=None)
            if before is not None and at is not None and holders[_key(before)] & holders[_key(at)]:
                joined = True
        isolated += not joined
    return isolated


def box_pairs(detections) -> int:
    """Sum over frames of C(n_f, 2): the box pairs the cutter's per-frame loop visits."""
    return sum(n * (n - 1) // 2 for n in Counter(d.frame for d in detections).values())
