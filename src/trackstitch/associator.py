"""Global tracklet association as successor-variable search.

Every tracklet i gets a successor variable whose domain holds the tracklets
that start strictly after i ends, plus a per-variable STOP sentinel meaning
"i is the last tracklet of its trajectory". Two hard constraints shape the
solution: successors are pairwise distinct (STOP excepted, each variable owns
its own), and a successor must start after its predecessor ends.

The search is depth-first, always binding the unbound (variable, value) pair
with the highest marginal. Binding a non-STOP value removes it from the other
domains (forward checking) and the affected marginals are renormalized over
the surviving candidates. A wiped-out domain backtracks and forbids the pair
that caused it. STOP can never be removed, so domains built here always admit
a solution and the search in practice never backtracks; the machinery exists
for hand-built instances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

from .mot_io import SequenceMeta
from .scoring import ScoreConfig, marginals, score_pair, score_stop
from .tracklets import Tracklet, make_tracklet

# STOP sentinel: None in domains and assignments means "trajectory ends here".
STOP = None

Candidate = int | None
Assignment = dict[int, Candidate]


@dataclass
class SuccessorVar:
    """One tracklet's successor domain with marginals (and scores, for dumps)."""

    tracklet_id: int
    marginals: dict  # candidate -> marginal; insertion order = domain order
    pair_scores: dict | None = None  # candidate -> PairScores, incl. filtered ones

    @property
    def domain(self) -> tuple:
        return tuple(self.marginals)


@dataclass
class SolveStats:
    nodes: int = 0
    backtracks: int = 0


def build_domains(
    tracklets: Sequence[Tracklet],
    cfg: ScoreConfig,
    meta: SequenceMeta,
) -> list[SuccessorVar]:
    """Score every temporally admissible pair and attach normalized marginals.

    Candidates hard-filtered to a zero product (t0 active) are dropped from
    the domain but kept in ``pair_scores`` for inspection. STOP is always in
    the domain.
    """
    cfg.validate()
    ordered = sorted(tracklets, key=lambda t: t.id)
    seen = set()
    for t in ordered:
        if t.id in seen:
            raise ValueError(f"duplicate tracklet id {t.id}")
        seen.add(t.id)
    out = []
    for t in ordered:
        table: dict = {}
        for s in ordered:
            if t.end.frame < s.start.frame:
                table[s.id] = score_pair(t, s, cfg, meta)
        table[STOP] = score_stop(t, cfg)
        products = {cand: ps.product for cand, ps in table.items()}
        out.append(SuccessorVar(t.id, marginals(products), table))
    return out


class _VarState:
    """Mutable search state of one variable: surviving domain and marginals.

    ``order`` fixes the within-variable preference (marginal descending,
    ties by candidate id, STOP last); renormalization rescales all survivors
    uniformly, so this order never changes. The attached marginals are used
    verbatim until the domain first shrinks; from then on the marginal of a
    survivor is its attached value divided by the survivors' total.
    """

    __slots__ = ("vid", "order", "attached", "removed", "total", "shrunk", "best_idx")

    def __init__(self, var: SuccessorVar):
        self.vid = var.tracklet_id
        self.attached = dict(var.marginals)
        self.order = sorted(
            self.attached,
            key=lambda c: (-self.attached[c], c is STOP, c if c is not STOP else 0),
        )
        self.removed: set = set()
        self.total = sum(self.attached.values())
        self.shrunk = False
        self.best_idx = 0

    def empty(self) -> bool:
        return len(self.removed) == len(self.order)

    def best(self):
        return self.order[self.best_idx]

    def best_marginal(self) -> float:
        value = self.attached[self.order[self.best_idx]]
        return value / self.total if self.shrunk else value

    def remove(self, cand, trail: list) -> None:
        trail.append((self, cand, self.total, self.shrunk, self.best_idx))
        self.removed.add(cand)
        if self.shrunk:
            self.total -= self.attached[cand]
        else:
            self.total = sum(self.attached[c] for c in self.attached if c not in self.removed)
            self.shrunk = True
        while self.best_idx < len(self.order) and self.order[self.best_idx] in self.removed:
            self.best_idx += 1

    @staticmethod
    def undo(trail: list) -> None:
        for state, cand, total, shrunk, best_idx in reversed(trail):
            state.removed.discard(cand)
            state.total = total
            state.shrunk = shrunk
            state.best_idx = best_idx
        trail.clear()


def solve_with_stats(succ_vars: Sequence[SuccessorVar]) -> tuple[dict, SolveStats]:
    """Find the first feasible assignment under max-marginal depth-first search.

    Also reports the node and backtrack counts of the search.
    """
    states = {}
    for var in succ_vars:
        if var.tracklet_id in states:
            raise ValueError(f"duplicate variable for tracklet {var.tracklet_id}")
        if not var.marginals:
            raise ValueError(f"variable {var.tracklet_id} has an empty domain")
        states[var.tracklet_id] = _VarState(var)

    assignment: dict = {}
    stats = SolveStats()

    def select():
        # highest marginal among unbound variables; ties to the smaller
        # variable id (within a variable the order array already breaks ties)
        best = None
        for vid, st in states.items():
            if vid in assignment:
                continue
            if st.empty():
                return "wipeout"
            m = st.best_marginal()
            if best is None or m > best[0] or (m == best[0] and vid < best[1]):
                best = (m, vid, st.best())
        return best

    def search() -> bool:
        stats.nodes += 1
        local_trail: list = []
        while True:
            sel = select()
            if sel is None:
                return True
            if sel == "wipeout":
                _VarState.undo(local_trail)
                return False
            _, vid, cand = sel
            assignment[vid] = cand
            child_trail: list = []
            wiped = False
            if cand is not STOP:
                for wid, wst in states.items():
                    if wid in assignment or cand in wst.removed or cand not in wst.attached:
                        continue
                    wst.remove(cand, child_trail)
                    if wst.empty():
                        wiped = True
            if not wiped and search():
                return True
            stats.backtracks += 1
            _VarState.undo(child_trail)
            del assignment[vid]
            states[vid].remove(cand, local_trail)  # forbid the failed pair at this node

    depth = len(states) + 50
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * depth))
    try:
        if not search():
            raise RuntimeError("no feasible assignment; domains without STOP are not solvable")
    finally:
        sys.setrecursionlimit(old_limit)
    return assignment, stats


def validate_assignment(assignment: dict, tracklets: Sequence[Tracklet]) -> None:
    """Check the two hard constraints; raises ValueError on violation."""
    by_id = {t.id: t for t in tracklets}
    seen = set()
    for vid, cand in assignment.items():
        if cand is STOP:
            continue
        if cand in seen:
            raise ValueError(f"successor {cand} assigned to two tracklets")
        seen.add(cand)
        if not by_id[vid].end.frame < by_id[cand].start.frame:
            raise ValueError(f"successor {cand} does not start after tracklet {vid} ends")


def stitch(
    assignment: dict,
    tracklets: Sequence[Tracklet],
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> list[Tracklet]:
    """Concatenate successor chains into trajectories with fresh ids.

    Chains are walked from every tracklet that is nobody's successor; each
    chain's detections get one fresh trajectory id, numbered from 1.
    """
    by_id = {t.id: t for t in tracklets}
    claimed = {cand for cand in assignment.values() if cand is not STOP}
    trajectories = []
    next_id = 1
    consumed = 0
    for head in sorted(by_id):
        if head in claimed:
            continue
        chain = [by_id[head]]
        cur = head
        visited = {head}
        while assignment.get(cur) is not STOP:
            cur = assignment[cur]
            if cur in visited:
                raise ValueError(f"assignment contains a cycle through tracklet {cur}")
            visited.add(cur)
            chain.append(by_id[cur])
        dets = [replace(d, track_id=next_id) for t in chain for d in t.detections]
        trajectories.append(make_tracklet(next_id, dets, endpoint_window, endpoint_min_len))
        consumed += len(chain)
        next_id += 1
    if consumed != len(by_id):
        raise ValueError("assignment does not partition the tracklets into chains")
    return trajectories


def dump_candidates(succ_vars: Iterable[SuccessorVar], cfg: ScoreConfig, stream: TextIO) -> None:
    """Write the candidate table (scores, products, marginals) as TSV."""
    kinds = cfg.enabled_kinds
    header = ["predecessor", "candidate"] + [k.value for k in kinds] + ["product", "marginal"]
    stream.write("\t".join(header) + "\n")
    for var in succ_vars:
        table = var.pair_scores or {cand: None for cand in var.marginals}
        for cand, ps in table.items():
            cells = [str(var.tracklet_id), "STOP" if cand is STOP else str(cand)]
            if ps is not None:
                cells += [repr(ps.scores.get(k, float("nan"))) for k in kinds]
                cells.append(repr(ps.product))
            else:
                cells += ["" for _ in kinds] + [""]
            cells.append(repr(var.marginals.get(cand, 0.0)))
            stream.write("\t".join(cells) + "\n")
