"""Global tracklet association as successor-variable search.

Every tracklet i gets a successor variable whose domain holds the tracklets
that start strictly after i ends, plus a per-variable STOP sentinel meaning
"i is the last tracklet of its trajectory". Two hard constraints shape the
solution: successors are pairwise distinct (STOP excepted, each variable owns
its own), and a successor must start after its predecessor ends.

The search is one loop that always binds the unbound (variable, value) pair
with the highest marginal. Binding a non-STOP value removes it from the other
unbound domains (forward checking), and the affected marginals are
renormalized over the surviving candidates. Every removal goes onto one trail,
and every bound pair onto a stack of choices that records where the trail
stood before its removals. When an unbound domain is wiped out, the search
backtracks: it pops the latest choice, undoes the trail back to that mark,
unbinds the pair and forbids it with one more removal on the trail. A wipe-out
with no choice left to retract means the instance has no solution. Forward
checking never removes STOP, so domains built here always admit a solution and
the search in practice never backtracks; the machinery exists for hand-built
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .mot_io import DetectionTable, SequenceMeta
from .scoring import ConstraintKind, EndpointArrays, PairScores, ScoreConfig, marginals, score_columns, stop_scores
from .tracklets import Tracklet, make_tracklets

# STOP sentinel: None in domains and assignments means "trajectory ends here".
STOP = None

Candidate = int | None
Assignment = dict[int, Candidate]


@dataclass(frozen=True, eq=False)
class _ScoreColumns:
    """The scores of every admissible pair of one :func:`build_domains` call.

    Edges are grouped by predecessor; each variable holds the slice of its own.
    """

    kinds: tuple[ConstraintKind, ...]
    successors: np.ndarray  # successor id per edge
    scores: np.ndarray  # (len(kinds), edges), one row per constraint
    products: np.ndarray
    stop_scores: dict  # STOP scores the same for every predecessor
    stop_product: float

    def pair_scores(self, predecessor: int, edges: slice) -> dict:
        table = {}
        for cand, scores, product in zip(
            self.successors[edges].tolist(), self.scores[:, edges].T.tolist(), self.products[edges].tolist()
        ):
            table[cand] = PairScores(predecessor, cand, dict(zip(self.kinds, scores)), product)
        table[STOP] = PairScores(predecessor, STOP, dict(self.stop_scores), self.stop_product)
        return table


@dataclass
class SuccessorVar:
    """One tracklet's successor domain with marginals (and scores, for dumps)."""

    tracklet_id: int
    marginals: dict  # candidate -> marginal; insertion order = domain order
    columns: _ScoreColumns | None = field(default=None, repr=False, compare=False)
    edges: slice | None = field(default=None, repr=False, compare=False)  # this variable's columns

    @property
    def domain(self) -> tuple:
        return tuple(self.marginals)

    @property
    def pair_scores(self) -> dict | None:
        """Candidate -> PairScores, hard-filtered candidates and STOP included.

        Built from the score columns on each read; None for a variable not
        made by :func:`build_domains`.
        """
        return None if self.columns is None else self.columns.pair_scores(self.tracklet_id, self.edges)


@dataclass
class SolveStats:
    """Search effort of one solve.

    ``nodes`` is the root plus one per (variable, value) pair bound, retracted
    pairs included. ``backtracks`` is the number of pairs retracted after a
    wipe-out and then forbidden.
    """

    nodes: int = 0
    backtracks: int = 0


def build_domains(
    tracklets: Sequence[Tracklet],
    cfg: ScoreConfig,
    meta: SequenceMeta,
) -> list[SuccessorVar]:
    """Score every temporally admissible pair and attach normalized marginals.

    All pairs are scored in one columnar pass (:func:`score_columns`).
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
    kinds = tuple(cfg.enabled_kinds)
    ends = EndpointArrays.of(ordered)
    # row-major order: predecessors by id, each one's successors by id
    pred, succ = np.nonzero(ends.end_frame[:, None] < ends.start_frame[None, :])
    scores, products = score_columns(ends, pred, succ, cfg, meta, kinds)
    columns = _ScoreColumns(kinds, ends.ids[succ], scores, products, *stop_scores(cfg, kinds))
    bounds = np.searchsorted(pred, np.arange(len(ordered) + 1)).tolist()
    successors, edge_products = columns.successors.tolist(), products.tolist()
    out = []
    for row, t in enumerate(ordered):
        lo, hi = bounds[row], bounds[row + 1]
        table = dict(zip(successors[lo:hi], edge_products[lo:hi]))
        table[STOP] = columns.stop_product
        out.append(SuccessorVar(t.id, marginals(table), columns, slice(lo, hi)))
    return out


class _VarState:
    """Mutable search state of one variable: surviving domain and marginals.

    ``order`` fixes the within-variable preference (marginal descending,
    ties by candidate id, STOP last); renormalization rescales all survivors
    uniformly, so this order never changes. The attached marginals are used
    verbatim until the domain first shrinks; from then on the marginal of a
    survivor is its attached value divided by the survivors' total.

    A removal subtracts its marginal from the total while that keeps at least
    half of it. A candidate holding more than half of the remaining mass is
    re-summed away instead, over the survivors in domain order: subtracting
    it would leave only rounding residue, or 0.
    """

    __slots__ = ("order", "attached", "removed", "total", "shrunk", "best_idx")

    def __init__(self, var: SuccessorVar):
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
        if self.shrunk and self.attached[cand] <= self.total / 2:
            self.total -= self.attached[cand]
        else:
            self.total = sum(self.attached[c] for c in self.attached if c not in self.removed)
            self.shrunk = True
        while self.best_idx < len(self.order) and self.order[self.best_idx] in self.removed:
            self.best_idx += 1

    @staticmethod
    def undo(trail: list, mark: int) -> None:
        """Undo the removals recorded after position ``mark``, latest first."""
        while len(trail) > mark:
            state, cand, total, shrunk, best_idx = trail.pop()
            state.removed.discard(cand)
            state.total, state.shrunk, state.best_idx = total, shrunk, best_idx


def solve_with_stats(succ_vars: Sequence[SuccessorVar]) -> tuple[dict, SolveStats]:
    """Find the first feasible assignment under max-marginal depth-first search.

    Every marginal must be finite and positive. Also reports the node and
    backtrack counts of the search.
    """
    states = {}
    for var in succ_vars:
        if var.tracklet_id in states:
            raise ValueError(f"duplicate variable for tracklet {var.tracklet_id}")
        if not var.marginals:
            raise ValueError(f"variable {var.tracklet_id} has an empty domain")
        state = _VarState(var)
        # a NaN or an infinity makes the total non-finite
        if not (min(state.attached.values()) > 0 and math.isfinite(state.total)):
            raise ValueError(f"variable {var.tracklet_id} has a marginal that is not finite and positive")
        states[var.tracklet_id] = state

    assignment: dict = {}
    stats = SolveStats(nodes=1)
    trail: list = []  # removals, in the order they were made
    choices: list = []  # (vid, cand, trail length before its removals) per bound pair
    while len(assignment) < len(states):
        # highest marginal among unbound variables; ties to the smaller
        # variable id (within a variable the order array already breaks ties)
        best = None
        for vid, st in states.items():
            if vid in assignment:
                continue
            if st.empty():
                best = None
                break
            m = st.best_marginal()
            if best is None or m > best[0] or (m == best[0] and vid < best[1]):
                best = (m, vid, st.best())
        if best is None:
            # an unbound domain is empty: retract the latest choice and forbid it
            if not choices:
                raise RuntimeError("no feasible assignment; domains without STOP are not solvable")
            vid, cand, mark = choices.pop()
            _VarState.undo(trail, mark)
            del assignment[vid]
            states[vid].remove(cand, trail)
            stats.backtracks += 1
            continue
        _, vid, cand = best
        choices.append((vid, cand, len(trail)))
        assignment[vid] = cand
        stats.nodes += 1
        if cand is not STOP:
            for wid, wst in states.items():
                if wid not in assignment and cand in wst.attached and cand not in wst.removed:
                    wst.remove(cand, trail)
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

    Chains are walked from every tracklet that is nobody's successor, in id
    order; each chain's detections get one fresh trajectory id, numbered from 1
    in the order of the returned list. The trajectories are consecutive slices
    of one table, each in chain order (frame order, for a valid assignment).
    """
    by_id = {t.id: t for t in tracklets}
    claimed = {cand for cand in assignment.values() if cand is not STOP}
    chains = []
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
        chains.append(chain)
    if sum(map(len, chains)) != len(by_id):
        raise ValueError("assignment does not partition the tracklets into chains")
    sizes = [sum(len(t) for t in chain) for chain in chains]
    rows = DetectionTable.concat(t.detections for chain in chains for t in chain)
    rows = rows.relabeled(np.repeat(np.arange(1, len(chains) + 1), sizes))
    return make_tracklets(rows, np.cumsum([0, *sizes]).tolist(), endpoint_window, endpoint_min_len)


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
