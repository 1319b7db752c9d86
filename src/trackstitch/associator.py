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

Domains are columns (:class:`Domains`), one entry per (variable, candidate),
and the search keeps its state in arrays over those entries: forward checking
reaches the entries of the bound candidate through an index, and a selection
is one ``argmax`` over the variables' best marginals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .mot_io import SequenceMeta, _format_rows
from .scoring import PairScores, ScoreConfig, left_sums, score_columns, stop_scores
from .tracklets import Tracklets, aranges, check_integer, run_bounds

# STOP sentinel: None in domains and assignments means "trajectory ends here".
STOP = None

Candidate = int | None
Assignment = dict[int, Candidate]


@dataclass
class SuccessorVar:
    """One tracklet's successor domain with marginals, and the :class:`Domains` it was read from, if any."""

    tracklet_id: int
    marginals: dict  # candidate -> marginal, of the candidates with a positive product, in domain order
    domains: Domains | None = field(default=None, repr=False, compare=False)

    @property
    def domain(self) -> tuple:
        return tuple(self.marginals)

    @property
    def pair_scores(self) -> dict | None:
        """Candidate -> PairScores of every entry of the row, hard-filtered and STOP included, built on each read.

        None for a variable not read from a :func:`build_domains` table.
        """
        table = self.domains
        if table is None or table.kinds is None:
            return None
        k = np.searchsorted(table.ids, self.tracklet_id)
        entries = np.arange(table.offsets[k], table.offsets[k + 1])
        rows = zip(table._candidates(entries), table.scores[:, entries].T.tolist(), table.products[entries].tolist())
        return {cand: PairScores(self.tracklet_id, cand, dict(zip(table.kinds, s)), p) for cand, s, p in rows}


@dataclass
class SolveStats:
    """Search effort of one solve.

    ``nodes`` is the root plus one per (variable, value) pair bound, retracted
    pairs included. ``backtracks`` is the number of pairs retracted after a
    wipe-out and then forbidden.
    """

    nodes: int = 0
    backtracks: int = 0


class Domains(Sequence[SuccessorVar]):
    """The candidate table: successor variables as columns, in ascending id order.

    Variable k is tracklet ``ids[k]``; its row is the entries
    ``[offsets[k], offsets[k + 1])`` in domain order, each a candidate id
    (STOP is candidate 0; tracklet ids start at 1), its product and its marginal.
    :func:`build_domains` keeps a hard-filtered pair at product 0 and adds the
    ``kinds`` and their ``(len(kinds), entries)`` ``scores``; a hand-built
    table (:meth:`of`) has its marginals for products. Indexing or iterating
    builds a :class:`SuccessorVar` of the entries with a positive product
    only when it is read. Like a list, the sequence compares equal to a list
    or tuple of the same variables.
    """

    __slots__ = ("ids", "offsets", "candidates", "marginals", "products", "kinds", "scores")

    def __init__(self, ids, offsets, candidates, marginals, products=None, kinds=None, scores=None):
        self.ids, self.offsets, self.candidates, self.marginals = ids, offsets, candidates, marginals
        self.products, self.kinds, self.scores = marginals if products is None else products, kinds, scores

    @classmethod
    def of(cls, succ_vars: Iterable[SuccessorVar]) -> Domains:
        """``succ_vars`` itself if it is a Domains, else the variables' domains as columns.

        Raises ValueError for a repeated variable, a variable or candidate id
        that is not an integer in [1, 2**63) (a bool is not one), an empty
        domain or a marginal that is not finite and positive, on the first
        such variable.
        """
        if isinstance(succ_vars, Domains):
            return succ_vars
        succ_vars = list(succ_vars)
        seen = set()
        for var in succ_vars:
            if var.tracklet_id in seen:
                raise ValueError(f"duplicate variable for tracklet {var.tracklet_id}")
            for tid in (var.tracklet_id, *(cand for cand in var.marginals if cand is not STOP)):
                check_integer(tid, f"a tracklet id of variable {var.tracklet_id}")
                if not 1 <= tid < 2**63:
                    raise ValueError(f"variable {var.tracklet_id} names tracklet id {tid}, outside [1, 2**63)")
            values = np.array(list(var.marginals.values()), dtype=float)
            if not len(values):
                raise ValueError(f"variable {var.tracklet_id} has an empty domain")
            # a NaN or an infinity makes the total non-finite
            if not (values.min() > 0 and math.isfinite(left_sums(values, (0, len(values)))[0])):
                raise ValueError(f"variable {var.tracklet_id} has a marginal that is not finite and positive")
            seen.add(var.tracklet_id)
        succ_vars.sort(key=lambda var: var.tracklet_id)
        cands = [cand for var in succ_vars for cand in var.marginals]
        return cls(
            np.array([var.tracklet_id for var in succ_vars], dtype=np.int64),
            np.cumsum([0, *(len(var.marginals) for var in succ_vars)]),
            np.array([0 if cand is STOP else cand for cand in cands], dtype=np.int64),
            np.array([m for var in succ_vars for m in var.marginals.values()], dtype=float),
        )

    @property
    def edge_count(self) -> int:
        """The number of scored (tracklet, later tracklet) pairs; 0 for hand-built domains."""
        return 0 if self.kinds is None else len(self.candidates) - len(self)

    def _candidates(self, entries: np.ndarray) -> list[Candidate]:
        return [cand or STOP for cand in self.candidates[entries].tolist()]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> SuccessorVar:
        k = range(len(self))[operator.index(k)]
        lo = self.offsets[k]
        live = lo + np.flatnonzero(self.products[lo : self.offsets[k + 1]] > 0)
        return SuccessorVar(self.ids[k].item(), dict(zip(self._candidates(live), self.marginals[live].tolist())), self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Domains, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def build_domains(
    tracklets: Tracklets,
    cfg: ScoreConfig,
    meta: SequenceMeta,
) -> Domains:
    """Score every temporally admissible pair and attach normalized marginals.

    All pairs are scored in one columnar pass (:func:`score_columns`) over
    the tracklets' endpoint columns. A row holds every later-starting
    candidate, by id, then STOP; each marginal is its product over the row's
    total, summed in that order. A candidate hard-filtered to a zero product
    (t0 active) keeps its entry and scores, with marginal 0, and is left out
    of the variable's ``marginals``.
    """
    cfg.validate()
    ends = tracklets.ends
    by_id = np.argsort(ends.ids, kind="stable")
    ids = ends.ids[by_id]
    kinds = tuple(cfg.enabled_kinds)
    # row-major order: predecessors by id, each one's successors by id
    pred, succ = np.nonzero(ends.end_frame[by_id][:, None] < ends.start_frame[by_id][None, :])
    scores, products = score_columns(ends, by_id[pred], by_id[succ], cfg, meta, kinds)
    stop_by_kind, stop_product = stop_scores(cfg, kinds)

    rows_end = np.searchsorted(pred, np.arange(1, len(ids) + 1))  # each variable's STOP goes after its last edge
    offsets = np.concatenate(([0], rows_end)) + np.arange(len(ids) + 1)
    products = np.insert(products, rows_end, stop_product)
    totals = left_sums(products, offsets)  # > 0: STOP's product is at least L**k, a normal float
    return Domains(
        ids,
        offsets,
        np.insert(ids[succ], rows_end, 0),
        products / np.repeat(totals, np.diff(offsets)),
        products,
        kinds,
        np.insert(scores, rows_end, np.array([stop_by_kind[k] for k in kinds])[:, None], axis=1),
    )


class _Search:
    """The state of one solve, as arrays over a :class:`Domains`' variables and entries.

    Hard-filtered entries (product 0) start removed and add an exact 0 to
    every total. Each variable prefers its surviving entries by marginal, then
    by ``tie``: candidate id, STOP after every id. Renormalization rescales all
    survivors of a domain uniformly, so this preference never changes.
    ``best[v]`` is variable v's preferred surviving entry and ``best_value[v]``
    its attached marginal (+inf once the domain is empty); a removal looks
    for the next best only when it takes the best, which is rare (6 of 370k
    removals at 300 objects x 1000 frames), so the domains are never sorted.
    The attached marginals are used verbatim until a domain first shrinks,
    which ``total[v] < 0`` marks; from then on the marginal of a survivor is
    its attached value divided by ``total[v]``. ``key[v]`` is v's best
    current marginal, -inf once v is bound and +inf once its domain is empty
    (+inf over any total, 0 included, is +inf and raises no floating-point
    flag).

    A removal subtracts its marginal from the total while that keeps at least
    half of it. A candidate holding more than half of the remaining mass is
    re-summed away instead, over the survivors in domain order: subtracting
    it would leave only rounding residue, or 0.
    """

    def __init__(self, domains: Domains):
        self.offsets = offsets = np.asarray(domains.offsets, dtype=np.int64)
        self.marginals = marginals = domains.marginals
        counts = np.diff(offsets)
        self.var = np.repeat(np.arange(len(domains)), counts)
        # candidate id - 1 as unsigned: ids from 1 keep their order, and STOP (0) wraps to the largest value
        self.tie = (domains.candidates - 1).view(np.uint64)
        last = np.iinfo(np.uint64).max
        self.alive = domains.products > 0
        self.total = np.full(len(domains), -1.0)
        # each domain's one entry with its largest marginal and, among those, the smallest tie
        top = marginals == np.repeat(np.maximum.reduceat(marginals, offsets[:-1]), counts)
        first = np.minimum.reduceat(np.where(top, self.tie, last), offsets[:-1])
        self.best = np.flatnonzero(top & (self.tie == np.repeat(first, counts)))
        self.best_value = marginals[self.best]
        self.key = self.best_value.copy()
        self.bound = np.zeros(len(domains), dtype=bool)
        # the live non-STOP entries grouped by candidate, for forward checking
        held = np.flatnonzero(self.alive & (domains.candidates != 0))
        self.holders = held[np.argsort(domains.candidates[held])]
        by_candidate = domains.candidates[self.holders]
        bounds = run_bounds(by_candidate)
        self.holder_range = dict(zip(by_candidate[bounds[:-1]].tolist(), zip(bounds, bounds[1:])))
        self.ids, self.candidates = domains.ids.tolist(), domains.candidates
        self.trail: list = []  # removals, one batch per forward check or retraction

    def next_best(self, v: int) -> None:
        """Find variable v's preferred surviving entry."""
        lo, hi = self.offsets[v], self.offsets[v + 1]
        live = lo + np.flatnonzero(self.alive[lo:hi])
        if not len(live):
            self.best_value[v] = np.inf
            return
        values = self.marginals[live]
        tied = live[values == values.max()]
        self.best[v] = tied[self.tie[tied].argmin()]
        self.best_value[v] = self.marginals[self.best[v]]

    def remove(self, entries: np.ndarray) -> None:
        """Remove surviving entries, at most one per variable, of unbound variables."""
        vs = self.var[entries]
        total, best = self.total[vs], self.best[vs]
        self.trail.append((entries, vs, total, best))
        self.alive[entries] = False
        removed = self.marginals[entries]
        new_total = total - removed
        for k in (removed > total / 2).nonzero()[0].tolist():  # every first removal, too
            # the survivors left to right, as left_sums adds them; a removed
            # entry adds an exact 0
            lo, hi = self.offsets[vs[k]], self.offsets[vs[k] + 1]
            new_total[k] = (self.marginals[lo:hi] * self.alive[lo:hi]).cumsum()[-1]
        self.total[vs] = new_total
        for v in vs[best == entries].tolist():
            self.next_best(v)
        self.key[vs] = self.best_value[vs] / new_total

    def undo(self, mark: int) -> None:
        """Undo the removals recorded after trail position ``mark``, latest first."""
        while len(self.trail) > mark:
            entries, vs, total, best = self.trail.pop()
            self.alive[entries] = True
            self.total[vs], self.best[vs] = total, best
            self.best_value[vs] = self.marginals[best]
            self.key[vs] = self.best_value[vs] / np.where(total < 0, 1.0, total)

    def run(self) -> tuple[Assignment, SolveStats]:
        ids = self.ids
        assignment: Assignment = {}
        stats = SolveStats(nodes=1)
        choices: list = []  # (variable, entry, trail length before its removals) per bound pair
        while len(assignment) < len(ids):
            # highest marginal among unbound variables; ties to the smaller
            # variable id, the first in order (within a variable, best
            # already breaks ties)
            v = self.key.argmax().item()
            if self.key[v] == np.inf:
                # an unbound domain is empty: retract the latest choice and forbid it
                if not choices:
                    raise RuntimeError("no feasible assignment; domains without STOP are not solvable")
                v, entry, mark = choices.pop()
                self.undo(mark)
                del assignment[ids[v]]
                self.bound[v] = False
                self.remove(np.array([entry]))
                stats.backtracks += 1
                continue
            entry = self.best[v].item()
            choices.append((v, entry, len(self.trail)))
            cand = self.candidates[entry].item() or STOP
            assignment[ids[v]] = cand
            self.bound[v] = True
            self.key[v] = -np.inf
            stats.nodes += 1
            if cand is not STOP:
                lo, hi = self.holder_range[cand]
                holders = self.holders[lo:hi]
                holders = holders[self.alive[holders] & ~self.bound[self.var[holders]]]
                if len(holders):
                    self.remove(holders)
        return assignment, stats


def solve_with_stats(succ_vars: Sequence[SuccessorVar]) -> tuple[Assignment, SolveStats]:
    """Find the first feasible assignment under max-marginal depth-first search.

    ``succ_vars`` is a :class:`Domains` or any sequence of variables, which
    is converted to one (see :meth:`Domains.of`); every marginal must be
    finite and positive. Also reports the node and backtrack counts of the
    search.
    """
    return _Search(Domains.of(succ_vars)).run()


def _positions(assignment: Assignment, tracklets: Tracklets) -> dict[int, int]:
    """Each tracklet id's position; raises ValueError if the assignment names another id."""
    position = {tid: k for k, tid in enumerate(tracklets.ids.tolist())}
    for tid in (*assignment, *assignment.values()):
        if tid is not STOP and tid not in position:
            raise ValueError(f"assignment names unknown tracklet {tid}")
    return position


def validate_assignment(assignment: Assignment, tracklets: Tracklets) -> None:
    """Check the two hard constraints; raises ValueError on violation or on an unknown tracklet id."""
    position = _positions(assignment, tracklets)
    start, end = tracklets.ends.start_frame.tolist(), tracklets.ends.end_frame.tolist()
    seen = set()
    for vid, cand in assignment.items():
        if cand is STOP:
            continue
        if cand in seen:
            raise ValueError(f"successor {cand} assigned to two tracklets")
        seen.add(cand)
        if not end[position[vid]] < start[position[cand]]:
            raise ValueError(f"successor {cand} does not start after tracklet {vid} ends")


def stitch(
    assignment: Assignment,
    tracklets: Tracklets,
    endpoint_window: int = 6,
    endpoint_min_len: int = 10,
) -> Tracklets:
    """Concatenate successor chains into trajectories with fresh ids.

    Chains are walked from every tracklet that is nobody's successor, in id
    order; each chain's detections get one fresh trajectory id, numbered from 1
    in the order of the returned sequence. The trajectories are the runs of
    one table, each in chain order, and are summarized on first read with
    ``endpoint_window`` and ``endpoint_min_len``. An id
    in the assignment that names no tracklet, or a chain whose frames do not
    increase strictly (see :class:`Tracklets`), raises ValueError.
    """
    position = _positions(assignment, tracklets)
    claimed = {cand for cand in assignment.values() if cand is not STOP}
    chains = []
    for head in sorted(position):
        if head in claimed:
            continue
        chain = [position[head]]
        cur = head
        visited = {head}
        while assignment.get(cur) is not STOP:
            cur = assignment[cur]
            if cur in visited:
                raise ValueError(f"assignment contains a cycle through tracklet {cur}")
            visited.add(cur)
            chain.append(position[cur])
        chains.append(chain)
    if sum(map(len, chains)) != len(position):
        raise ValueError("assignment does not partition the tracklets into chains")
    order = np.array([k for chain in chains for k in chain], dtype=np.int64)
    traj_ids = np.repeat(np.arange(1, len(chains) + 1), np.array(list(map(len, chains)), dtype=np.intp))
    sizes = np.diff(tracklets.bounds)[order]
    rows = tracklets.rows.take(aranges(tracklets.bounds[order], sizes)).relabeled(np.repeat(traj_ids, sizes))
    return Tracklets(rows, endpoint_window, endpoint_min_len)


def dump_candidates(domains: Domains, stream: TextIO) -> None:
    """Write the candidate table of :func:`build_domains` as TSV, one row per entry in table order.

    A row holds the predecessor, the candidate (``STOP`` for STOP), each
    enabled constraint's score, the product and the marginal (0 if
    hard-filtered). Every number prints by the rule of :func:`write_tracks`:
    an integral value below 1e15 without a decimal point (``1.0`` as ``1``),
    any other as its shortest round-trip repr, so ``float()`` reads each
    back bit for bit. Raises ValueError for hand-built domains, which carry
    no scores.
    """
    if domains.kinds is None:
        raise ValueError("hand-built domains carry no scores to dump")
    header = ["predecessor", "candidate"] + [k.value for k in domains.kinds] + ["product", "marginal"]
    stream.write("\t".join(header) + "\n")
    predecessors = np.repeat(domains.ids, np.diff(domains.offsets))
    columns = [predecessors, domains.candidates, *domains.scores, domains.products, domains.marginals]
    separators = ["\t"] * (len(columns) - 1) + ["\n"]
    stream.write(_format_rows(columns, separators, words=(1, domains.candidates == 0, "STOP")))
