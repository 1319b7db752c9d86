"""Global tracklet association as successor-variable search.

Every tracklet i gets a successor variable whose domain holds the tracklets
that start strictly after i ends, plus a per-variable STOP sentinel meaning
"i is the last tracklet of its trajectory". :class:`Domains` holds the table's
rules, and :func:`validate_assignment` a solution's two hard constraints.

The solver is one greedy pass (max-marginal binding with forward checking,
after the CP-BP search of Pesant, JAIR 2019): it always binds the unbound
(variable, value) pair with the highest marginal. Binding a non-STOP value
removes it from the other unbound domains, and the affected marginals are
renormalized over the surviving candidates. Every domain holds STOP and
forward checking never removes it, so no domain is ever wiped out and the
pass never retracts a binding: each variable is bound once.

Domains are columns (:class:`Domains`), one entry per (variable, candidate),
and the pass keeps its state in arrays over those entries: forward checking
reaches the entries of the bound candidate through an index, and a selection
is one ``argmax`` over the variables' best marginals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .mot_io import SequenceMeta, _format_rows, check_id
from .scoring import PairScores, ScoreConfig, left_sums, score_columns, stop_scores
from .tracklets import Tracklets, aranges, run_bounds

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

    ``nodes`` is the root plus one per variable bound, ``len(domains) + 1``;
    ``backtracks`` is 0, since the pass never retracts a binding. Both stay
    for the benchmark's traced replay, which reports them.
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

    :func:`solve_with_stats` refuses, naming the first row's variable and rule, a
    table whose ids do not increase strictly from 1, or with a row that names its
    variable, holds no STOP or several, has a STOP product <= 0, a product,
    marginal or row total not finite and >= 0, or a marginal on a product of 0.
    """

    __slots__ = ("ids", "offsets", "candidates", "marginals", "products", "kinds", "scores")

    def __init__(self, ids, offsets, candidates, marginals, products=None, kinds=None, scores=None):
        self.ids, self.offsets, self.candidates, self.marginals = ids, offsets, candidates, marginals
        self.products, self.kinds, self.scores = marginals if products is None else products, kinds, scores

    @classmethod
    def of(cls, succ_vars: Iterable[SuccessorVar]) -> Domains:
        """``succ_vars`` itself if it is a Domains, else the variables' domains as columns, sorted by id.

        Raises the ValueError of :func:`~trackstitch.mot_io.check_id` for the
        first id, in input order, that an int64 column cannot hold.
        """
        if isinstance(succ_vars, Domains):
            return succ_vars
        succ_vars = list(succ_vars)
        for var in succ_vars:
            for tid in (var.tracklet_id, *(cand for cand in var.marginals if cand is not STOP)):
                check_id(tid, f"a tracklet id of variable {var.tracklet_id}")
        succ_vars.sort(key=lambda var: var.tracklet_id)
        return cls(
            np.array([var.tracklet_id for var in succ_vars], dtype=np.int64),
            np.cumsum([0, *(len(var.marginals) for var in succ_vars)]),
            np.array([0 if cand is STOP else cand for var in succ_vars for cand in var.marginals], dtype=np.int64),
            np.array([m for var in succ_vars for m in var.marginals.values()], dtype=float),
        )

    def _check(self) -> None:
        """Raise the ValueError of the first row that breaks a rule of the table."""
        ids, candidates, products, marginals = self.ids, self.candidates, self.products, self.marginals
        row = np.repeat(np.arange(len(ids)), np.diff(self.offsets))
        stop = candidates == 0
        value = np.isfinite(products) & np.isfinite(marginals) & (products >= 0) & (marginals >= 0)
        counted = (candidates == ids[row], stop, stop & ~(products > 0), ~value | ((products == 0) & (marginals != 0)))
        selfs, stops, dead_stops, bad_values = (np.bincount(row[entries], minlength=len(ids)) for entries in counted)
        with np.errstate(all="ignore"):  # a total that overflows marks its row instead of warning
            totals = left_sums(products, self.offsets)
        rules = {
            "is out of order or repeated: ids must increase strictly from 1": np.diff(ids, prepend=0) < 1,
            "names itself as a candidate": selfs > 0,
            "has no STOP entry": stops == 0,
            "has more than one STOP entry": stops > 1,
            "has a STOP entry whose product is not positive": dead_stops > 0,
            "has a product or marginal that is not finite and >= 0, or a marginal on a product of 0": bad_values > 0,
            "has products whose total is not finite": ~np.isfinite(totals),
        }
        broken = np.argwhere(np.array(list(rules.values())).T)  # (row, rule) pairs, by row, then by rule
        if len(broken):
            raise ValueError(f"variable {ids[broken[0, 0]]} {list(rules)[broken[0, 1]]}")

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
    its attached marginal; a removal looks for the next best only when it
    takes the best, which is rare (6 of 370k removals at 300 objects x 1000
    frames), so the domains are never sorted.
    The attached marginals are used verbatim until a domain first shrinks,
    which ``total[v] < 0`` marks; from then on the marginal of a survivor is
    its attached value divided by ``total[v]``. ``key[v]`` is v's best
    current marginal, -inf once v is bound.

    A removal subtracts its marginal from the total while that keeps at least
    half of it. A candidate holding more than half of the remaining mass is
    re-summed away instead, over the survivors in domain order: subtracting
    it would leave only rounding residue, or 0.
    """

    def __init__(self, domains: Domains):
        domains._check()
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

    def next_best(self, v: int) -> None:
        """Find variable v's preferred surviving entry."""
        lo, hi = self.offsets[v], self.offsets[v + 1]
        live = lo + np.flatnonzero(self.alive[lo:hi])
        values = self.marginals[live]
        tied = live[values == values.max()]
        self.best[v] = tied[self.tie[tied].argmin()]
        self.best_value[v] = self.marginals[self.best[v]]

    def remove(self, entries: np.ndarray) -> None:
        """Remove surviving entries, at most one per variable, of unbound variables."""
        vs = self.var[entries]
        total, best = self.total[vs], self.best[vs]
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

    def run(self) -> tuple[Assignment, SolveStats]:
        ids = self.ids
        assignment: Assignment = {}
        for _ in ids:
            # highest marginal among unbound variables; ties to the smaller
            # variable id, the first in order (within a variable, best
            # already breaks ties)
            v = self.key.argmax().item()
            cand = self.candidates[self.best[v]].item() or STOP
            assignment[ids[v]] = cand
            self.bound[v] = True
            self.key[v] = -np.inf
            if cand is not STOP:
                lo, hi = self.holder_range[cand]
                holders = self.holders[lo:hi]
                holders = holders[self.alive[holders] & ~self.bound[self.var[holders]]]
                if len(holders):
                    self.remove(holders)
        return assignment, SolveStats(nodes=len(ids) + 1)


def solve_with_stats(succ_vars: Sequence[SuccessorVar]) -> tuple[Assignment, SolveStats]:
    """Bind every variable in one greedy max-marginal pass with forward checking.

    ``succ_vars`` is a :class:`Domains` or any sequence of variables, converted
    to one by :meth:`Domains.of`; a table that breaks a rule of :class:`Domains`
    raises ValueError. Also reports the pass's node count and backtracks (0).
    """
    return _Search(Domains.of(succ_vars)).run()


def validate_assignment(assignment: Assignment, tracklets: Tracklets) -> dict[int, int]:
    """Check an assignment against the two hard constraints; return its links, as positions in ``tracklets``.

    Every id named must be a tracklet's (keys checked first), no two links may
    share a successor, and a successor must start strictly after its
    predecessor ends; else ValueError, at the first id or link that breaks one.
    """
    position = {tid: k for k, tid in enumerate(tracklets.ids.tolist())}
    for tid in (*assignment, *assignment.values()):
        if tid is not STOP and tid not in position:
            raise ValueError(f"assignment names unknown tracklet {tid}")
    start, end = (tracklets.rows.frame[k].tolist() for k in (tracklets.bounds[:-1], tracklets.bounds[1:] - 1))
    seen = set()
    for vid, cand in assignment.items():
        if cand is STOP:
            continue
        if cand in seen:
            raise ValueError(f"successor {cand} assigned to two tracklets")
        seen.add(cand)
        if not end[position[vid]] < start[position[cand]]:
            raise ValueError(f"successor {cand} does not start after tracklet {vid} ends")
    return {position[vid]: position[cand] for vid, cand in assignment.items() if cand is not STOP}


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
    ``endpoint_window`` and ``endpoint_min_len``. An assignment that
    :func:`validate_assignment` rejects raises its ValueError.
    """
    successor = validate_assignment(assignment, tracklets)
    # valid successors are distinct and start later: the chains are paths, each walked once from its head
    claimed = set(successor.values())
    chains = []
    for head in np.argsort(tracklets.ids).tolist():
        if head in claimed:
            continue
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(chain)
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
