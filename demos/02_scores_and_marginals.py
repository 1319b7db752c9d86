"""How pairwise scores and marginals decide who follows whom.

Three fragments: the first two belong to the same object moving at a steady
2 px/frame; the third sits far away. We print the per-constraint scores of
every candidate successor of fragment 1 (including STOP) and the marginals
the search branches on, then plot the score curve itself.
"""

import numpy as np

from trackstitch import (
    ConstraintKind,
    Detection,
    ScoreConfig,
    SequenceMeta,
    build_domains,
    group_tracklets,
)
from trackstitch.scoring import gaussian_scores

meta = SequenceMeta(fps=30, img_width=1920, img_height=1080, num_frames=300)
cfg = ScoreConfig()


def fragment(tid, first, last, x0, vx=2.0, y0=100.0):
    return [Detection(f, tid, x0 + vx * (f - first), y0, 30.0, 60.0, 1.0) for f in range(first, last + 1)]


same_object_head = fragment(1, 1, 100, x0=50.0)
same_object_tail = fragment(2, 103, 200, x0=50.0 + 2.0 * 102)  # resumes on the same path
far_away = fragment(3, 103, 200, x0=1500.0, y0=800.0)

tracklets = group_tracklets(same_object_head + same_object_tail + far_away)
succ_vars = build_domains(tracklets, cfg, meta)
var = succ_vars[0]  # successor variable of fragment 1

print("candidate table of fragment 1:")
kinds = cfg.enabled_kinds
header = "  candidate  " + "".join(f"{k.value:>12}" for k in kinds) + f"{'product':>14}{'marginal':>12}"
print(header)
for cand, ps in var.pair_scores.items():
    name = "STOP" if cand is None else str(cand)
    row = f"  {name:<11}" + "".join(f"{ps.scores[k]:12.3e}" for k in kinds)
    row += f"{ps.product:14.3e}{var.marginals.get(cand, 0.0):12.6f}"
    print(row)

print(
    "\nFragment 2 resumes fragment 1's path two frames later, so its product of"
    "\nscores towers nine orders of magnitude over the far-away fragment 3 and"
    "\nover STOP: the marginal the search branches on is effectively 1."
)

# the score curve: a Gaussian through (0, U), (t50, 0.5), clamped at L and U
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    td = cfg.params[ConstraintKind.TIME_DISTANCE]
    grid = np.linspace(0, 5 * td.t50, 400)
    values = gaussian_scores(grid, td, cfg.lower, cfg.upper)
    fig, ax = plt.subplots(figsize=(6, 3.5))
    ax.plot(grid, values)
    ax.axvline(td.t50, linestyle="--", color="gray")
    ax.axhline(0.5, linestyle="--", color="gray")
    ax.annotate("score = 0.5 at t50", (td.t50, 0.5), textcoords="offset points", xytext=(8, 8))
    ax.set_xlabel("constraint distance")
    ax.set_ylabel("score")
    ax.set_title("bounded Gaussian score")
    fig.tight_layout()
    fig.savefig("score_curve.png", dpi=120)
    print("\nwrote score_curve.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
