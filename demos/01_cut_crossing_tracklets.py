"""Cutting tracklets where two objects cross.

Two boxes walk toward each other along the same row. The moment their overlap
reaches the cutter threshold, both tracklets are split so the risky section
starts fresh fragments; a sustained overlap still produces exactly one cut per
tracklet (the rising edge), never one per frame.
"""

import numpy as np

from trackstitch import Detection, cut_tracklets, group_tracklets
from trackstitch.tracklets import iou_pairs

# object 1 moves right, object 2 moves left; they meet at frame 10
walker_a = [Detection(f, 1, float(f), 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
walker_b = [Detection(f, 2, 20.0 - f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]

print("overlap per frame:")
# iou_pairs scores box columns (x, y, w, h) element-wise
overlaps = iou_pairs(np.array([a.box for a in walker_a]).T, np.array([b.box for b in walker_b]).T)
for a, overlap in zip(walker_a, overlaps.tolist()):
    print(f"  frame {a.frame:2d}  IoU = {overlap:.3f}  {'#' * int(40 * overlap)}")

tracklets = group_tracklets(walker_a + walker_b)
print(f"\nbefore cutting: {len(tracklets)} tracklets")
ends = tracklets.ends  # the endpoint columns, one row per tracklet
for tid, first, last in zip(ends.ids.tolist(), ends.start_frame.tolist(), ends.end_frame.tolist()):
    print(f"  tracklet {tid}: frames {first}-{last}")

fragments = cut_tracklets(tracklets, cut_threshold=0.5)
print(f"\nafter cutting at IoU >= 0.5: {len(fragments)} fragments")
ends = fragments.ends
for tid, first, last in zip(ends.ids.tolist(), ends.start_frame.tolist(), ends.end_frame.tolist()):
    print(f"  fragment {tid}: frames {first}-{last}")

print(
    "\nThe overlap first reaches 0.5 at frame 9 and stays high through frame 11,"
    "\nyet each tracklet is cut exactly once, at frame 9."
)
