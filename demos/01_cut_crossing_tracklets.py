"""Cutting tracklets where two objects cross.

Two boxes walk toward each other along the same row. The moment their overlap
reaches the cutter threshold, both tracklets are split so the risky section
starts fresh fragments; a sustained overlap still produces exactly one cut per
tracklet (the rising edge), never one per frame.
"""

from trackstitch import Detection, cut_tracklets, group_tracklets, iou

# object 1 moves right, object 2 moves left; they meet at frame 10
walker_a = [Detection(f, 1, float(f), 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]
walker_b = [Detection(f, 2, 20.0 - f, 0.0, 10.0, 10.0, 1.0) for f in range(1, 21)]

print("overlap per frame:")
for a, b in zip(walker_a, walker_b):
    bar = "#" * int(40 * iou(a.box, b.box))
    print(f"  frame {a.frame:2d}  IoU = {iou(a.box, b.box):.3f}  {bar}")

tracklets = group_tracklets(walker_a + walker_b)
print(f"\nbefore cutting: {len(tracklets)} tracklets")
for t in tracklets:
    print(f"  tracklet {t.id}: frames {t.start.frame}-{t.end.frame}")

fragments = cut_tracklets(tracklets, cut_threshold=0.5)
print(f"\nafter cutting at IoU >= 0.5: {len(fragments)} fragments")
for t in fragments:
    print(f"  fragment {t.id}: frames {t.start.frame}-{t.end.frame}")

print(
    "\nThe overlap first reaches 0.5 at frame 9 and stays high through frame 11,"
    "\nyet each tracklet is cut exactly once, at frame 9."
)
