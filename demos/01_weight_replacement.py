"""Walk through the five weight-replacement transforms.

A weight matrix with correlated columns is replaced by each transform in
turn; we inspect the gram matrix of the result and check which
replacement leaves pairwise feature distances untouched.
"""

import numpy as np

from svdn import DecorrMethod, distance_preservation_gap, s_of_w
from svdn.decorrelate import apply

rng = np.random.default_rng(0)

# a deliberately correlated 6x4 weight matrix: columns share a component
base = rng.normal(size=6)
w = np.stack([base + 0.4 * rng.normal(size=6) for _ in range(4)], axis=1)
h = rng.normal(size=(50, 6))  # feature rows entering the layer

print("original weight matrix:")
print(f"  correlation score s_of_w = {s_of_w(w):.4f}  (1.0 would mean orthogonal columns)")
print(f"  gram matrix off-diagonal mass = {np.abs(w.T @ w - np.diag(np.diag(w.T @ w))).sum():.3f}")

print("\nreplacement transforms:")
for method in DecorrMethod:
    replaced = apply(w, method)
    gap = distance_preservation_gap(w, replaced, h)
    score = s_of_w(replaced)
    print(f"  {method.value:<5}  s_of_w = {score:.6f}   max distance change = {gap:.3e}")

print(
    "\nOnly the US replacement combines orthogonal columns with an exactly"
    "\npreserved distance structure -- the other orthogonalizing transforms"
    "\nre-weight the projection directions and move every ranking built on them."
)
