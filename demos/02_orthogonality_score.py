"""The column-correlation score and the plateau detector.

The score is the ratio of gram diagonal mass to total absolute gram
mass: 1 for orthogonal columns, 1/k when all k columns coincide.  The
plateau detector turns a history of scores into a stop signal for the
training loop.
"""

import numpy as np

from svdn import rri_converged, s_of_w

rng = np.random.default_rng(1)

print("score on canonical matrices (k = 4 columns):")
eye = np.eye(4)
print(f"  identity                - s_of_w = {s_of_w(eye):.4f}")

col = rng.normal(size=4)
col /= np.linalg.norm(col)
same = np.tile(col[:, None], (1, 4))
print(f"  four identical columns  - s_of_w = {s_of_w(same):.4f}  (= 1/k)")

random_w = rng.normal(size=(4, 4))
print(f"  random matrix           - s_of_w = {s_of_w(random_w):.4f}")

blend = 0.5 * eye + 0.5 * same
print(f"  half-way blend          - s_of_w = {s_of_w(blend):.4f}")

print("\nthe score ignores overall scale and column order:")
print(f"  s_of_w(3 * W)      = {s_of_w(3 * random_w):.6f}")
print(f"  s_of_w(W shuffled) = {s_of_w(random_w[:, [2, 0, 3, 1]]):.6f}")

print("\nplateau detection over a score history (epsilon = 0.01):")
history = [0.42, 0.71, 0.84, 0.91, 0.95, 0.958, 0.961]
for upto in range(1, len(history) + 1):
    state = rri_converged(history[:upto], epsilon_s=0.01)
    print(f"  after {upto} iteration(s): history tail {history[max(0, upto - 3):upto]} -> converged = {state}")
