"""Full training run on the synthetic benchmark.

Generates the default multi-camera identity dataset, fine-tunes the
model (step 0), then alternates decorrelation, restraint, and relaxation
until the correlation score stabilizes.  An equal-epoch control trained
without any of that shows what the iteration scheme buys.
"""

import numpy as np

from svdn import RriSchedule, evaluate, generate_synthetic, initial_model, rank_gallery, run_baseline, run_rri, train_step0

data = generate_synthetic()
print(f"benchmark: {data.features.shape[0]} samples, dim {data.dim}, "
      f"{len(np.unique(data.train_ids))} training identities, "
      f"{data.query_features.shape[0]} queries, {data.gallery_features.shape[0]} gallery rows")

raw = evaluate(data, rank_gallery(data.query_features, data.gallery_features))
print(f"raw-feature retrieval: rank-1 = {raw.cmc[0]:.3f}, mAP = {raw.map:.3f}")

schedule = RriSchedule()  # (128, 128) backbone, 64-wide eigenlayer
model, step0 = train_step0(initial_model(data, schedule), data, schedule)
print(f"\nafter step 0:  s_of_w = {step0.s_of_w:.3f}  rank-1 = {step0.rank1:.3f}  mAP = {step0.map:.3f}")
print("(the weight columns are still highly correlated -- that is what the iterations fix)\n")

control = model.copy()
model, trace = run_rri(model, data, schedule)
print(f"{'iter':>4} {'phase':<12} {'s_of_w':>8} {'loss':>8} {'rank-1':>7} {'mAP':>7}")
for r in trace.records:
    print(f"{r.rri_index:>4} {r.phase:<12} {r.s_of_w:>8.4f} {r.train_loss:>8.4f} {r.rank1:>7.3f} {r.map:>7.3f}")
final = trace.records[-1]
print(f"\nconverged = {trace.converged} after {final.rri_index} iteration(s)")

_, baseline = run_baseline(control, data, schedule, final.rri_index)
print(f"\nequal-epoch control (no replacement, nothing frozen): "
      f"s_of_w = {baseline.s_of_w:.3f}  mAP = {baseline.map:.3f}")
print(f"trained with the iteration scheme:                     "
      f"s_of_w = {final.s_of_w:.3f}  mAP = {final.map:.3f}")
print(f"\northogonality gain {final.s_of_w - baseline.s_of_w:+.3f}, retrieval gain {final.map - baseline.map:+.4f} mAP")
