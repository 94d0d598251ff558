"""Embedding-width sweep with and without the iteration scheme.

For each width the model is fine-tuned, then either trained with
decorrelation iterations or given the same extra epochs plain.  Plain
training wastes wide embeddings on redundant directions; the iteration
scheme keeps the curve flat at the top.
"""

from dataclasses import replace

from svdn import RriSchedule, generate_synthetic, initial_model, run_dim_sweep

data = generate_synthetic()
schedule = RriSchedule()
models = [initial_model(data, replace(schedule, eigen_dim=width)) for width in (4, 8, 16, 32, 64, 128)]

print(f"{'width':>6} {'with iterations':>16} {'plain (equal epochs)':>21}")
results = []
for width, final, control in run_dim_sweep(models, data, schedule):
    results.append((width, final.map, control.map))
    print(f"{width:>6} {final.map:>16.4f} {control.map:>21.4f}")

peak_with = max(m for _, m, _ in results)
print(f"\nwith iterations the two widest settings stay within "
      f"{max(peak_with - results[-1][1], peak_with - results[-2][1]):.4f} of the peak mAP {peak_with:.4f}:")
print("wide embeddings stop being a liability once the columns are kept decorrelated.")
