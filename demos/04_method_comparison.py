"""Train once per replacement method and compare final retrieval quality.

All runs share the same initialization and step-0 fine-tuning; they
differ only in which transform the decorrelation phase applies (Orig
applies none).  The distance-preserving US replacement should come out
on top.
"""

from svdn import DecorrMethod, RriSchedule, generate_synthetic, initial_model, run_decorr_comparison

data = generate_synthetic()
schedule = RriSchedule()
results = dict(run_decorr_comparison(initial_model(data, schedule), data, schedule))

print("method   rank-1    mAP")
best = max(results, key=lambda method: results[method].map)
for method, record in results.items():
    marker = "  <- best" if method is best else ""
    print(f"{method.value:<8} {record.rank1:.4f}  {record.map:.4f}{marker}")

us = results[DecorrMethod.US]
print(f"\nUS margin over each competitor (mAP):")
for method, record in results.items():
    if method is not DecorrMethod.US:
        print(f"  vs {method.value:<5}: {us.map - record.map:+.4f}")
