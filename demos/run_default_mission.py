"""End-to-end mission walkthrough on the default simulated plant.

Generates a 10x10 plant with 8 defects, flies the lawnmower pattern,
runs detection + re-acquisition + projection + de-duplication, and prints
the mission metrics alongside the relevance-only telemetry payload size.

Run:  python3 demos/run_default_mission.py
"""

from pvpipeline.simulator import MissionConfig, evaluate, run_mission
from pvpipeline.telemetry import to_json, to_kml

config = MissionConfig(seed=0)
trace, report = run_mission(config)
metrics = evaluate(trace)

print(f"site {config.site_id}, seed {config.seed}")
print(f"ground-truth defects : {metrics.gt_count}")
print(f"frames flown         : {trace.frames}")
print(f"raw detections       : {trace.detections_seen}")
print(f"accepted detections  : {len(trace.accepted)}")
print(f"defect events        : {metrics.event_count}")
print()
print(f"recall               : {metrics.recall:.3f}")
print(f"small-target recall  : {metrics.recall_small:.3f}")
print(f"dup-FP rate (raw)    : {metrics.dup_fp_raw:.3f}")
print(f"dup-FP rate (dedup)  : {metrics.dup_fp_dedup:.3f}")
print()

payload = to_json(report)
print(f"raw imagery bytes    : {trace.raw_bytes:,}")
print(f"telemetry bytes      : {len(payload):,}")
print(f"bandwidth savings    : {metrics.bandwidth_savings:.1%}")
print()
print("first detection record:")
print(payload.decode()[:240], "...")
print()
print("KML export:", len(to_kml(report)), "bytes,",
      len(report.detections), "placemarks")
