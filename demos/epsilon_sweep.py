"""DBSCAN epsilon sensitivity on a dense defect field.

Sweeps the clustering radius over {0.1, 0.5, 1.0, 2.0, 5.0} m on a plant
with 12 defects spaced at least 2.2 m apart. A radius much smaller than
the projection scatter fragments each defect into several events; a radius
larger than the defect spacing merges distinct defects into one.

Run:  python3 demos/epsilon_sweep.py
"""

from dataclasses import replace

from pvpipeline.simulator import DefectMix, MissionConfig, evaluate, \
    run_mission, sweep_csv

config = replace(MissionConfig(seed=0),
                 defects=DefectMix(count=12, n_small=0, min_separation_m=2.2))
rows = []
for eps in [0.1, 0.5, 1.0, 2.0, 5.0]:
    dedup = replace(config.dedup, epsilon=eps)
    trace, _ = run_mission(replace(config, dedup=dedup))
    rows.append((eps, evaluate(trace)))

print(sweep_csv("epsilon", rows))
gt = rows[0][1].gt_count
print(f"ground truth: {gt} defects")
for eps, m in rows:
    if m.event_count > gt:
        verdict = "overcounts (fragmentation)"
    elif m.event_count == gt:
        verdict = "exact"
    else:
        verdict = "undercounts (over-merging)"
    print(f"  eps={eps:>4g} m -> {m.event_count:3d} events  {verdict}")
