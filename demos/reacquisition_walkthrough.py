"""Closed-loop re-acquisition, one round, step by step.

Renders a defect far off-center in a nadir frame where vignetting
attenuates its apparent contrast, solves the minimal Rodrigues rotation
that re-points the boresight at the detection, re-renders from the hover,
and shows the target landing on the principal point at full contrast.

Run:  python3 demos/reacquisition_walkthrough.py
"""

import math
from dataclasses import replace

import numpy as np

from pvpipeline.detector import detect
from pvpipeline.geodesy import GeoPoint
from pvpipeline.reacquisition import (Attitude, CameraIntrinsics, backproject,
                                      camera_to_world_rotation, repoint,
                                      solve_axis_angle)
from pvpipeline.simulator import (DefectMix, FramePose, PlantLayout,
                                  RenderModel, generate_plant, render_frame)

intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=31.5,
                        width=80, height=64)
layout = PlantLayout(origin=GeoPoint(lat=49.407, lon=26.984))
defects = generate_plant(1, layout, DefectMix(count=1, n_small=0))
target = defects[0]

# Hover 2.5 m off the defect so it images far from the principal point.
pose = FramePose(east=target.east - 2.0, north=target.north + 1.5,
                 altitude=10.0, gimbal=Attitude(pitch=-math.pi / 2.0),
                 time_s=0.0)
frame = render_frame(defects, pose, intr, RenderModel(), speed=0.0)
det = detect(frame)[0]
u, v = det.bbox.center
print(f"first sighting : pixel ({u:.1f}, {v:.1f}), "
      f"{math.hypot(u - intr.cx, v - intr.cy):.1f} px off-center, "
      f"confidence {det.confidence:.2f}")

# Solve the pointing correction from the detection's line of sight.
rot = camera_to_world_rotation(pose.gimbal)
los = rot @ backproject(u, v, intr)
bore = rot @ np.array([0.0, 0.0, 1.0])
aa = solve_axis_angle(bore, los)
print(f"Rodrigues solve: axis {np.round(aa.axis, 3)}, "
      f"angle {math.degrees(aa.angle):.2f} deg")

gimbal = repoint(pose.gimbal, los)
print(f"gimbal command : delta pitch "
      f"{math.degrees(gimbal.pitch - pose.gimbal.pitch):+.2f} deg, "
      f"delta yaw {math.degrees(gimbal.yaw - pose.gimbal.yaw):+.2f} deg")

# Re-render from the re-pointed hover and detect again.
repointed = replace(pose, gimbal=gimbal)
frame2 = render_frame(defects, repointed, intr, RenderModel(), speed=0.0)
det2 = max(detect(frame2), key=lambda d: d.confidence)
u2, v2 = det2.bbox.center
print(f"second sighting: pixel ({u2:.1f}, {v2:.1f}), "
      f"{math.hypot(u2 - intr.cx, v2 - intr.cy):.1f} px off-center, "
      f"confidence {det2.confidence:.2f}")
peak1 = frame.temp_c.max() - 25.0
peak2 = frame2.temp_c.max() - 25.0
print(f"apparent excess: {peak1:.2f} C off-axis -> {peak2:.2f} C centered "
      "(vignetting no longer attenuates the confirmatory view)")
