"""Shared test configuration: one reproducible hypothesis profile.

Examples are derandomized, so every run of the suite draws the same cases,
and there is no per-example deadline, because example timings on a loaded
machine vary too much to gate on.
"""

from hypothesis import settings

settings.register_profile("kp3d", derandomize=True, deadline=None)
settings.load_profile("kp3d")
