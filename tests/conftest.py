"""Settings shared by every test module under ``tests/``."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# never depends on the draw or on examples saved by an earlier run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
