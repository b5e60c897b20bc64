"""Suite-wide settings: every Hypothesis test draws the same examples on every run."""

from hypothesis import settings

# derandomize=True seeds each test from a hash of the test itself (and implies
# database=None), so a run never depends on examples saved by an earlier one.
# Tests keep their own max_examples and deadline.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
