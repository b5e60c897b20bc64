"""Suite-wide settings and helpers.

Every Hypothesis test draws the same examples on every run, and
``packaged_csv`` reads a data file as the package ships it.
"""

from importlib import resources

from hypothesis import settings

# derandomize=True seeds each test from a hash of the test itself (and implies
# database=None), so a run never depends on examples saved by an earlier one.
# Tests keep their own max_examples and deadline.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def packaged_csv(name: str) -> str:
    """The text of ``fatpoints/data/<name>``."""
    return resources.files("fatpoints.data").joinpath(name).read_text()
