"""Shared test settings.

Property tests run with a fixed example sequence and no example database, so
every run checks the same cases and a failure reproduces without saved state.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("deterministic")
