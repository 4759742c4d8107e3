"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a run is repeatable; no deadline, so a loaded machine
# cannot fail a test on timing alone.
settings.register_profile(
    "fockbench", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("fockbench")
