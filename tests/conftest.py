"""Test-session settings shared by every test module."""

from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 run repeats exactly; each test keeps its own counts
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
