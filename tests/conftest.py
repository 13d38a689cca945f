"""Shared pytest configuration."""

from hypothesis import settings

# Property tests over exact arithmetic: a fixed example stream makes every
# run check the same systems, and no deadline keeps a slow exact solve from
# reading as a failure.
settings.register_profile("ctxcheck", derandomize=True, deadline=None)
settings.load_profile("ctxcheck")
