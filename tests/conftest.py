"""Hypothesis profiles for the test suite.

Local runs draw fresh random examples. HYPOTHESIS_PROFILE=ci selects the
`ci` profile, which derives every example from the test itself, so a CI
failure reproduces exactly, and prints the blob that replays it.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
