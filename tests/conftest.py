"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, and with no example database.  Hypothesis
still caches the constants it reads from the source; that cache goes to
the system temporary directory, so a run leaves no ``.hypothesis/`` in
the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "wlansim-hypothesis")
settings.register_profile("wlansim", derandomize=True, database=None)
settings.load_profile("wlansim")
