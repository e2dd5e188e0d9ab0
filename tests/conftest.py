"""Test-suite settings shared by every module under tests/."""

import os
import tempfile

# Hypothesis caches what it reads from source files under its storage
# directory, `.hypothesis/` in the working directory unless this is set.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "aporbit-hypothesis"))

from hypothesis import settings  # noqa: E402

# Property tests draw the same examples on every run and keep no example
# database, so a run gives the same result each time and leaves no
# .hypothesis/ directory in the checkout.
settings.register_profile("aporbit", database=None, derandomize=True)
settings.load_profile("aporbit")
