import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# Property tests draw the same cases in every checkout: a derandomized
# search (seeded from each test's own source) with no example database, so
# the result depends on the tree alone. `pytest --hypothesis-profile=explore`
# runs a random search with more examples instead; a case it finds goes back
# into the test as an @example. Both are registered here because the pytest
# plugin loads the named profile before any test module is imported.
settings.register_profile("default", derandomize=True, database=None,
                          max_examples=30, deadline=None)
settings.register_profile("explore", derandomize=False, max_examples=1000,
                          deadline=None)
