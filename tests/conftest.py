"""Settings shared by the whole suite."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every property draws the same examples on every run (derandomize), keeps
# no example database and has no deadline; each sets its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis caches the constants it reads from the package source in
    # its home directory, database or not: keep that cache out of the work
    # tree, in a directory removed at the end of the session
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
