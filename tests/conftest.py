import gc
import os

import pytest


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """`cli.main` freezes the collector, as a process entry point may; a test
    that calls it in this process leaves the heap collectable for the next."""
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process left, running or unreaped: a
    noise sweep reaps the children it forks, whether it succeeds, fails or is
    interrupted."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
