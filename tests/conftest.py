"""Checks that hold after every test of the suite."""
import gc
import os

import pytest


def open_corpus_files():
    """The corpus split files (.dmc) this process holds open, where /proc tells."""
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return []
    paths = []
    for fd in fds:
        try:
            paths.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, closed by now
            continue
    return [path for path in paths if path.endswith(".dmc")]


@pytest.fixture(autouse=True)
def no_corpus_file_left_open():
    """No test leaves a corpus split open: a loaded split's FileArray closes
    its descriptor once nothing refers to it."""
    yield
    if open_corpus_files():
        gc.collect()  # a reference cycle, such as a caught exception's frames, may hold one
        assert open_corpus_files() == []
