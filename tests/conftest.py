"""Helpers for the tests of the task pool, `markov._share`, and its callers.

`usable_cpus(n)` sets the CPU count the pool reads, so that it forks a
child at n = 2 even on a one-CPU host; `refuse_to_fork` stands in for
`os.fork` where no child may start; `forks` counts the children started.
"""

import os

import pytest

from markovfrac import markov


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_to_fork():
    raise AssertionError("a child was forked")


@pytest.fixture
def usable_cpus(monkeypatch):
    def set_count(cpus):
        monkeypatch.setattr(markov, "_usable_cpus", lambda: cpus)

    return set_count


@pytest.fixture
def in_process(usable_cpus):
    """Run every share in this process, where what it records stays."""
    usable_cpus(1)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids
