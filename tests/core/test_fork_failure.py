"""A verdict whose replay child cannot be forked finishes in-process.

``os.fork`` can fail with EAGAIN or ENOMEM.  The overlapped schedule
(DESIGN.md, "Overlapped replays") then runs the set-ups it has already
taken in this process, so the verdict equals the serial schedule's and
the pipe made for the child leaks no descriptor.
"""

import os

import pytest

from repro.netsim.engine import events_processed_total
from test_overlapped_replays import DIGESTS, VERDICTS, report_digest

needs_fork_and_fds = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="no os.fork or no /proc/self/fd",
)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@needs_fork_and_fds
@pytest.mark.parametrize("name", ["hybrid/zoom/common/0", "wild/ISP1/0/sanity"])
def test_failed_fork_gives_the_serial_verdict_and_closes_the_pipe(monkeypatch, name):
    monkeypatch.setenv("REPRO_JOBS", "1")
    start = events_processed_total()
    VERDICTS[name]()
    serial_events = events_processed_total() - start

    calls = []

    def failing_fork():
        calls.append(None)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setattr(os, "fork", failing_fork)
    before = open_fds()
    start = events_processed_total()
    report = VERDICTS[name]()
    events = events_processed_total() - start
    assert open_fds() == before
    assert len(calls) == 1
    assert report_digest(report) == DIGESTS[name]
    assert events == serial_events
