"""Worker processes for the generators' base-2 strong tests.

C ``pow`` holds the interpreter lock, so base-2 tests of different
candidates run side by side only in processes of their own.  ``take``
hands the caller this process's pool, forked at the first call: one
worker per CPU the process may run on (``os.sched_getaffinity``), at
most MAX_WORKERS, kept for the process's later calls.  It gives None, so
that every test runs inline, with one CPU, without ``os.fork``, or in a
process that already runs threads, where a fork would copy the locks
they hold.  A worker that dies closes its pool: the caller's tests then
run inline, and the next ``take`` forks a fresh pool.

The workers are plain ``os.fork`` children fed over pipes:
``concurrent.futures`` alone takes about 30 ms to import (Python 3.11 on
a 2-vCPU host), more than the pool saves a process that makes one
1024-bit prime.  ``generation`` imports this module at the first call
that needs it; it loads nothing else but ``signal``, to start and end a
worker.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import sys

from .kernel import is_strong_probable_prime

# The calling process screens and runs the Lucas rounds, about a quarter
# of the work at 1024 bits, so it cannot keep more workers busy.
MAX_WORKERS = 4


class Workers:
    """Worker processes, forked from this one, that run base-2 tests.

    Each worker reads candidates as hex lines from a pipe and answers each,
    in the order sent, with one byte: b"1" if it passes.  ``ask`` sends a
    candidate to the next worker in turn and ``answer`` reads the reply to
    the oldest one asked, so replies come back in the order asked.  A dead
    worker, or an exception in the middle of an exchange, closes the pool:
    ``answer`` then runs the test here and ``ask`` sends nothing.  A worker
    exits at the end of its pipe, so none outlives this process.
    """

    def __init__(self, count: int):
        self.pids, self.requests, self.replies = [], [], []
        self.sent = self.read = 0  # tests asked, replies read
        try:
            for _ in range(count):
                requests, replies = os.pipe(), os.pipe()
                self.requests.append(open(requests[1], "wb"))
                self.replies.append(open(replies[0], "rb"))
                pid = os.fork()
                if pid == 0:
                    _serve(requests[0], replies[1],
                           self.requests + self.replies)
                os.close(requests[0])
                os.close(replies[1])
                self.pids.append(pid)
        except BaseException:
            self.close()
            raise

    def room(self) -> bool:
        """Whether a test may be sent: up to two per worker are in flight."""
        return self.sent - self.read < 2 * len(self.pids)

    def ask(self, n: int) -> bool:
        """Send n to the next worker; False once the pool is closed."""
        if not self.pids:
            return False
        try:
            pipe = self.requests[self.sent % len(self.pids)]
            pipe.write(b"%x\n" % n)
            pipe.flush()
            self.sent += 1
        except OSError:  # the worker died
            self.close()
            return False
        except BaseException:
            self.close()
            raise
        return True

    def _reply(self) -> bytes:
        """The next reply, or b"" once the pool is closed."""
        if not self.pids:
            return b""
        try:
            reply = self.replies[self.read % len(self.pids)].read(1)
            self.read += 1
        except BaseException:
            self.close()
            raise
        if not reply:  # the worker died
            self.close()
        return reply

    def answer(self, n: int) -> bool:
        """Whether n, the oldest candidate asked, passes a base-2 test."""
        reply = self._reply()
        return reply == b"1" if reply else is_strong_probable_prime(n, 2)

    def release(self) -> None:
        """Wait for the replies still owed, then hand the pool back for the
        next ``take``."""
        while self.read < self.sent:
            self._reply()
        if self.pids:
            _pools[os.getpid()] = self

    def close(self) -> None:
        """End every worker."""
        import signal
        for pipe in self.requests + self.replies:
            with contextlib.suppress(OSError):  # a write a dead worker cut
                pipe.close()
        for pid in self.pids:
            with contextlib.suppress(OSError):  # already gone
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
        self.pids, self.requests, self.replies = [], [], []
        self.sent = self.read = 0


def _serve(requests: int, replies: int, parent_ends) -> None:
    """A worker's life: answer base-2 tests until its pipe ends, then exit."""
    try:
        import signal
        # Ctrl-C reaches the whole process group; the caller handles it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for pipe in parent_ends:  # so each worker sees its own pipe end
            os.close(pipe.fileno())
        with open(requests, "rb") as lines, open(replies, "wb", 0) as out:
            for line in lines:
                passed = is_strong_probable_prime(int(line, 16), 2)
                out.write(b"1" if passed else b"0")
    finally:
        os._exit(0)


_pools: dict[int, Workers] = {}  # process id -> its idle pool


@atexit.register
def _close_idle() -> None:
    pool = _pools.pop(os.getpid(), None)
    if pool is not None:
        pool.close()


def take() -> Workers | None:
    """This process's pool, forked at the first call, or None to run every
    test inline.

    The caller holds the pool alone until ``release``.  A second thread,
    while the first holds it, finds none and forks none; a forked child of
    this process forks a pool of its own.
    """
    if not hasattr(os, "fork"):
        return None
    pool = _pools.pop(os.getpid(), None)
    if pool is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # not offered on every platform
            cpus = os.cpu_count() or 1
        threading = sys.modules.get("threading")
        if cpus < 2 or threading and threading.active_count() > 1:
            return None
        try:
            pool = Workers(min(cpus, MAX_WORKERS))
        except OSError:  # no process or pipe to spare
            return None
    return pool
