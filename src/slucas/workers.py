"""Worker processes for the generators' base-2 strong tests and the
survivors' strong Lucas rounds.

C ``pow`` holds the interpreter lock, so the tests of different
candidates, and the rounds of one, run side by side only in processes of
their own.  ``take`` hands the caller this process's pool, forked at the
first call: one worker per CPU the process may run on
(``os.sched_getaffinity``), at most MAX_WORKERS, kept for the process's
later calls.  It gives None, so that every request runs inline, with one
CPU, without ``os.fork``, or in a process that already runs threads,
where a fork would copy the locks they hold.  ``Workers.send`` hands a
worker one request and ``Workers.result`` takes back its one reply line,
decoded into a ``RoundResult``.  ``generation`` sends base-2 tests this
way, and ``classical.run_rounds`` a survivor's later Lucas rounds; both
use nothing else of a pool but its ``pids``.  A worker that dies closes
its pool: the caller's requests then run inline, and the next ``take``
forks afresh.

The workers are plain ``os.fork`` children fed over pipes:
``concurrent.futures`` alone takes about 30 ms to import (Python 3.11 on
a 2-vCPU host), more than the pool saves a process that makes one
1024-bit prime.  ``generation`` imports this module at the first call
that needs it; it loads nothing else but ``select``, to wait on every
worker at once, and ``signal``, to start and end a worker.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import select
import sys

from .classical import miller_rabin_round
from .lucas import LucasParams, RoundResult, Verdict, strong_lucas_round

# The calling process screens the candidates and runs the first of each
# survivor's Lucas rounds, so it cannot keep more workers busy.
MAX_WORKERS = 4


class Workers:
    """Worker processes, forked from this one, that run base-2 tests and
    strong Lucas rounds.

    ``send`` hands a request to a free worker and returns its ticket; a
    worker holds one request at a time and answers it with one
    "verdict,reason,factor" line.  While ``send`` waits for a free worker,
    or ``result`` for a reply, every busy worker's reply pipe is waited on
    together, and each reply is decoded into a ``RoundResult`` kept under
    its ticket until ``result`` takes it.  ``generation`` and
    ``classical.run_rounds`` use only ``send``, ``result`` and ``pids``.
    A dead worker shows as the end of its own reply pipe.  It, or an
    exception in the middle of an exchange, closes the pool: the requests
    still held get no reply, which the caller then runs here, and nothing
    more is sent.  A worker exits when its request pipe ends, so none
    outlives this process.
    """

    def __init__(self, count: int):
        self.pids, self.requests, self.replies = [], [], []
        self.held = []  # per worker: the ticket of the request it holds
        self.answers = {}  # ticket -> reply read but not yet taken
        self.sent = self.read = 0  # requests sent, replies read
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
                self.held.append(None)
        except BaseException:
            self.close()
            raise

    def send(self, n: int, params: LucasParams | None = None) -> int | None:
        """Send n for a base-2 strong test, or with ``params`` for a strong
        Lucas round, once a worker is free: its ticket; None if closed."""
        while self.held and None not in self.held:
            self._wait()
        if not self.held:
            return None
        worker = self.held.index(None)
        try:
            self.requests[worker].write(b"%x\n" % n if params is None
                                        else b"%x %x %x\n" % (n, *params))
            self.requests[worker].flush()
        except BaseException as exc:
            self.close()
            if isinstance(exc, OSError):  # the worker died
                return None
            raise
        ticket = self.held[worker] = self.sent
        self.sent += 1
        return ticket

    def _wait(self) -> None:
        """Read each busy worker's reply that is in, waiting for one."""
        busy = [w for w, ticket in enumerate(self.held) if ticket is not None]
        try:
            ready, _, _ = select.select([self.replies[w] for w in busy],
                                        [], [])
            for w in busy:
                if self.replies[w] in ready:
                    reply = self.replies[w].readline()
                    if not reply.endswith(b"\n"):  # the worker died
                        self.close()
                        return
                    self.answers[self.held[w]] = _decode(reply)
                    self.held[w] = None
                    self.read += 1
        except BaseException:
            self.close()
            raise

    def result(self, ticket: int | None) -> RoundResult | None:
        """The result under ``ticket``, waited for; None if the pool closed."""
        while ticket is not None and ticket in self.held:
            self._wait()
        return self.answers.pop(ticket, None)

    def release(self) -> None:
        """Wait for the replies still owed, drop those no caller took, then
        hand the pool back for the next ``take``."""
        while any(ticket is not None for ticket in self.held):
            self._wait()
        self.answers.clear()
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
        self.pids, self.requests, self.replies, self.held = [], [], [], []
        self.answers = {}
        self.sent = self.read = 0


def _serve(requests: int, replies: int, parent_ends) -> None:
    """A worker's life: answer each request until its pipe ends, then exit.

    A request is n in hex, for a base-2 strong test, or n, P and Q, for a
    strong Lucas round; each gets its ``RoundResult`` back as one line,
    "verdict,reason,factor" (the factor in hex, 0 for none), which
    ``_decode`` reads.  A base-2 test's is ``miller_rabin_round(n, 2)``.
    """
    try:
        import signal
        # Ctrl-C reaches the whole process group; the caller handles it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for pipe in parent_ends:  # so each worker sees its own pipe end
            os.close(pipe.fileno())
        with open(requests, "rb") as lines, open(replies, "wb", 0) as out:
            for line in lines:
                n, *params = (int(field, 16) for field in line.split())
                res = (strong_lucas_round(n, LucasParams(*params)) if params
                       else miller_rabin_round(n, 2))
                out.write(("%s,%s,%x\n" % (res.verdict.value, res.reason,
                                           res.factor or 0)).encode())
    finally:
        os._exit(0)


def _decode(reply: bytes) -> RoundResult:
    verdict, reason, factor = reply.decode().split(",")
    return RoundResult(Verdict(verdict), reason, int(factor, 16) or None)


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
