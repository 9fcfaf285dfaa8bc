"""Worker processes for the generators' base-2 strong tests and the
survivors' strong Lucas rounds.

C ``pow`` holds the interpreter lock, so the tests of different
candidates, and the rounds of one, run side by side only in processes of
their own.  ``take`` hands the caller this process's pool, forked at the
first call: one worker per CPU the process may run on
(``os.sched_getaffinity``), at most MAX_WORKERS, kept for the process's
later calls.  It gives None, so that every test runs inline, with one
CPU, without ``os.fork``, or in a process that already runs threads,
where a fork would copy the locks they hold.  A worker that dies closes
its pool: the caller's requests then run inline, and the next ``take``
forks a fresh pool.

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

from .classical import draw_rounds, first_rejection, round_result
from .kernel import is_strong_probable_prime
from .lucas import LucasParams, RoundResult, Verdict, strong_lucas_round

# The calling process screens the candidates and runs the first of each
# survivor's Lucas rounds, so it cannot keep more workers busy.
MAX_WORKERS = 4


class Workers:
    """Worker processes, forked from this one, that run base-2 tests and
    strong Lucas rounds.

    Each worker reads requests as lines from a pipe of its own and answers
    each with a line on another; it holds at most one request at a time.
    ``test`` sends a base-2 test to a free worker and returns its ticket.
    ``wait`` waits on every busy worker's reply pipe together and keeps
    each reply under its ticket until ``passes`` takes it, so the caller
    refills whichever worker answers first.  ``run_rounds`` runs a
    survivor's strong Lucas rounds on the workers and this process
    together.  A dead worker shows as the end of its own reply pipe.  It,
    or an exception in the middle of an exchange, closes the pool: the
    requests still held get no reply, which the caller then runs here, and
    nothing more is sent.  A worker exits at the end of its request pipe,
    so none outlives this process.
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

    def idle(self) -> bool:
        """Whether a worker is free; False once the pool is closed."""
        return None in self.held

    def _free(self) -> bool:
        """Wait until a worker is free; False once the pool is closed."""
        while self.held and not self.idle():
            self.wait()
        return self.idle()

    def waiting(self, ticket: int | None) -> bool:
        """Whether a worker still holds the request under ``ticket``."""
        return ticket is not None and ticket in self.held

    def _send(self, line: bytes) -> int | None:
        worker = self.held.index(None)
        try:
            self.requests[worker].write(line)
            self.requests[worker].flush()
        except OSError:  # the worker died
            self.close()
            return None
        except BaseException:
            self.close()
            raise
        ticket = self.held[worker] = self.sent
        self.sent += 1
        return ticket

    def test(self, n: int) -> int | None:
        """Send a base-2 test of n to a free worker: its ticket, or None
        if the pool closed."""
        return self._send(b"%x\n" % n)

    def _send_round(self, n: int, params: LucasParams) -> int | None:
        """Send a strong Lucas round on n to a free worker: its ticket, or
        None if the pool closed."""
        return self._send(b"%x %x %x\n" % (n, params.P, params.Q))

    def wait(self) -> None:
        """Read the reply of each busy worker that has answered, waiting
        until one has."""
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
                    self.answers[self.held[w]] = reply
                    self.held[w] = None
                    self.read += 1
        except BaseException:
            self.close()
            raise

    def _reply(self, ticket: int) -> bytes:
        """The reply under ``ticket``, waiting for it; b"" if the pool
        closed first."""
        while self.waiting(ticket):
            self.wait()
        return self.answers.pop(ticket, b"")

    def passes(self, ticket: int) -> bool | None:
        """Whether the candidate under ``ticket`` passed its base-2 test;
        None if the pool closed before it answered."""
        reply = self._reply(ticket)
        return reply == b"1\n" if reply else None

    def _round(self, ticket: int) -> RoundResult | None:
        """The result of the round under ``ticket``; None if the pool
        closed before it answered."""
        reply = self._reply(ticket)
        if not reply:
            return None
        verdict, reason, factor = reply.decode().split(",")
        return RoundResult(Verdict(verdict), reason, int(factor, 16) or None)

    def run_rounds(self, n: int, rounds: int, rng,
                   d: int | None) -> tuple[RoundResult, int]:
        """``classical.run_rounds(n, "strong-lucas", rounds, rng, d)``, with
        rounds 2..t on the workers.

        All t pairs are drawn up front, with the stream's state saved after
        each draw.  Before this process runs a round, it hands the next
        rounds to the workers, one each, as soon as each is free: a worker
        still holding a base-2 test is done sooner than this process's
        round would be.  A rejection at round i restores the state saved
        after draw i, and the rounds still out are waited for, so the rounds
        counted and every later draw are a serial run's, and no round is
        pending when the base-2 tests go on.
        """
        check, draws = draw_rounds(n, "strong-lucas", rounds, rng, d)
        drawn, states = [], []
        for pair in draws:
            drawn.append(pair)
            states.append(rng.getstate())
        tickets = {}  # round index -> ticket of the worker running it

        def results():
            for i, pair in enumerate(drawn):
                res = self._round(tickets.pop(i)) if i in tickets else None
                if res is None:  # not sent, or lost with its worker
                    ahead = drawn[i + 1:i + 1 + len(self.pids)]
                    for j, later in enumerate(ahead, i + 1):
                        if isinstance(later, LucasParams) and self._free():
                            tickets[j] = self._send_round(n, later)
                    res = round_result(check, n, pair)
                yield res

        res, spent = first_rejection(results())
        for ticket in tickets.values():
            self._round(ticket)
        if spent < len(drawn):
            rng.setstate(states[spent - 1])
        return res, spent

    def release(self) -> None:
        """Wait for the replies still owed, drop those no caller took, then
        hand the pool back for the next ``take``."""
        while any(ticket is not None for ticket in self.held):
            self.wait()
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

    A request is n in hex, for a base-2 strong test, answered "1" if n
    passes and "0" if not; or n, P and Q, for a strong Lucas round,
    answered "verdict,reason,factor" (the factor in hex, 0 for none).
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
                if not params:
                    passed = is_strong_probable_prime(n, 2)
                    out.write(b"1\n" if passed else b"0\n")
                    continue
                res = strong_lucas_round(n, LucasParams(*params))
                out.write(b"%s,%s,%x\n" % (res.verdict.value.encode(),
                                           res.reason.encode(),
                                           res.factor or 0))
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
