"""Two pieces of work at once: one in a forked child, one in this process.

:func:`beside` forks a child for one piece of work while this process
does the other, and places the two on different CPUs where it can: this
thread on the lowest allowed CPU (see :func:`lowest_cpu`), the child on
the rest. The child sends its log records and its result, or its error,
back through a pipe as one pickled message; this process replays the
records, then raises the error or returns both results. :func:`claims`
shares blocks of work between the two processes, one block at a time,
and a :class:`Handoff` carries one value from this process to the child
once the child runs. :func:`measured` records what a piece of work cost
the process that ran it, so a child's costs can travel back with its
result. Only the standard library is imported here.
"""

from __future__ import annotations

import logging
import os
import pickle
import select
import signal
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Any, Callable, Iterator, NamedTuple

from .errors import SentdepError

try:
    import resource
except ImportError:  # Windows
    resource = None


class _RecordCollector(logging.Handler):
    """Keeps each record as ``QueueHandler.prepare`` leaves it.

    The message is formatted into ``msg``, and ``args`` and the exception
    are dropped, so the record pickles and prints the same elsewhere.
    """

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        # This is the process's only handler, so the record can be changed
        # in place.
        record.msg = record.message = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _child_message(work: Callable[[], Any]) -> bytes:
    """Run ``work`` in a forked child and pickle what its parent needs.

    The message is (log records, result, error): what ``work`` returned,
    and None, the SentdepError raised, or the traceback text of any other
    exception. Every handler of this process is replaced by one collector,
    so the child itself writes nothing.
    """
    loggers = [logging.getLogger(), *logging.Logger.manager.loggerDict.values()]
    for each in loggers:
        if isinstance(each, logging.Logger):
            each.handlers = []
    collector = _RecordCollector()
    logging.getLogger().addHandler(collector)
    result = error = None
    try:
        result = work()
    except SentdepError as exc:
        error = exc
    except BaseException:  # an interrupt too: the child ends in os._exit either way
        error = traceback.format_exc()
    try:
        return pickle.dumps((collector.records, result, error))
    except Exception:  # a result or an error that does not pickle
        return pickle.dumps((collector.records, None, traceback.format_exc()))


def _ended(status: int) -> str:
    """How a process with wait status ``status`` ended, in words."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"killed by signal {signal.Signals(-code).name}"
    return f"exit status {code}"


def _allowed() -> set[int] | None:
    """The CPUs this thread may use; None where they cannot be read."""
    try:
        return os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None


def _pin(cpus: set[int]) -> bool:
    """Confine the calling thread to ``cpus``; False if the kernel refuses."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _cpu_text(cpus: set[int] | None) -> str:
    return ",".join(map(str, sorted(cpus))) if cpus else "any"


@contextmanager
def lowest_cpu() -> Iterator[set[int] | None]:
    """Confine this thread to its lowest allowed CPU for the ``with`` block.

    Yields the rest of the allowed set, which a forked child may take; or
    None, having pinned nothing, with fewer than two allowed CPUs, without
    ``os.sched_setaffinity``, or where the kernel refuses the pin. The
    original set is restored when the block ends, however it ends.
    Numerical libraries first loaded in the block see one CPU, so their
    thread pools start no worker thread.
    """
    allowed = _allowed()
    placed = (allowed is not None and len(allowed) >= 2
              and hasattr(os, "sched_setaffinity") and _pin({min(allowed)}))
    try:
        yield allowed - {min(allowed)} if placed else None
    finally:
        if placed:
            _pin(allowed)


class Overlap(NamedTuple):
    """What :func:`beside` returns: both results, then the seconds this
    process waited for the child's message once its own work was done, and
    the seconds it took to take the message (read and unpickle it, replay
    the child's records, reap the child); both 0.0 where no child ran."""

    child: Any
    parent: Any
    wait_s: float = 0.0
    take_s: float = 0.0


def beside(
    child_work: Callable[[], Any],
    parent_work: Callable[[], Any],
    alone: Callable[[], Any] | None = None,
) -> Overlap:
    """(``child_work()``, ``parent_work()``), the first run in a forked child.

    The two share nothing but what existed at the fork. The child sends
    back one pickled message (see :func:`_child_message`) while this
    process runs ``parent_work``, and then waits for the message and takes
    it (see :class:`Overlap`). The child's log records are handed to this
    process's loggers while the child exits; its SentdepError is then
    raised here with the same class and message, and any other exception
    of the child becomes a RuntimeError that carries its traceback. A
    child that ends without a message, or dies while it writes one (the
    bytes that reached the pipe do not unpickle), becomes a RuntimeError
    that names its wait status. The child is always reaped, and killed
    first when ``parent_work`` raises.

    Where :func:`lowest_cpu` can pin, this thread keeps the lowest allowed
    CPU from before the fork and the child pins itself to the rest: a
    cpuset without load balancing never moves a forked child off its
    parent's CPU. This thread gets its original set back once the child
    has been reaped, however the overlap ends. Where nothing can be pinned,
    both processes stay where the kernel puts them; given ``alone``, this
    process then forks nothing and returns ``(None, alone())``. Without
    ``os.fork`` both works run here, the child's first (or ``alone``
    instead).
    """
    if not hasattr(os, "fork"):
        return Overlap(None, alone()) if alone is not None else Overlap(child_work(),
                                                                        parent_work())
    with lowest_cpu() as child_cpus:
        if alone is not None and child_cpus is None:
            return Overlap(None, alone())
        pid = message = None
        try:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    if child_cpus is not None:
                        _pin(child_cpus)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(_child_message(child_work))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as pipe:
                parent_result = parent_work()
                waited = perf_counter()
                pipe.peek(1)
                taken = perf_counter()
                message = pipe.read()
            try:  # while the child exits; a child that died writing left a cut pickle
                records, child_result, error = pickle.loads(message)
            except (pickle.UnpicklingError, EOFError):
                message = b""
            else:
                for record in records:
                    logging.getLogger(record.name).handle(record)
        finally:
            if pid:
                if message is None:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                _, status = os.waitpid(pid, 0)
    if not message:
        raise RuntimeError(f"a forked process ended without a result: {_ended(status)}")
    if isinstance(error, SentdepError):
        raise error
    if error is not None:
        raise RuntimeError(f"a forked process failed:\n{error}")
    return Overlap(child_result, parent_result, taken - waited, perf_counter() - taken)


#: Bytes of one claim record of :func:`claims`: a block index, little-endian.
CLAIM_BYTES = 4

#: Most blocks one :func:`claims` can share: their records must fit in
#: ``PIPE_BUF`` bytes (512 or more by POSIX).
MAX_CLAIMS = getattr(select, "PIPE_BUF", 512) // CLAIM_BYTES


@contextmanager
def claims(count: int) -> Iterator[Callable[[], Iterator[int]]]:
    """Blocks ``0 .. count - 1`` of some work, each taken by one process:
    this one or a child forked inside the ``with`` block.

    One record per block is written into a pipe in one write, and the
    write end closed. ``count`` may be at most :data:`MAX_CLAIMS`, so the
    records fit in ``PIPE_BUF`` bytes: a write of that size into an empty
    pipe never blocks. The block yields ``claimed``; ``claimed()``
    iterates the blocks whose records the calling process reads, one at a
    time, until none is left, so the process that is free takes the next
    block, and one that dies mid-claim blocks no other. The read end is closed when the block ends.
    """
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"".join(i.to_bytes(CLAIM_BYTES, "little") for i in range(count)))
        os.close(write_fd)

        def claimed() -> Iterator[int]:
            while record := os.read(read_fd, CLAIM_BYTES):
                yield int.from_bytes(record, "little")

        yield claimed
    finally:
        os.close(read_fd)


class Handoff:
    """A pipe for one value from this process to a child forked after it.

    After the fork this process calls :meth:`send` once, and the child
    :meth:`receive`, which waits for the value. A value sent to a child
    that has ended is dropped; :func:`beside` reports how the child ended.
    :meth:`close` closes what is left of the pipe in the calling process.
    """

    def __init__(self) -> None:
        self._fds: list[int | None] = list(os.pipe())  # read end, write end

    def send(self, value: Any) -> None:
        # Without this process's read end, a write to an ended child fails
        # instead of blocking.
        self._close(0)
        data = memoryview(pickle.dumps(value))
        try:
            while data:
                data = data[os.write(self._fds[1], data):]
        except BrokenPipeError:
            pass
        self._close(1)

    def receive(self) -> Any:
        # Without the child's copy of the write end, a sender that ended
        # without sending leaves EOF, an EOFError here, instead of a hang.
        self._close(1)
        with os.fdopen(self._fds[0], "rb", closefd=False) as pipe:
            return pickle.load(pipe)

    def close(self) -> None:
        self._close(0)
        self._close(1)

    def _close(self, end: int) -> None:
        if self._fds[end] is not None:
            os.close(self._fds[end])
            self._fds[end] = None


class Usage(NamedTuple):
    """What one process spent on one piece of work (see :func:`measured`)."""

    pid: int
    cpus: str  # the CPUs it was allowed, as text
    wall_s: float
    cpu_s: float
    switches: int  # involuntary context switches (``ru_nivcsw``)
    peak_mib: float  # the process's own peak RSS so far (``ru_maxrss``)

    def __str__(self) -> str:
        return (f"on CPUs {self.cpus}: {self.wall_s:.3f} s wall, {self.cpu_s:.3f} s CPU, "
                f"{self.switches} involuntary context switches, "
                f"peak RSS {self.peak_mib:.1f} MiB")


def _rusage() -> tuple[float, int, float]:
    """(CPU seconds, involuntary context switches, peak RSS MiB) of this process."""
    if resource is None:
        return process_time(), 0, 0.0
    use = resource.getrusage(resource.RUSAGE_SELF)
    unit_kib = 1 / 1024 if sys.platform == "darwin" else 1  # macOS counts bytes
    return use.ru_utime + use.ru_stime, use.ru_nivcsw, use.ru_maxrss * unit_kib / 1024


def measured(work: Callable[..., Any], *args) -> tuple[Any, Usage]:
    """(``work(*args)``, what this process spent on it)."""
    cpu, switches, _ = _rusage()
    start = perf_counter()
    result = work(*args)
    wall_s = perf_counter() - start
    cpu_after, switches_after, peak_mib = _rusage()
    return result, Usage(os.getpid(), _cpu_text(_allowed()), wall_s, cpu_after - cpu,
                         switches_after - switches, peak_mib)
