"""One worker per series: the host's and the subsystem's part of a stage.

``host_and_sub`` runs both, the sub's in a forked child where
``fork_pays``; its docstring states the process contract.  ``report``
fits and plots each series through it and ``simulate`` makes and writes
each; those children are the only processes this tool starts.
"""

from __future__ import annotations

import marshal
import os

#: Fewest points the shorter series needs before ``host_and_sub`` forks.  A
#: fork, pipe and reap take about 2.3 ms.  Forked/serial time at n = 1 024,
#: 2 048, 4 096, 10 000 on a 2-core VM (40 interleaved pairs each): report
#: --plot 0.78, 0.83, 0.76, 0.67; simulate 1.13, 0.85, 0.74, 0.70.  Under
#: ``taskset -c 0`` (one CPU, 30 pairs) every ratio is 1.04-1.65.
FORK_MIN_POINTS = 1024


def _threads() -> int:
    """This process's threads: all of them where /proc lists them (a C
    library's too), else the interpreter's."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def fork_pays(points: int) -> bool:
    """Whether a second process can shorten work on two series whose
    shorter one has ``points`` points: ``os.fork`` exists, the series are
    long, this process may run on more than one CPU and it runs one thread
    (a fork copies no other thread, so a lock one of them held stays held
    in the child)."""
    if not hasattr(os, "fork") or points < FORK_MIN_POINTS:
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus > 1 and _threads() == 1


def _fork(call):
    """Start a child that runs ``call()``, pipes back its ``marshal``led
    result and always ends in ``os._exit``, without a result if anything
    in it raised.  Returns (pid, the pipe's read end), or None when no
    child could start."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(call()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def host_and_sub(fn, host, sub, points: int) -> dict:
    """``{"host": fn("host", host), "sub": fn("sub", sub)}``; ``points`` is
    the shorter series' length.

    Where ``fork_pays(points)``, the sub's call runs in a forked child
    while this process makes the host's, and only its result comes back,
    through ``marshal``: ``fn`` returns plain data (None, bools, numbers,
    strings, and lists, tuples and dicts of them).  If anything goes wrong
    on the child's side (the fork, the call, a result ``marshal`` refuses,
    the child ending without a result), the sub's call is made again here
    and the result is the serial one; so a file that call writes must be
    written whole from its start.  The host's error comes first: the
    child is always reaped, and killed first if the host's call raised.
    """
    child = fork_pays(points) and _fork(lambda: fn("sub", sub))
    if not child:
        return {"host": fn("host", host), "sub": fn("sub", sub)}
    pid, pipe = child
    with pipe:
        try:
            results = {"host": fn("host", host)}
            data = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    results["sub"] = marshal.loads(data) if status == 0 and data else fn("sub", sub)
    return results
