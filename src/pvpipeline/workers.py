"""Forked workers, the package's one path to run work in more processes:
:func:`forked_map` runs calls of one function in ``os.fork`` children, and
:func:`usable_cpus` counts the CPUs they may run on. The fly runs its frame
ranges through it, and de-duplication its class ranges.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal

# prctl option (<linux/prctl.h>): the signal sent when the parent dies.
_PR_SET_PDEATHSIG = 1


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def forked_map(fn, calls) -> list:
    """``[fn(*args) for args in calls]``, with ``calls[0]`` run here and each
    other call in an ``os.fork`` child that pickles its result or exception
    (as a RuntimeError with its message if it does not survive pickling)
    into a pipe; no calls, no result. A child reads this process's memory
    copy-on-write, so its arguments are not pickled. The results come back
    in call order, and so does the first exception: the one of ``calls[0]``
    if it raises, else the one of the first child in order that raised. No
    child outlives the call, which kills and reaps those left when it fails,
    nor this process, which a signal can end before any ``finally``: each
    child asks for SIGKILL when its parent dies. Fork, as a spawned child
    would take longer to import the package than a 40x40 plant's range
    takes to fly; the only other threads, OpenBLAS's pool, are stopped by
    its own fork handler."""
    if not calls:
        return []
    parent = os.getpid()
    pipes = {}  # child pid -> read end of its result pipe, until reaped
    try:
        for args in calls[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    prctl = ctypes.CDLL(None).prctl
                    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                    prctl.restype = ctypes.c_int
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() != parent:
                        os._exit(1)
                    for fd in (read_fd, *pipes.values()):
                        os.close(fd)
                    try:
                        payload = pickle.dumps((True, fn(*args)))
                    except BaseException as exc:
                        try:
                            payload = pickle.dumps((False, exc))
                            pickle.loads(payload)
                        except Exception:
                            payload = pickle.dumps(
                                (False, RuntimeError(str(exc))))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_fd)
            pipes[pid] = read_fd
        results = [fn(*calls[0])]
        for pid in list(pipes):
            # Read to EOF first: a result can be larger than the pipe buffer.
            with open(pipes[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            if not data:
                raise RuntimeError(f"a worker exited with wait status "
                                   f"{status} and no result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            results.append(result)
    finally:
        for pid, read_fd in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    return results
