"""The one fork path: shares of a job dealt to forked workers, one per usable
CPU, each sending its result back down a pipe as raw bytes.  The Farey sweep
(scanstats) and the point count (eigenform) use it; it needs no numpy."""
import os
import warnings

MAX_WORKERS = 4  # so a large host does not fork dozens of 40 MB processes


def workers(n: int, fork_min: int) -> int:
    """How many processes share a job of size n: one per usable CPU, at most MAX_WORKERS,
    and one below fork_min or where os lacks fork or sched_getaffinity."""
    if n < fork_min or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_WORKERS)


def deal(what: str, w: int, walk, merge):
    """walk(i) for every share i < w, returning walk(0): a forked child i writes the
    buffers walk(i) returns down a pipe (_child), and this process walks share 0,
    then calls merge(i, fh) on each child's pipe in turn, which reads what the child
    wrote and returns False if it ends short.  A child that fails or ends short makes
    this call raise, naming what, and every child is reaped whatever happens.  Worker
    i runs on the i-th CPU this process may use, this thread on the first until its
    share is walked.  Left to the scheduler, a forked worker was seen to share its
    parent's CPU: on scan --M 7000 each of the two shares took 0.18-0.20 s of wall
    time for 0.09-0.10 s of CPU, and 0.07-0.08 s of each with the worker pinned to
    the other CPU.  Pinning took the command from 0.44 to 0.33 s (medians of 12
    alternating pairs, all 12 faster)."""
    cpus = sorted(os.sched_getaffinity(0)) if w > 1 else []
    pids, fds = [], []  # a pid is None once reaped
    try:
        for i in range(1, w):
            fd, out = os.pipe()
            fds.append(fd)
            try:
                with warnings.catch_warnings():
                    # numpy may run OpenBLAS threads here, and 3.12 warns that a fork
                    # beside threads may hang the child, which only walks and exits
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()  # EAGAIN or ENOMEM leaves no child holding the pipe
                if pid == 0:
                    os.close(fd)
                    _pin(cpus[i])
                    _child(lambda: walk(i), out)  # which never returns
            finally:
                os.close(out)
            pids.append(pid)
        if cpus:
            _pin(cpus[0])
        try:
            result = walk(0)
        finally:
            if cpus:
                _pin(*cpus)
        for i in range(1, w):
            with open(fds[i - 1], "rb", closefd=False) as fh:
                whole = merge(i, fh)
            status = os.waitpid(pids[i - 1], 0)[1]
            pids[i - 1] = None
            if status or not whole:
                code = os.waitstatus_to_exitcode(status)
                short = "" if whole else ", its counts cut short"
                raise RuntimeError(f"{what} worker {i} of {w} failed (exit code {code}{short})")
        return result
    finally:
        for pid in pids:
            if pid is not None:  # only when the job failed
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _pin(*cpus: int) -> None:
    """Let this thread run on the CPUs cpus alone, where the host allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU the host lacks: the thread runs where it may
        pass


def _child(walk, out: int) -> None:
    """A forked worker: write each buffer walk() returns to the fd out, and leave through
    os._exit, which runs no atexit handler and flushes no inherited stdio.  A failure
    exits 1, printing the traceback of an exception but not of an interrupt."""
    code = 1
    try:
        with open(out, "wb") as fh:
            fh.writelines(walk())
        code = 0
    except Exception:
        import traceback  # loaded by a failing worker alone

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)
