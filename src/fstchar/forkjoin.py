"""Fork-join over one list of calls, the parallel path of `verify --jobs`.

`fork_join(calls, workers)` forks `workers - 1` children.  Child w computes
`calls[w::workers]` and sends its results back as one pickle through a
pipe, while the parent computes `calls[0::workers]` itself; the parent
then puts every result back at its index.  Each process keeps its own
memoized tables.  The CLI imports this module only for a run that forks,
so no other run compiles it or loads `pickle`.
"""

import os
import pickle


class WorkerTraceback(Exception):
    """The traceback, as text, of an error raised in a forked worker."""


def _run_share(calls, write_fd, inherited_fds):
    """A forked worker's whole life: compute its calls, send one pickle, exit.

    The pickle holds the list of results, or `(exception, traceback text)`.
    The worker never returns into the caller's code, whatever happens.
    """
    try:
        # the read ends: its own and earlier workers'.  A worker that held
        # another's read end open would keep that one's write from failing
        # once the parent closes its end, and the parent's waitpid would hang
        for fd in inherited_fds:
            os.close(fd)
        try:
            payload = pickle.dumps([fn(*args) for fn, args in calls])
        except Exception as exc:
            import traceback

            payload = pickle.dumps((exc, traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def fork_join(calls, workers):
    """The results of a list of `(function, args)` calls over `workers` processes.

    Results are in list order.  An error in any share is raised here, with
    the worker's own traceback chained to it.  Every child is reaped
    before this returns or raises, so none outlives the call and its CPU
    time counts as the caller's.  The caller must be single-threaded, as
    any process that forks.
    """
    pipes = []  # (pid, read end) of each child
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(calls[w::workers], write_fd,
                           [read_fd, *(pipe.fileno() for _, pipe in pipes)])
            os.close(write_fd)
            pipes.append((pid, open(read_fd, "rb")))
        results = [None] * len(calls)
        results[0::workers] = [fn(*args) for fn, args in calls[0::workers]]
        for w, (pid, pipe) in enumerate(pipes, 1):
            try:
                share = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"worker process {pid} ended without a result") from None
            if isinstance(share, tuple):
                exc, text = share
                raise exc from WorkerTraceback(text)
            results[w::workers] = share
        return results
    finally:
        for pid, pipe in pipes:
            pipe.close()
            os.waitpid(pid, 0)
