"""The persistent experiment server.

Threading model
---------------
One accept thread, one thread per client connection, and ``job_workers``
job-worker threads draining a bounded deque.  Every loop polls
``self._stop`` on a short socket/condition timeout, so :meth:`stop` tears
the whole process down deterministically (no thread ever blocks without a
timeout) -- which is what lets the test fixtures run under a per-test
deadline.

Execution model
---------------
A job is one scenario submission expanded to cells at admission time.
Workers run cells one at a time through a per-job
:class:`~repro.experiments.sweep.SweepRunner` configured exactly like the
batch CLI (same cache directory resolution, same cell execution path), so
a served job and its ``run``/``fleet`` twin read and write the *same*
cache entries and report bit-identical metrics.  Each finished cell is
published as an event; events are buffered on the job, so late watchers
replay the full history before streaming live.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import socket
import stat
import threading
from pathlib import Path
from typing import Any, Optional, Union

from repro.serve.protocol import TERMINAL_EVENTS, LineChannel, ProtocolError

__all__ = ["ExperimentServer", "ServeJob"]

#: Poll interval for every stoppable wait (accept, recv, condition).
_POLL_S = 0.2


def _free_socket_path(path: Path) -> None:
    """Make ``path`` free for a new server's unix socket: remove a stale
    socket, one that no server answers on.  Raise an :class:`OSError` when
    a server answers on it, or when it is not a socket, and leave it."""
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise FileExistsError(errno.EEXIST, "exists and is not a socket",
                              str(path))
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        try:
            probe.connect(str(path))
        except (ConnectionRefusedError, FileNotFoundError):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
            return
    raise OSError(errno.EADDRINUSE, "a server is already listening on it",
                  str(path))


class ServeJob:
    """One accepted submission: cells, the scenario's ``run:`` block
    (``ScenarioSpec.run``, the fields it sets), state, and the buffered
    event log."""

    def __init__(self, job_id: str, scenario: str, cells: list, run):
        self.id = job_id
        self.scenario = scenario
        self.cells = cells
        self.run = run
        self.state = "pending"
        self.error: Optional[str] = None
        self.events: list[dict[str, Any]] = []
        self.cond = threading.Condition()

    def publish(self, event: dict[str, Any]) -> None:
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def snapshot(self) -> dict[str, Any]:
        with self.cond:
            done_cells = sum(1 for event in self.events
                             if event["event"] == "cell")
            return {"job": self.id, "scenario": self.scenario,
                    "state": self.state, "cells": len(self.cells),
                    "cells_done": done_cells, "error": self.error}


class ExperimentServer:
    """Accepts submissions over a unix socket or localhost TCP.

    Exactly one of ``socket_path`` / ``port`` selects the transport
    (``port=0`` binds an ephemeral port, read back from :attr:`port` after
    :meth:`start`).  ``max_pending`` bounds the *queued* (not yet running)
    jobs; submissions beyond it are rejected with a reason.  ``job_workers``
    is the number of concurrently running jobs.  Runner knobs
    (``cache_dir``, ``fleet_config``) mirror the batch CLI's flags.  Each
    job gets its own runner, whose fleet config is ``fleet_config`` with
    every field the submitted scenario's ``run:`` block sets applied on
    top (a field set to its default too), so the block wins field by
    field.  Cells run one at a time in the
    job thread, so serve never starts the sweep pool.
    ``cache_dir=None`` resolves ``$REPRO_SWEEP_CACHE`` exactly like
    ``run``/``fleet`` do.
    """

    def __init__(self, socket_path: Optional[Union[str, Path]] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 max_pending: int = 8, job_workers: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 no_cache: bool = False, fleet_config=None):
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path / port")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1: no thread would "
                             "run an accepted job")
        self.socket_path = None if socket_path is None else Path(socket_path)
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.job_workers = job_workers
        self._runner_kwargs = {
            "cache_dir": None if no_cache else cache_dir,
            "no_cache": no_cache,
            "fleet_config": fleet_config,
        }
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._conn_threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        self._queue: collections.deque[str] = collections.deque()
        self._jobs: dict[str, ServeJob] = {}
        self._job_counter = 0
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ExperimentServer":
        if self.socket_path is not None:
            _free_socket_path(self.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self.socket_path))
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(16)
        listener.settimeout(_POLL_S)
        self._listener = listener
        accept = threading.Thread(target=self._accept_loop,
                                  name="serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        for index in range(self.job_workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{index}", daemon=True)
            worker.start()
            self._threads.append(worker)
        return self

    def stop(self) -> None:
        """Idempotent, deterministic teardown (safe from any thread)."""
        self._stop.set()
        with self._queue_cond:
            self._queue_cond.notify_all()
        for job in list(self._jobs.values()):
            with job.cond:
                job.cond.notify_all()
        current = threading.current_thread()
        for thread in [*self._threads, *self._conn_threads]:
            if thread is not current:
                thread.join(timeout=10.0)
        if self._listener is None:
            return  # never bound, or already stopped: the path is not ours
        self._listener.close()
        self._listener = None
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                self.socket_path.unlink()

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def wait(self) -> None:
        """Block until the server stops (``serve`` CLI foreground mode)."""
        while not self._stop.wait(timeout=_POLL_S):
            pass

    # -- internals: sequencing --------------------------------------------

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _runner(self, job: ServeJob):
        from repro.cluster import FleetRunConfig
        from repro.experiments.sweep import SweepRunner, default_cache_dir

        kwargs = dict(self._runner_kwargs)
        no_cache = kwargs.pop("no_cache")
        if kwargs["cache_dir"] is None and not no_cache:
            kwargs["cache_dir"] = default_cache_dir()
        config = kwargs["fleet_config"] or FleetRunConfig()
        kwargs["fleet_config"] = config.merged(**dict(job.run))
        return SweepRunner(**kwargs)

    # -- internals: network ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), name="serve-conn",
                                      daemon=True)
            thread.start()
            self._conn_threads.append(thread)
            self._conn_threads = [entry for entry in self._conn_threads
                                  if entry.is_alive()]

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = LineChannel(conn)
        channel.settimeout(_POLL_S)
        try:
            while not self._stop.is_set():
                try:
                    message = channel.recv()
                except socket.timeout:
                    continue
                except ProtocolError as error:
                    channel.send({"ok": False, "event": "error",
                                  "reason": str(error)})
                    return
                if message is None:
                    return
                if not self._dispatch(channel, message):
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            channel.close()

    def _dispatch(self, channel: LineChannel, message: dict[str, Any]) -> bool:
        """Handle one request; False ends the connection."""
        op = message.get("op")
        if op == "ping":
            with self._lock:
                pending = len(self._queue)
            channel.send({"ok": True, "event": "pong",
                          "jobs": len(self._jobs), "pending": pending,
                          "max_pending": self.max_pending})
            return True
        if op == "submit":
            return self._handle_submit(channel, message)
        if op == "jobs":
            channel.send({"ok": True, "event": "jobs",
                          "jobs": [self._jobs[job_id].snapshot()
                                   for job_id in sorted(self._jobs)]})
            return True
        if op == "status":
            job = self._jobs.get(message.get("job"))
            if job is None:
                channel.send({"ok": False, "event": "error",
                              "reason": f"unknown job {message.get('job')!r}"})
                return True
            channel.send({"ok": True, **job.snapshot(), "event": "status"})
            return True
        if op == "watch":
            job = self._jobs.get(message.get("job"))
            if job is None:
                channel.send({"ok": False, "event": "error",
                              "reason": f"unknown job {message.get('job')!r}"})
                return True
            return self._stream(channel, job)
        if op == "shutdown":
            channel.send({"ok": True, "event": "stopping"})
            threading.Thread(target=self.stop, name="serve-stop",
                             daemon=True).start()
            return False
        channel.send({"ok": False, "event": "error",
                      "reason": f"unknown op {op!r} (expected: ping, submit, "
                                f"jobs, status, watch, shutdown)"})
        return True

    # -- internals: admission ----------------------------------------------

    def _build_spec(self, message: dict[str, Any]):
        """Resolve a submission to a ScenarioSpec, or raise ValueError."""
        from repro.config import ConfigError, scenario_for_document
        from repro.experiments.scenarios import get_scenario

        scenario_name = message.get("scenario")
        document = message.get("document")
        if (scenario_name is None) == (document is None):
            raise ValueError(
                "provide exactly one of 'scenario' (registered name) or "
                "'document' (inline scenario/fleet document)")
        if scenario_name is not None:
            try:
                return get_scenario(scenario_name)
            except KeyError as error:
                raise ValueError(error.args[0]) from None
        try:
            return scenario_for_document(document, path="document")
        except ConfigError as error:
            raise ValueError(str(error)) from None

    def _handle_submit(self, channel: LineChannel,
                       message: dict[str, Any]) -> bool:
        try:
            spec = self._build_spec(message)
            cells = spec.cells()
        except ValueError as error:
            channel.send({"ok": False, "event": "rejected",
                          "reason": str(error)})
            return True
        if message.get("quick"):
            from repro.experiments.sweep import quick_cells

            cells = quick_cells(cells)
        if not cells:
            channel.send({"ok": False, "event": "rejected",
                          "reason": f"scenario {spec.name!r} has no cells"})
            return True
        with self._queue_cond:
            if self._stop.is_set():
                channel.send({"ok": False, "event": "rejected",
                              "reason": "server is shutting down"})
                return True
            pending = len(self._queue)
            if pending >= self.max_pending:
                channel.send({
                    "ok": False, "event": "rejected",
                    "reason": f"queue full: {pending} pending jobs >= "
                              f"--max-pending {self.max_pending}; retry later"})
                return True
            self._job_counter += 1
            job = ServeJob(f"job-{self._job_counter}", spec.name, cells,
                           spec.run)
            self._jobs[job.id] = job
            self._queue.append(job.id)
            self._queue_cond.notify()
        channel.send({"ok": True, "event": "accepted", "job": job.id,
                      "scenario": spec.name, "cells": len(cells),
                      "position": pending})
        if message.get("watch", True):
            return self._stream(channel, job)
        return True

    # -- internals: streaming ----------------------------------------------

    def _stream(self, channel: LineChannel, job: ServeJob) -> bool:
        """Replay buffered events, then follow live until terminal."""
        index = 0
        while True:
            with job.cond:
                while len(job.events) <= index and not self._stop.is_set():
                    job.cond.wait(timeout=_POLL_S)
                fresh = job.events[index:]
                index = len(job.events)
            for event in fresh:
                channel.send(event)
                if event["event"] in TERMINAL_EVENTS:
                    return True
            if self._stop.is_set():
                channel.send({"ok": False, "event": "error", "job": job.id,
                              "reason": "server stopped"})
                return False

    # -- internals: execution ----------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._stop.is_set():
                    self._queue_cond.wait(timeout=_POLL_S)
                if self._stop.is_set():
                    return
                job = self._jobs[self._queue.popleft()]
            self._run_job(job)

    def _run_job(self, job: ServeJob) -> None:
        runner = self._runner(job)
        job.state = "running"
        job.publish({"event": "started", "job": job.id,
                     "seq": self._next_seq(), "scenario": job.scenario,
                     "cells": len(job.cells)})
        results: list[dict[str, Any]] = []
        try:
            for cell_index, cell in enumerate(job.cells):
                if self._stop.is_set():
                    raise RuntimeError("server stopped")
                outcome = runner.run_cells(job.scenario, [cell]).outcomes[0]
                entry = {"labels": dict(cell.labels),
                         "cached": outcome.cached,
                         "cache_key": cell.cache_key(),
                         "metrics": outcome.metrics}
                results.append(entry)
                job.publish({"event": "cell", "job": job.id,
                             "seq": self._next_seq(), "index": cell_index,
                             "total": len(job.cells), **entry})
            job.state = "done"
            job.publish({"event": "done", "job": job.id,
                         "seq": self._next_seq(), "scenario": job.scenario,
                         "results": results})
        except Exception as error:  # worker must survive any job failure
            job.state = "failed"
            job.error = str(error)
            job.publish({"event": "failed", "job": job.id,
                         "seq": self._next_seq(),
                         "reason": f"{type(error).__name__}: {error}"})
