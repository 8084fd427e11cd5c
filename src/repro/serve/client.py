"""Client for the experiment service (used by ``submit`` and the tests)."""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.serve.protocol import TERMINAL_EVENTS, LineChannel

__all__ = ["ServeClient"]


class ServeClient:
    """Line-JSON client for one :class:`~repro.serve.ExperimentServer`.

    Connects over the same two transports the server offers: a unix socket
    path or a localhost TCP port.  One client wraps one connection; a
    context manager closes it deterministically::

        with ServeClient(socket_path="/tmp/repro.sock") as client:
            accepted = client.submit(scenario="fleet-smoke", quick=True)
            for event in client.stream():
                ...  # "started", per-cell "cell", terminal "done"/"failed"
    """

    def __init__(self, socket_path: Optional[Union[str, Path]] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 timeout: float = 120.0):
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path / port")
        self.socket_path = None if socket_path is None else str(socket_path)
        self.host = host
        self.port = port
        self.timeout = timeout
        self._channel: Optional[LineChannel] = None

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._channel is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        self._channel = LineChannel(sock)
        return self

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol ----------------------------------------------------------

    def send(self, message: dict[str, Any]) -> None:
        self.connect()
        self._channel.send(message)

    def recv(self) -> dict[str, Any]:
        """One message; raises TimeoutError after the client timeout."""
        self.connect()
        try:
            message = self._channel.recv()
        except socket.timeout:
            raise TimeoutError(
                f"no response from {self._address()} within "
                f"{self.timeout}s") from None
        if message is None:
            raise ConnectionError(f"server at {self._address()} closed the "
                                  f"connection")
        return message

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request and return its first response."""
        self.send(message)
        return self.recv()

    def _address(self) -> str:
        return self.socket_path or f"{self.host}:{self.port}"

    # -- verbs -------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def jobs(self) -> dict[str, Any]:
        return self.request({"op": "jobs"})

    def status(self, job: str) -> dict[str, Any]:
        return self.request({"op": "status", "job": job})

    def shutdown(self) -> dict[str, Any]:
        return self.request({"op": "shutdown"})

    def submit(self, scenario: Optional[str] = None,
               document: Optional[dict[str, Any]] = None,
               quick: bool = False, watch: bool = True) -> dict[str, Any]:
        """Submit a job; returns the ``accepted``/``rejected`` response.

        With ``watch=True`` (default) the server keeps streaming job events
        on this connection afterwards -- consume them with :meth:`stream`.
        """
        message: dict[str, Any] = {"op": "submit", "watch": watch}
        if scenario is not None:
            message["scenario"] = scenario
        if document is not None:
            message["document"] = document
        if quick:
            message["quick"] = True
        return self.request(message)

    def stream(self) -> Iterator[dict[str, Any]]:
        """Yield streamed events until (and including) a terminal one."""
        while True:
            event = self.recv()
            yield event
            if event.get("event") in (*TERMINAL_EVENTS, "error", "rejected"):
                return

    def run(self, scenario: Optional[str] = None,
            document: Optional[dict[str, Any]] = None,
            quick: bool = False) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """Submit, stream to completion, and return ``(terminal, events)``.

        ``terminal`` is the ``done``/``failed`` event, or the ``rejected``
        response itself when admission control turned the job away.
        """
        response = self.submit(scenario=scenario, document=document,
                               quick=quick, watch=True)
        if not response.get("ok"):
            return response, []
        events = list(self.stream())
        return events[-1], events
