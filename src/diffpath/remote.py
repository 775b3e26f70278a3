"""Remote denoiser bridge: newline-delimited JSON over stdio or TCP.

One JSON object per line.  The client opens with a handshake
``{"id": 0, "op": "hello", "d": ..., "m": ...}`` which the server must echo
with its own dimensions (and an optional ``"concurrent"`` flag); afterwards
each prediction is one request/response round trip with strictly increasing
ids:

    -> {"id": 7, "op": "predict_noise", "x": [...], "c": [...],
        "t": 840, "alpha_bar": 0.123}
    <- {"id": 7, "eps": [...]}            on success
    <- {"id": 7, "error": "message"}      on failure

Floats survive the trip exactly because JSON rendering uses shortest
round-trip representations, so a loopback server wrapping the in-process
oracle is observationally identical to calling it directly.

The client reaches either peer through one transport over a connected
socket: a TCP connection, or one end of a socket pair whose other end is a
child process's stdin and stdout (so it is POSIX-only).  A read waits under
the socket's timeout; the client starts no thread.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import threading
from typing import Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser
from .errors import DenoiserError, ParameterError


class MalformedFrameError(DenoiserError):
    """A line on the wire was not a valid protocol object."""


class IdMismatchError(DenoiserError):
    """A response arrived with an id different from the pending request."""


class DimensionMismatchError(DenoiserError):
    """Handshake dimensions or a returned vector length did not match."""


class RemoteTimeoutError(DenoiserError):
    """No response arrived within the configured timeout."""


class TransportClosedError(DenoiserError):
    """The peer closed the stream while a response was pending."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _reject_constant(token)
    return value


#: strict JSON both ways: NaN and Infinity are neither read nor written, and
#: a literal that overflows to infinity (``1e400``) is rejected as well
_FRAME_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                                  parse_float=_finite_float)
_REPLY_ENCODER = json.JSONEncoder(allow_nan=False)


def serve_stream(denoiser: Denoiser, rfile, wfile) -> None:
    """Answer protocol requests on a line-oriented stream until EOF.

    A frame that cannot be answered, including one whose vectors have the
    wrong length or whose answer holds a non-finite number, gets an error
    reply and the next frame is served.
    """
    for line in rfile:
        line = line.strip()
        if not line:
            continue
        try:
            msg = _FRAME_DECODER.decode(line)
            if not isinstance(msg, dict):
                raise ValueError("frame must be an object")
        except (ValueError, RecursionError):  # nesting too deep for the decoder
            _send(wfile, json.dumps({"id": None, "error": "malformed frame"}))
            continue
        msg_id = msg.get("id")
        try:
            op = msg.get("op")
            if op == "hello":
                if int(msg["d"]) != denoiser.d or int(msg["m"]) != denoiser.m:
                    raise ValueError(
                        f"dimension mismatch: server has d={denoiser.d}, m={denoiser.m}")
                reply = {"id": msg_id, "op": "hello", "d": denoiser.d, "m": denoiser.m,
                         "concurrent": bool(denoiser.concurrent_safe)}
            elif op == "predict_noise":
                x = np.asarray(msg["x"], dtype=np.float64)
                c = ConditionEmbedding(np.asarray(msg["c"], dtype=np.float64))
                if x.shape != (denoiser.d,) or c.m != denoiser.m:
                    raise ValueError(
                        f"x must have {denoiser.d} entries and c {denoiser.m}, "
                        f"got shapes {x.shape} and {c.values.shape}")
                eps = denoiser.predict_noise(x, c, float(msg["alpha_bar"]), int(msg["t"]))
                reply = {"id": msg_id, "eps": [float(v) for v in eps]}
            else:
                raise ValueError(f"unknown op {op!r}")
            text = _REPLY_ENCODER.encode(reply)
        except Exception as err:
            text = json.dumps({"id": msg_id, "error": str(err)})
        _send(wfile, text)


def _send(wfile, text: str) -> None:
    wfile.write(text + "\n")
    wfile.flush()


def serve_tcp(denoiser: Denoiser, host: str = "127.0.0.1", port: int = 0,
              ready: threading.Event | None = None,
              bound: list | None = None) -> None:
    """Serve one connection at a time; ``bound`` receives the listening port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        if bound is not None:
            bound.append(server.getsockname()[1])
        if ready is not None:
            ready.set()
        while True:
            conn, _ = server.accept()
            with conn:
                rfile = conn.makefile("r", encoding="utf-8")
                wfile = conn.makefile("w", encoding="utf-8")
                serve_stream(denoiser, rfile, wfile)


class _SocketTransport:
    """Protocol peer over a connected socket, and the child process behind it, if any."""

    def __init__(self, sock: socket.socket, proc: subprocess.Popen | None = None):
        self._sock = sock
        self._proc = proc
        self._rfile = sock.makefile("r", encoding="utf-8")
        self._wfile = sock.makefile("w", encoding="utf-8")

    def send_line(self, line: str) -> None:
        try:
            self._wfile.write(line + "\n")
            self._wfile.flush()
        except OSError as err:
            raise TransportClosedError(f"connection closed: {err}") from err

    def recv_line(self, timeout: float) -> str:
        if self._sock.gettimeout() != timeout:  # settimeout costs two fcntl calls
            self._sock.settimeout(timeout)
        try:
            line = self._rfile.readline()
        except socket.timeout:
            raise RemoteTimeoutError(f"no response within {timeout}s") from None
        except OSError as err:
            raise TransportClosedError(f"connection closed: {err}") from err
        except UnicodeDecodeError as err:
            raise MalformedFrameError(f"reply is not UTF-8: {err}") from err
        if line == "":
            raise TransportClosedError("server closed the connection")
        return line

    def close(self) -> None:
        # the socket stays open while its file objects do
        for stream in (self._rfile, self._wfile, self._sock):
            try:
                stream.close()
            except OSError:
                pass
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()


def _SubprocessTransport(argv: Sequence[str]) -> _SocketTransport:
    """Start ``argv`` with one end of a socket pair as its stdin and stdout."""
    ours, theirs = socket.socketpair()
    with theirs:
        proc = subprocess.Popen(list(argv), stdin=theirs, stdout=theirs,
                                stderr=subprocess.DEVNULL)
    return _SocketTransport(ours, proc)


class RemoteDenoiser(Denoiser):
    """Denoiser implementation backed by a protocol peer.

    Requests are serialized (one in flight per connection); the instance
    declares itself concurrency-safe only if the server's handshake does.
    A timeout closes the transport, since a late reply would answer the next
    request: every later call raises :class:`TransportClosedError`.
    """

    def __init__(self, transport, d: int, m: int, timeout: float = 10.0):
        self._transport = transport
        self._timeout = timeout
        self._timed_out = False
        self._next_id = 0
        self._lock = threading.Lock()
        self.d = d
        self.m = m
        self.concurrent_safe = False
        reply = self._round_trip({"op": "hello", "d": d, "m": m})
        if reply.get("op") != "hello":
            raise MalformedFrameError(f"handshake reply missing op: {reply}")
        if int(reply["d"]) != d or int(reply["m"]) != m:
            raise DimensionMismatchError(
                f"server dimensions d={reply['d']}, m={reply['m']} do not match "
                f"requested d={d}, m={m}")
        self.concurrent_safe = bool(reply.get("concurrent", False))

    @classmethod
    def from_command(cls, argv: Sequence[str], d: int, m: int,
                     timeout: float = 10.0) -> "RemoteDenoiser":
        return cls(_SubprocessTransport(argv), d, m, timeout)

    @classmethod
    def from_address(cls, host: str, port: int, d: int, m: int,
                     timeout: float = 10.0) -> "RemoteDenoiser":
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(_SocketTransport(sock), d, m, timeout)

    def _round_trip(self, payload: dict) -> dict:
        with self._lock:
            if self._timed_out:
                raise TransportClosedError("transport was closed after a timeout")
            msg_id = self._next_id
            self._next_id += 1
            request = {"id": msg_id, **payload}
            self._transport.send_line(json.dumps(request))
            try:
                line = self._transport.recv_line(self._timeout)
            except RemoteTimeoutError:
                self._timed_out = True
                self._transport.close()
                raise
        try:
            reply = _FRAME_DECODER.decode(line)
            if not isinstance(reply, dict):
                raise ValueError("reply must be an object")
        except (ValueError, RecursionError) as err:  # nesting too deep for the decoder
            raise MalformedFrameError(f"unparseable reply {line[:200]!r}: {err}") from err
        if reply.get("id") != msg_id:
            raise IdMismatchError(
                f"expected reply id {msg_id}, got {reply.get('id')!r}")
        return reply

    def predict_noise(self, x: np.ndarray, c: ConditionEmbedding,
                      alpha_bar: float, t: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if c.values.size != self.m:
            raise ParameterError(
                f"condition has dimension {c.values.size}, expected {self.m}")
        reply = self._round_trip({
            "op": "predict_noise",
            "x": [float(v) for v in x],
            "c": [float(v) for v in c.values],
            "t": int(t),
            "alpha_bar": float(alpha_bar),
        })
        if "error" in reply:
            raise DenoiserError(f"server error at training step {t}: {reply['error']}")
        if not isinstance(reply.get("eps"), list):
            raise MalformedFrameError(f"reply carries no eps array: {reply}")
        eps = np.asarray(reply["eps"], dtype=np.float64)
        if eps.ndim != 1 or eps.size != x.size:
            raise DimensionMismatchError(
                f"server returned {eps.size} values at training step {t}, "
                f"expected {x.size}")
        return eps

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "RemoteDenoiser":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
