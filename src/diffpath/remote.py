"""Remote denoiser bridge: newline-delimited JSON over stdio or TCP.

One JSON object per line.  The client opens with a handshake
``{"id": 0, "op": "hello", "d": ..., "m": ..., "batch": true}`` which the
server must echo with its own dimensions (and an optional ``"concurrent"``
flag); afterwards each prediction is one request/response round trip with
strictly increasing ids:

    -> {"id": 7, "op": "predict_noise", "x": [...], "c": [...],
        "t": 840, "alpha_bar": 0.123}
    <- {"id": 7, "eps": [...]}            on success
    <- {"id": 7, "error": "message"}      on failure

The server echoes ``"batch": true`` only to a hello that carries it; a hello
without the flag gets the same bytes as from a server that predates it.
Once both sides have said ``"batch": true``, a batch of n >= 1 rows, all at
one level, travels as one frame:

    -> {"id": 8, "op": "predict_noise_batch", "X": [[...], ...],
        "C": [[...], ...], "t": 840, "alpha_bar": 0.123}
    <- {"id": 8, "eps": [[...], ...]}     row i answers X[i] under C[i]

A client whose peer did not echo the flag sends one ``predict_noise`` frame
per row.  Every vector is a list of JSON numbers (integers or floats, never
booleans or strings) of the expected length, ``t`` is an integer and
``alpha_bar`` a number; a frame that breaks this gets an error reply, and a
reply that breaks it is a :class:`MalformedFrameError` or, for numbers of
the wrong shape, a :class:`DimensionMismatchError`.  A request holding a NaN
or infinite number is a :class:`ParameterError` and sends no frame.

Floats survive the trip exactly because JSON rendering uses shortest
round-trip representations, so a loopback server wrapping the in-process
oracle is observationally identical to calling it directly.

The client reaches either peer through one transport over a connected
socket: a TCP connection, or one end of a socket pair whose other end is a
child process's stdin and stdout (so it is POSIX-only).  A read waits under
the socket's timeout; the client starts no thread.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
from typing import Sequence

import numpy as np

from .denoiser import ConditionEmbedding, Denoiser, _condition_matrix
from .errors import DenoiserError, ParameterError, checked_number


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
_FRAME_ENCODER = json.JSONEncoder(allow_nan=False)


def _numbers(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A decoded vector (``shape`` (d,)) or list of rows (``shape`` (n, d)) as floats.

    Every entry must be a JSON number, never a boolean or a string: anything
    else is a MalformedFrameError, numbers in another shape a
    DimensionMismatchError.  Both name ``what``.
    """
    rows = value if len(shape) == 2 else [value]
    if type(value) is not list or not all(
            type(row) is list and all(type(v) is float or type(v) is int for v in row)
            for row in rows):
        raise MalformedFrameError(f"{what} must be {'rows' if len(shape) == 2 else 'a list'}"
                                  " of JSON numbers")
    if len(value) != shape[0] or any(len(row) != shape[-1] for row in rows):
        raise DimensionMismatchError(f"{what} must have shape {shape}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        raise MalformedFrameError(f"{what} holds a number beyond the float range") from None


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
                dims = (checked_number(msg["d"], "d", integer=True),
                        checked_number(msg["m"], "m", integer=True))
                if dims != (denoiser.d, denoiser.m):
                    raise ValueError(
                        f"dimension mismatch: server has d={denoiser.d}, m={denoiser.m}")
                reply = {"id": msg_id, "op": "hello", "d": denoiser.d, "m": denoiser.m,
                         "concurrent": bool(denoiser.concurrent_safe)}
                if msg.get("batch") is True:
                    reply["batch"] = True
            elif op in ("predict_noise", "predict_noise_batch"):
                t = checked_number(msg["t"], "t", integer=True)
                alpha_bar = checked_number(msg["alpha_bar"], "alpha_bar")
                if op == "predict_noise":
                    x = _numbers(msg["x"], (denoiser.d,), "x")
                    c = ConditionEmbedding(_numbers(msg["c"], (denoiser.m,), "c"))
                    eps = denoiser.predict_noise(x, c, alpha_bar, t)
                    reply = {"id": msg_id, "eps": [float(v) for v in eps]}
                else:
                    n = len(msg["X"]) if type(msg["X"]) is list else 0
                    if not n:
                        raise ValueError("X must be a non-empty list of rows")
                    X = _numbers(msg["X"], (n, denoiser.d), "X")
                    C = _numbers(msg["C"], (n, denoiser.m), "C")
                    eps = denoiser.predict_noise_batch(X, C, alpha_bar, t)
                    reply = {"id": msg_id, "eps": np.asarray(eps, dtype=np.float64).tolist()}
            else:
                raise ValueError(f"unknown op {op!r}")
            text = _FRAME_ENCODER.encode(reply)
        except Exception as err:
            text = json.dumps({"id": msg_id, "error": str(err)})
        _send(wfile, text)


def _send(wfile, text: str) -> None:
    wfile.write(text + "\n")
    wfile.flush()


def serve_tcp(denoiser: Denoiser, server: socket.socket) -> None:
    """Serve one connection at a time on the listening socket ``server``, which it closes."""
    with server:
        while True:
            conn, _ = server.accept()
            # undecodable bytes reach the frame decoder, as they do from sys.stdin
            rfile = conn.makefile("r", encoding="utf-8", errors="surrogateescape")
            wfile = conn.makefile("w", encoding="utf-8")
            # a client's reset, even with replies unread, ends only its connection
            # (closing ``wfile`` flushes it); the socket closes once both files have
            with contextlib.suppress(ConnectionError), conn, rfile, wfile:
                serve_stream(denoiser, rfile, wfile)


class _SocketTransport:
    """Protocol peer over a connected socket, and any child ``subprocess.Popen`` behind it."""

    def __init__(self, sock: socket.socket, proc=None):
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
        except TimeoutError:
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
            import subprocess  # already loaded by _SubprocessTransport
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()


def _SubprocessTransport(argv: Sequence[str]) -> _SocketTransport:
    """Start ``argv`` with one end of a socket pair as its stdin and stdout."""
    import socket
    import subprocess  # deferred: only a client with a child process needs it
    ours, theirs = socket.socketpair()
    with theirs:
        proc = subprocess.Popen(list(argv), stdin=theirs, stdout=theirs,
                                stderr=subprocess.DEVNULL)
    return _SocketTransport(ours, proc)


def _finite_latents(x, what: str) -> np.ndarray:
    """``x`` as floats, refused before any frame if strict JSON cannot carry it."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ParameterError(f"{what} must be finite: it holds NaN or inf")
    return x


class RemoteDenoiser(Denoiser):
    """Denoiser implementation backed by a protocol peer.

    Requests are serialized (one in flight per connection); the instance
    declares itself concurrency-safe only if the server's handshake does.
    A timeout closes the transport, since a late reply would answer the next
    request: every later call raises :class:`TransportClosedError`.  A failed
    handshake closes it too, stopping a child process.
    """

    def __init__(self, transport, d: int, m: int, timeout: float = 10.0):
        self._transport = transport
        self._timeout = timeout
        self._timed_out = False
        self._next_id = 0
        self._lock = threading.Lock()
        self.d = d
        self.m = m
        try:
            reply = self._round_trip({"op": "hello", "d": d, "m": m, "batch": True})
            dims = reply.get("d"), reply.get("m")
            if reply.get("op") != "hello" or any(type(v) is not int for v in dims):
                raise MalformedFrameError(f"handshake needs op hello, integer d and m: {reply}")
            if dims != (d, m):
                raise DimensionMismatchError(
                    f"server dimensions d={dims[0]}, m={dims[1]} do not match "
                    f"requested d={d}, m={m}")
        except BaseException:
            transport.close()  # no client is returned that could close it later
            raise
        self.concurrent_safe = bool(reply.get("concurrent", False))
        #: whether the peer answers a batch in one ``predict_noise_batch`` frame
        self.batched = reply.get("batch") is True

    @classmethod
    def from_command(cls, argv: Sequence[str], d: int, m: int,
                     timeout: float = 10.0) -> "RemoteDenoiser":
        return cls(_SubprocessTransport(argv), d, m, timeout)

    @classmethod
    def from_address(cls, host: str, port: int, d: int, m: int,
                     timeout: float = 10.0) -> "RemoteDenoiser":
        import socket
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except TimeoutError:
            raise RemoteTimeoutError(f"no connection to {host}:{port} within {timeout}s") from None
        except OSError as err:
            raise TransportClosedError(f"cannot connect to {host}:{port}: {err}") from err
        return cls(_SocketTransport(sock), d, m, timeout)

    def _round_trip(self, payload: dict) -> dict:
        with self._lock:
            if self._timed_out:
                raise TransportClosedError("transport was closed after a timeout")
            msg_id = self._next_id
            try:  # strict JSON: a NaN or infinite number sends no frame
                request = _FRAME_ENCODER.encode({"id": msg_id, **payload})
            except ValueError as err:
                raise ParameterError(f"{payload['op']} request: {err}") from None
            self._next_id += 1
            self._transport.send_line(request)
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
        x = _finite_latents(x, "latent x")
        if c.m != self.m:
            raise ParameterError(f"condition has dimension {c.m}, expected {self.m}")
        reply = self._round_trip({
            "op": "predict_noise",
            "x": [float(v) for v in x],
            "c": c.values.tolist(),
            "t": int(t),
            "alpha_bar": float(alpha_bar),
        })
        return self._noise(reply, (x.size,), t)

    def predict_noise_batch(self, X: np.ndarray, C: np.ndarray,
                            alpha_bar: float, t: int) -> np.ndarray:
        """One ``predict_noise_batch`` frame if the handshake agreed on it, else one per row."""
        X = _finite_latents(X, "latents X")
        if not (self.batched and len(X)):
            return super().predict_noise_batch(X, C, alpha_bar, t)
        if X.ndim != 2:
            raise ParameterError(f"latents must be rows (N, d), got shape {X.shape}")
        C = _condition_matrix(C, len(X), self.m)
        reply = self._round_trip({
            "op": "predict_noise_batch",
            "X": X.tolist(),
            "C": C.tolist(),
            "t": int(t),
            "alpha_bar": float(alpha_bar),
        })
        return self._noise(reply, X.shape, t)

    @staticmethod
    def _noise(reply: dict, shape: tuple[int, ...], t: int) -> np.ndarray:
        """The reply's ``eps`` of ``shape``, checked where it enters and naming the step."""
        if "error" in reply:
            raise DenoiserError(f"server error at training step {t}: {reply['error']}")
        return _numbers(reply.get("eps"), shape, f"eps returned at training step {t}")

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "RemoteDenoiser":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
