"""The socket transport: framed envelopes over asyncio TCP streams.

:class:`TcpTransport` implements the runtime's
:class:`~repro.runtime.transport.Transport` contract with real
sockets: local inboxes come from
:class:`~repro.runtime.transport.MailboxTransport`, and anything
addressed off-process is framed by :mod:`repro.net.codec` and written
to a pooled per-endpoint connection.

Connection handling, in one place:

- **lazy dial** -- a peer connection is opened on the first frame
  addressed to its endpoint, never at startup, so process launch order
  does not matter;
- **reconnect** -- a failed dial or a broken write backs off
  exponentially (``dial_backoff_base`` doubling to ``dial_backoff_cap``)
  and retries with the frame still in hand, so a worker restart costs
  latency, not messages queued on the sender;
- **backpressure** -- each endpoint's send queue is bounded
  (``send_queue_frames``); a sender outrunning a dead peer eventually
  blocks in :meth:`TcpTransport.send` instead of growing memory;
- **graceful close** -- :meth:`TcpTransport.aclose` drains send
  queues (bounded by ``close_grace_seconds``), closes every stream,
  and stops the listener.

``force_wire=True`` disables the local-inbox fast path so even
self-addressed envelopes make a full trip through the socket stack --
the runtime-vs-simulator parity test runs the whole engine through
this mode on localhost.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set

from repro.core.attributes import NodeId
from repro.net.codec import CodecError, FrameDecoder, encode_frame
from repro.net.directory import Endpoint, PeerDirectory
from repro.obs import log, names
from repro.runtime.messages import Envelope
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.transport import MailboxTransport


class _PeerLink:
    """One pooled outbound connection: bounded queue + sender task."""

    def __init__(self, transport: "TcpTransport", endpoint: Endpoint) -> None:
        self.transport = transport
        self.endpoint = endpoint
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue(
            maxsize=transport.send_queue_frames
        )
        self._writer: Optional[asyncio.StreamWriter] = None
        self._sender_task: Optional["asyncio.Task[None]"] = None
        self._closing = False
        # Per-frame series, bound once per endpoint.
        label = str(endpoint)
        self._frames_sent = transport.metrics.bind_counter(
            names.NET_FRAMES_SENT, endpoint=label
        )
        self._bytes_sent = transport.metrics.bind_counter(
            names.NET_BYTES_SENT, endpoint=label
        )

    # ------------------------------------------------------------------
    async def enqueue(self, frame: bytes) -> None:
        """Queue ``frame`` for delivery (blocks when the queue is full)."""
        if self._sender_task is None or self._sender_task.done():
            self._sender_task = asyncio.ensure_future(self._sender())
        await self.queue.put(frame)

    def idle(self) -> bool:
        return self.queue.empty()

    # ------------------------------------------------------------------
    async def _sender(self) -> None:
        """Drain the queue onto the stream, redialing as needed."""
        metrics = self.transport.metrics
        while not self._closing:
            frame = await self.queue.get()
            backoff = self.transport.dial_backoff_base
            while not self._closing:
                try:
                    writer = await self._connect()
                    writer.write(frame)
                    await writer.drain()
                    self._frames_sent.incr()
                    self._bytes_sent.incr(len(frame))
                    break
                except (ConnectionError, OSError):
                    # The peer is down or restarting: drop the dead
                    # stream, back off, and retry the same frame -- the
                    # queue keeps ordering, the bounded size keeps memory.
                    self._drop_writer()
                    metrics.incr(names.NET_RECONNECTS, endpoint=str(self.endpoint))
                    log.emit(
                        names.LOG_NET_RECONNECT,
                        lane=names.LANE_TRANSPORT,
                        severity="warning",
                        endpoint=str(self.endpoint),
                        backoff_seconds=backoff,
                    )
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2.0, self.transport.dial_backoff_cap)

    async def _connect(self) -> asyncio.StreamWriter:
        if self._writer is not None and not self._writer.is_closing():
            return self._writer
        started = time.monotonic()
        reader, writer = await asyncio.open_connection(*self.endpoint.as_pair())
        del reader  # outbound links are write-only; the peer never replies
        self.transport.metrics.observe(
            names.NET_DIAL_LATENCY_S,
            time.monotonic() - started,
            endpoint=str(self.endpoint),
        )
        self._writer = writer  # noqa: REMO421 -- only the single sender task dials
        return writer

    def _drop_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    async def aclose(self, grace_seconds: float) -> None:
        """Bounded-grace drain, then tear the link down."""
        deadline = time.monotonic() + grace_seconds
        while not self.queue.empty() and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        self.close()
        if self._sender_task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.gather(self._sender_task, return_exceptions=True),
                    timeout=grace_seconds,
                )
            except asyncio.TimeoutError:
                pass

    def close(self) -> None:
        self._closing = True
        if self._sender_task is not None and not self._sender_task.done():
            self._sender_task.cancel()
        self._drop_writer()


class TcpTransport(MailboxTransport):
    """Length-prefix-framed envelope delivery over asyncio TCP."""

    transport_kind = "tcp"

    def __init__(
        self,
        directory: PeerDirectory,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        metrics: Optional[RuntimeMetrics] = None,
        force_wire: bool = False,
        codec: Optional[int] = None,
        send_queue_frames: int = 1024,
        dial_backoff_base: float = 0.05,
        dial_backoff_cap: float = 2.0,
        close_grace_seconds: float = 1.0,
    ) -> None:
        super().__init__(metrics=metrics)
        self.directory = directory
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.force_wire = force_wire
        self.codec = codec
        self.send_queue_frames = send_queue_frames
        self.dial_backoff_base = dial_backoff_base
        self.dial_backoff_cap = dial_backoff_cap
        self.close_grace_seconds = close_grace_seconds
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: Dict[Endpoint, _PeerLink] = {}
        self._inbound_writers: Set[asyncio.StreamWriter] = set()
        self._start_lock = asyncio.Lock()
        #: Frames this process put on the wire / routed off the wire.
        #: Their difference is the in-flight count ``idle`` consults in
        #: ``force_wire`` (single-process) mode, where every wire frame
        #: loops back to this very transport.
        self._wire_frames_out = 0
        self._wire_frames_in = 0

    # ------------------------------------------------------------------
    # Listener
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> Endpoint:
        """The bound listen endpoint (resolved once started)."""
        return Endpoint(self.listen_host, self.listen_port)

    async def start(self) -> Endpoint:
        """Start the listener (idempotent); returns the bound endpoint."""
        async with self._start_lock:
            if self._server is None:
                self._server = await asyncio.start_server(
                    self._serve_connection, self.listen_host, self.listen_port
                )
                self.listen_port = self._server.sockets[0].getsockname()[1]
        return self.endpoint

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Inbound half: parse frames off one peer's stream and route."""
        self._inbound_writers.add(writer)
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                self.metrics.incr(names.NET_BYTES_RECEIVED, len(chunk))
                try:
                    frames = decoder.feed(chunk)
                except CodecError:
                    # Framing is lost; nothing on this stream can be
                    # trusted anymore.  Count and drop the connection.
                    self.metrics.incr(names.NET_FRAMES_DROPPED, reason="corrupt")
                    log.emit(
                        names.LOG_NET_FRAME_DROPPED,
                        lane=names.LANE_TRANSPORT,
                        severity="error",
                        reason="corrupt",
                    )
                    return
                for dest, envelope in frames:
                    self._route_inbound(dest, envelope)
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Loop teardown cancels handler tasks still blocked in
            # read(); exiting quietly here (the connection is going
            # away regardless) keeps shutdown free of spurious
            # "exception in callback" noise from the streams layer.
            return
        finally:
            self._inbound_writers.discard(writer)  # noqa: REMO421 -- set add/discard of own entry
            writer.close()

    def _route_inbound(self, dest: NodeId, envelope: Envelope) -> None:
        self._wire_frames_in += 1
        self.metrics.incr(names.NET_FRAMES_RECEIVED)
        if not self.deliver_local(dest, envelope):
            # Arrived at the right process for the directory's idea of
            # ``dest``, but no such inbox lives here (stale shard map,
            # mid-restart window).  At-most-once: count and drop.
            self.metrics.incr(names.NET_FRAMES_DROPPED, reason="unknown_address")
            log.emit(
                names.LOG_NET_FRAME_DROPPED,
                lane=names.LANE_TRANSPORT,
                severity="warning",
                reason="unknown_address",
                dest=dest,
            )

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    async def send(self, to: NodeId, envelope: Envelope) -> bool:
        if not self.force_wire and self.deliver_local(to, envelope):
            self._count_sent()
            return True
        endpoint = self.directory.endpoint_of(to)
        if endpoint is None:
            return False
        await self.start()
        link = self._links.get(endpoint)
        if link is None:
            link = self._links[endpoint] = _PeerLink(self, endpoint)
        frame = encode_frame(to, envelope, self.codec)
        self._wire_frames_out += 1
        await link.enqueue(frame)
        self._count_sent()
        return True

    def idle(self) -> bool:
        if any(not link.idle() for link in self._links.values()):
            return False
        if self.force_wire and self._wire_frames_out != self._wire_frames_in:
            # Single-process wire mode: every frame sent loops back to
            # this transport, so out minus in is the exact in-flight
            # count (queued in the kernel or awaiting the reader task).
            return False
        return super().idle()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        for link in list(self._links.values()):
            await link.aclose(self.close_grace_seconds)
        self._links.clear()  # noqa: REMO421 -- iterates a snapshot; teardown-only path
        server, self._server = self._server, None
        if server is not None:
            server.close()
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=self.close_grace_seconds)
            except asyncio.TimeoutError:
                pass
        for writer in list(self._inbound_writers):
            writer.close()
        self._inbound_writers.clear()

    def close(self) -> None:
        """Sync best-effort teardown (no drain; prefer :meth:`aclose`)."""
        for link in list(self._links.values()):
            link.close()
        self._links.clear()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._inbound_writers):
            writer.close()
        self._inbound_writers.clear()
