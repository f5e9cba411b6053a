"""Replication: shards stream their committed state to their successor.

A shard failover that lands on a successor without the owner's state
would lose the owner's ECO epochs.  Whenever a resident's epoch changes
(its full solve, a rewind to the solved state, every applied ECO delta)
the owning shard captures a :class:`ReplicaState` and pushes it to the
ring successor of the problem signature over the dist
protocol's authenticated length-prefixed framing
(:mod:`repro.dist.protocol`, ``multiprocessing.connection`` transport,
frame types ``replica``/``replica_ack``).  A replica does not spare the
successor any work: it still prepares the design and runs the full
solve on its first request for the signature.

One replica state carries:

- the **post-prepare digest** (the assignment digest of the prepared
  design): the successor re-prepares the benchmark deterministically and
  *verifies* its local digest against the shipped one — a cross-node
  determinism check that refuses to seed from divergent state;
- the **ECO history** (edit sets applied since the solved state) and
  the resulting epoch: a failed-over ``/v1/eco`` client can keep
  chaining epochs, because the successor replays the history bit-exactly
  before applying the client's next delta.

Push is synchronous on the solve path (the states are small — one
digest plus the edit sets) and failure-tolerant: a dead or slow
successor costs one logged warning, never the request.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Listener
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.protocol import (
    ProtocolError,
    pack_payload,
    recv_message,
    send_message,
    unpack_payload,
)
from repro.fleet.ring import HashRing
from repro.obs import metrics
from repro.utils import get_logger

log = get_logger(__name__)

Address = Tuple[str, int]


@dataclass
class ReplicaState:
    """Everything a successor needs to resume a signature's epochs."""

    signature_key: str
    epoch: int
    # Assignment digest of the prepared design, before any solve.
    baseline: str
    # Edit sets (JSON form) applied since the solved state, in order.
    history: List[List[Dict[str, Any]]] = field(default_factory=list)


class ReplicaStore:
    """Thread-safe replica states held by a shard, keyed by signature.

    Written by the :class:`ReplicaReceiver` thread, read by the engine
    thread when :class:`~repro.service.resident.EngineHost` builds a
    resident for a signature this shard does not own.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: Dict[str, ReplicaState] = {}

    def put(self, state: ReplicaState) -> None:
        with self._lock:
            self._states[state.signature_key] = state

    def get(self, key: str) -> Optional[ReplicaState]:
        with self._lock:
            return self._states.get(key)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._states)

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)


class ReplicaReceiver(threading.Thread):
    """Background listener accepting replica pushes from fleet peers.

    Authenticated exactly like the dist fabric's remote workers: the
    ``multiprocessing.connection`` HMAC challenge with a shared authkey.
    One connection is served at a time — pushes are short, and a peer
    that stalls mid-frame only stalls replication, never serving.
    :meth:`close` wakes the thread wherever it waits, so a shard's drain
    does not wait on an idle listener or a silent peer.
    """

    def __init__(
        self, listen: Address, authkey: bytes, store: Optional[ReplicaStore] = None
    ) -> None:
        super().__init__(name="replica-receiver", daemon=True)
        self.store = store if store is not None else ReplicaStore()
        self._listener = Listener(listen, authkey=authkey)
        self._lock = threading.Lock()
        self._closing = False
        self._conn = None  # the connection being served, if any

    @property
    def address(self) -> Address:
        """The bound address (resolves a port-0 listen)."""
        return self._listener.address  # type: ignore[return-value]

    def run(self) -> None:
        while not self._closing:
            try:
                conn = self._listener.accept()
            except Exception:
                # Auth failure from a stranger, or the wake-up connection
                # of close().
                continue
            with self._lock:
                if self._closing:
                    conn.close()
                    break
                self._conn = conn
            try:
                self._serve_connection(conn)
            except (EOFError, OSError, ProtocolError) as exc:
                if not self._closing:
                    log.warning("replica connection dropped: %s", exc)
            finally:
                # Closed under the lock, so close() never shuts down a
                # descriptor number that was already reused.
                with self._lock:
                    self._conn = None
                    conn.close()

    def _serve_connection(self, conn) -> None:
        while True:
            try:
                message = recv_message(conn, timeout=30.0)
            except EOFError:
                return
            if message is None:  # idle peer; let it re-connect
                return
            if message.get("type") != "replica":
                raise ProtocolError(
                    f"unexpected frame type {message.get('type')!r}"
                )
            state = unpack_payload(message["payload"])
            if not isinstance(state, ReplicaState):
                raise ProtocolError("replica payload is not a ReplicaState")
            self.store.put(state)
            metrics.inc("fleet.replica_received")
            log.info(
                "replica received: %s (epoch %d)",
                state.signature_key, state.epoch,
            )
            send_message(conn, {
                "type": "replica_ack",
                "key": state.signature_key,
                "epoch": state.epoch,
                "ok": True,
            })

    def close(self) -> None:
        """Stop accepting, end the served connection, and join the thread.

        Closing a ``Listener`` wakes neither a thread blocked in
        ``accept()`` nor one waiting on a connection, so :meth:`close`
        shuts the served connection's socket down and connects once to
        the listener, which fails its handshake and frees ``accept()``.
        """
        with self._lock:
            self._closing = True
            if self._conn is not None:
                with socket.socket(fileno=os.dup(self._conn.fileno())) as sock:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:  # the peer already hung up
                        pass
        if self.is_alive():
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self.is_alive():
            self.join(timeout=5.0)


def push_state(
    address: Address,
    authkey: bytes,
    state: ReplicaState,
    timeout: float = 10.0,
) -> bool:
    """Ship one replica state to a peer's receiver; True on ack."""
    conn = Client(address, authkey=authkey)
    try:
        send_message(conn, {
            "type": "replica",
            "key": state.signature_key,
            "epoch": state.epoch,
            "payload": pack_payload(state),
        })
        reply = recv_message(conn, timeout=timeout)
        return bool(
            reply is not None
            and reply.get("type") == "replica_ack"
            and reply.get("ok")
        )
    finally:
        conn.close()


def capture_state(resident) -> ReplicaState:
    """Snapshot a :class:`~repro.service.resident.ResidentEngine`.

    Called on the engine thread right after a solve or an applied ECO
    delta, so the resident is quiescent and consistent.
    """
    return ReplicaState(
        signature_key=resident.key,
        epoch=resident.state_epoch,
        baseline=resident._baseline,
        history=[list(h) for h in getattr(resident, "_history", ())],
    )


class Replicator:
    """Per-shard push side: routes replica states to the ring successor."""

    def __init__(
        self,
        shard_id: str,
        ring: HashRing,
        peers: Dict[str, Address],
        authkey: bytes,
        timeout: float = 10.0,
    ) -> None:
        self.shard_id = shard_id
        self.ring = ring
        self.peers = dict(peers)
        self.authkey = authkey
        self.timeout = timeout

    def push(self, resident) -> bool:
        """Capture and ship one resident's state; never raises."""
        target = self.ring.replica_target(resident.key, self.shard_id)
        if target is None:  # single-shard ring: nowhere to replicate
            return False
        address = self.peers.get(target)
        if address is None:
            log.warning("no replica address for fleet peer %r", target)
            return False
        try:
            state = capture_state(resident)
            ok = push_state(address, self.authkey, state, self.timeout)
        except (OSError, EOFError, ProtocolError, ValueError) as exc:
            metrics.inc("fleet.replica_push_failures")
            log.warning(
                "replica push %s -> %s failed: %s",
                resident.key, target, exc,
            )
            return False
        if ok:
            metrics.inc("fleet.replica_pushes")
        else:
            metrics.inc("fleet.replica_push_failures")
        return ok


@dataclass
class ShardFleet:
    """A shard's view of the fleet, handed to its engine host.

    ``ring`` decides ownership (a build for a signature this shard does
    not own is failed-over traffic), ``store`` holds replicas received
    from peers, ``replicator`` pushes this shard's state outward.
    """

    shard_id: str
    ring: HashRing
    store: ReplicaStore
    replicator: Optional[Replicator] = None
