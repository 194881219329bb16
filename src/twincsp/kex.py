"""Non-interactive and interactive key exchange over the twin construction.

Each party holds a two-element ``KeyPair`` (two secret words from its own
subgroup, then their public conjugates), and both derive

    k = H(ccs(X1,Y1), ccs(X1,Y2), ccs(X2,Y1), ccs(X2,Y2))

where the X side always denotes the left-subgroup party and the Y side
the right-subgroup party; each of the four values is computable by either
party because opposite subgroups commute.  The peer's key is a
``PublicKey`` of its side.  The non-interactive variant
assumes the publics arrived out of band; the interactive variant ships
them over a framed byte stream and finishes with a key-confirmation round
so that tampering has a testable failure mode (confirmation can be
disabled for derivation-only runs).

Wire format: 4-byte big-endian frame length, 1-byte message type
(0x01 INIT, 0x02 RESP, 0x03 CONFIRM), payload.  Frames are checked where
they are read: the type must be the one expected next, INIT/RESP payloads
are two codec blobs read as key files are (one canonical form each in the
exchange's B_n; a ``CodecError`` becomes a ``ProtocolError``), and CONFIRM
carries the 32 bytes SHA256(key || "confirm" || role byte).  Any reliable
ordered byte stream works as a transport.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
import struct
from dataclasses import dataclass
from enum import Enum

from .braid import CanonicalForm, GroupParams, nf_conjugate
from .codec import (
    CodecError,
    Reader,
    SymKey,
    blob,
    hash_elements,
    read_canonical,
    serialize_canonical,
)
from .elgamal import KeyPair, PublicKey, keygen
from .sampling import SeededRng, SubgroupSide

MSG_INIT = 0x01
MSG_RESP = 0x02
MSG_CONFIRM = 0x03

ROLE_BYTE = {"initiator": b"\x01", "responder": b"\x02"}

MAX_FRAME = 1 << 20


class ProtocolError(Exception):
    """Malformed frame, unexpected message type, or truncated stream."""


class KeyConfirmError(Exception):
    """The peer's confirmation tag did not verify."""


class Role(Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


def nike_keygen(params: GroupParams, side: SubgroupSide, rng: SeededRng) -> KeyPair:
    return keygen(params, side, 2, rng)


def _four_shared(me: KeyPair, peer: PublicKey) -> list[CanonicalForm]:
    """The shared conjugates in the fixed order ccs(X_i, Y_j), i outer."""
    if peer.side is me.side:
        raise ValueError("parties must use opposite subgroups")
    left_k, right_k = (me.k, peer.k) if me.side is SubgroupSide.LEFT else (peer.k, me.k)
    out = []
    for i in range(left_k):
        for j in range(right_k):
            if me.side is SubgroupSide.LEFT:
                # I hold x_i; ccs(X_i, Y_j) = x_i Y_j x_i^{-1}
                out.append(nf_conjugate(peer.elements[j], me.secrets[i]))
            else:
                # I hold y_j; ccs(X_i, Y_j) = y_j X_i y_j^{-1}
                out.append(nf_conjugate(peer.elements[i], me.secrets[j]))
    return out


def nike_shared_key(me: KeyPair, peer: PublicKey, label: str = "nike") -> SymKey:
    """Shared key of the non-interactive protocol; both sides agree."""
    return hash_elements(label, _four_shared(me, peer))


# ---------------------------------------------------------------------------
# Framing and transport
# ---------------------------------------------------------------------------

class StreamChannel:
    """Reliable ordered byte stream over a connected socket.  Transport
    failures (timeouts, resets, broken pipes) surface as ProtocolError."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        if timeout is not None:
            sock.settimeout(timeout)

    def send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ProtocolError(f"transport failed while sending: {exc}") from exc

    def recv_exact(self, k: int) -> bytes:
        chunks = []
        got = 0
        while got < k:
            try:
                chunk = self._sock.recv(k - got)
            except (TimeoutError, socket.timeout) as exc:
                raise ProtocolError("timed out waiting for peer bytes") from exc
            except OSError as exc:
                raise ProtocolError(f"transport failed while receiving: {exc}") from exc
            if not chunk:
                raise ProtocolError(f"stream truncated: wanted {k} bytes, got {got}")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._sock.close()


def loopback_channels(timeout: float | None = 5.0) -> tuple[StreamChannel, StreamChannel]:
    a, b = socket.socketpair()
    return StreamChannel(a, timeout), StreamChannel(b, timeout)


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) + 1 > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload) + 1} bytes")
    return struct.pack(">I", len(payload) + 1) + bytes([msg_type]) + payload


def confirm_tag(key: SymKey, role: Role) -> bytes:
    return hashlib.sha256(key.bytes + b"confirm" + ROLE_BYTE[role.value]).digest()


@dataclass
class KexResult:
    role: Role
    key: SymKey
    sent: bytes
    received: bytes


class _Session:
    """One side of a protocol run; records the raw bytes it sends/receives."""

    def __init__(self, channel):
        self.channel = channel
        self.sent = b""
        self.received = b""

    def send_frame(self, msg_type: int, payload: bytes) -> None:
        frame = encode_frame(msg_type, payload)
        self.sent += frame
        self.channel.send_bytes(frame)

    def recv_frame(self, expect_type: int) -> bytes:
        head = self.channel.recv_exact(4)
        self.received += head
        (length,) = struct.unpack(">I", head)
        if not 1 <= length <= MAX_FRAME:
            raise ProtocolError(f"bad frame length {length}")
        body = self.channel.recv_exact(length)
        self.received += body
        msg_type, payload = body[0], body[1:]
        if msg_type != expect_type:
            raise ProtocolError(f"expected message type {expect_type:#04x}, got {msg_type:#04x}")
        if msg_type == MSG_CONFIRM and len(payload) != 32:
            raise ProtocolError("confirmation payload must be 32 bytes")
        return payload

    def send_publics(self, msg_type: int, key: KeyPair) -> None:
        self.send_frame(msg_type, b"".join(blob(serialize_canonical(X)) for X in key.publics))

    def recv_publics(self, expect_type: int, params: GroupParams,
                     side: SubgroupSide) -> PublicKey:
        """The peer's two public elements, each alone in its blob and in B_n."""
        r = Reader(self.recv_frame(expect_type))
        try:
            elements = tuple(r.element(read_canonical, f"{o} peer element", params.n)
                             for o in ("first", "second"))
            r.done()
        except CodecError as exc:
            raise ProtocolError(f"bad element payload: {exc}") from exc
        return PublicKey(params, side, elements)


def kex_run(
    role: Role,
    channel,
    params: GroupParams,
    rng: SeededRng,
    confirm: bool = True,
) -> KexResult:
    """Run one side of the interactive exchange over a byte stream.

    The initiator plays the left subgroup and sends INIT(X1, X2); the
    responder plays the right subgroup and replies RESP(Y1, Y2).  Both
    derive the four-conjugate key under label "kex" and, unless confirm
    is disabled, exchange and verify confirmation tags.
    """
    session = _Session(channel)
    if role is Role.INITIATOR:
        me = nike_keygen(params, SubgroupSide.LEFT, rng)
        session.send_publics(MSG_INIT, me)
        peer = session.recv_publics(MSG_RESP, params, SubgroupSide.RIGHT)
    else:
        me = nike_keygen(params, SubgroupSide.RIGHT, rng)
        peer = session.recv_publics(MSG_INIT, params, SubgroupSide.LEFT)
        session.send_publics(MSG_RESP, me)

    key = nike_shared_key(me, peer, label="kex")

    if confirm:
        mine = confirm_tag(key, role)
        other_role = Role.RESPONDER if role is Role.INITIATOR else Role.INITIATOR
        expected = confirm_tag(key, other_role)
        if role is Role.INITIATOR:
            session.send_frame(MSG_CONFIRM, mine)
            theirs = session.recv_frame(MSG_CONFIRM)
        else:
            theirs = session.recv_frame(MSG_CONFIRM)
            session.send_frame(MSG_CONFIRM, mine)
        if not hmac.compare_digest(theirs, expected):
            raise KeyConfirmError("peer confirmation tag mismatch")

    return KexResult(role, key, session.sent, session.received)


# ---------------------------------------------------------------------------
# Loopback driver (tests, demos, tamper fuzzing)
# ---------------------------------------------------------------------------

class FlippingChannel:
    """Wraps a channel and XORs one byte of the outgoing stream."""

    def __init__(self, inner, flip_offset: int, xor: int = 0x01):
        self.inner = inner
        self.flip_offset = flip_offset
        self.xor = xor
        self._sent = 0

    def send_bytes(self, data: bytes) -> None:
        lo = self.flip_offset - self._sent
        if 0 <= lo < len(data):
            data = data[:lo] + bytes([data[lo] ^ self.xor]) + data[lo + 1 :]
        self._sent += len(data)
        self.inner.send_bytes(data)

    def recv_exact(self, k: int) -> bytes:
        return self.inner.recv_exact(k)

    def close(self) -> None:
        self.inner.close()


def loopback_run(
    params: GroupParams,
    init_rng: SeededRng,
    resp_rng: SeededRng,
    confirm: bool = True,
    tamper: tuple[Role, int] | None = None,
    timeout: float = 5.0,
):
    """Run both sides over an in-process socket pair.

    Returns (initiator outcome, responder outcome); each is a KexResult or
    the exception that aborted that side.  tamper=(role, offset) flips one
    byte of that role's outgoing stream in flight.
    """
    import threading

    chan_i, chan_r = loopback_channels(timeout)
    if tamper is not None:
        role, offset = tamper
        if role is Role.INITIATOR:
            chan_i = FlippingChannel(chan_i, offset)
        else:
            chan_r = FlippingChannel(chan_r, offset)

    outcomes: dict[Role, object] = {}

    def side(role: Role, channel, rng: SeededRng) -> None:
        try:
            outcomes[role] = kex_run(role, channel, params, rng, confirm=confirm)
        except Exception as exc:
            outcomes[role] = exc
        finally:
            channel.close()

    t = threading.Thread(
        target=side, args=(Role.RESPONDER, chan_r, resp_rng), daemon=True
    )
    t.start()
    side(Role.INITIATOR, chan_i, init_rng)
    t.join(timeout + 5.0)
    if Role.RESPONDER not in outcomes:
        outcomes[Role.RESPONDER] = ProtocolError("responder did not finish")
    return outcomes[Role.INITIATOR], outcomes[Role.RESPONDER]
