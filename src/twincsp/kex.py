"""Non-interactive and interactive key exchange over the twin construction.

Each party holds a two-element ``KeyPair`` (two secret words from its own
subgroup, then their public conjugates), and both derive

    k = H(ccs(X1,Y1), ccs(X1,Y2), ccs(X2,Y1), ccs(X2,Y2))

where the X side always denotes the left-subgroup party and the Y side
the right-subgroup party; each of the four values is computable by either
party because opposite subgroups commute.  The peer's key is a
``PublicKey`` of its side.  The non-interactive variant
assumes the publics arrived out of band; the interactive variant ships
them as frames over a socket and finishes with a key-confirmation round
so that tampering has a testable failure mode (confirmation can be
disabled for derivation-only runs).

Wire format: 4-byte big-endian frame length, 1-byte message type
(0x01 INIT, 0x02 RESP, 0x03 CONFIRM), payload.  Frames are checked where
they are read: the type must be the one expected next, INIT/RESP payloads
are two codec blobs read as key files are (one canonical form each in the
exchange's B_n; a ``CodecError`` becomes a ``ProtocolError``), and CONFIRM
carries the 32 bytes SHA256(key || "confirm" || role byte); a CONFIRM
head announcing any other length is refused before its body is read.  The
transport is a ``StreamChannel`` over a connected socket, which frames,
checks and records the bytes of one party.  ``loopback_run`` runs both
parties in one process over a socket pair (the kex-demo command and the
benchmark use it).
"""

from __future__ import annotations

import hashlib
import hmac
import socket
import struct
import threading
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

LOOPBACK_TIMEOUT = 5.0


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
    """The shared conjugates in the fixed order ccs(X_i, Y_j), i outer:
    x_i Y_j x_i^{-1} if I hold the x_i, else y_j X_i y_j^{-1}."""
    if peer.side is me.side:
        raise ValueError("parties must use opposite subgroups")
    if me.side is SubgroupSide.LEFT:
        return [nf_conjugate(Y, x) for x in me.secrets for Y in peer.elements]
    return [nf_conjugate(X, y) for X in peer.elements for y in me.secrets]


def nike_shared_key(me: KeyPair, peer: PublicKey, label: str = "nike") -> SymKey:
    """Shared key of the non-interactive protocol; both sides agree."""
    return hash_elements(label, _four_shared(me, peer))


# ---------------------------------------------------------------------------
# Framing and transport
# ---------------------------------------------------------------------------

class StreamChannel:
    """One party's connection over a connected socket: sends, receives and
    checks frames, and records the raw frames in ``sent``/``received``.
    Transport failures (timeouts, resets, broken pipes) surface as
    ProtocolError."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        if timeout is not None:
            sock.settimeout(timeout)
        self.sent = b""
        self.received = b""

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
            except TimeoutError as exc:
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

    def send_frame(self, msg_type: int, payload: bytes) -> None:
        frame = encode_frame(msg_type, payload)
        self.send_bytes(frame)
        self.sent += frame

    def recv_frame(self, expect_type: int) -> bytes:
        head = self.recv_exact(4)
        self.received += head
        (length,) = struct.unpack(">I", head)
        if not 1 <= length <= MAX_FRAME:
            raise ProtocolError(f"bad frame length {length}")
        if expect_type == MSG_CONFIRM and length != 33:
            # Refused before the body is read: a wrong length would
            # otherwise wait for bytes that never come.
            raise ProtocolError(
                f"confirmation payload must be 32 bytes, head announces {length - 1}")
        body = self.recv_exact(length)
        self.received += body
        msg_type, payload = body[0], body[1:]
        if msg_type != expect_type:
            raise ProtocolError(f"expected message type {expect_type:#04x}, got {msg_type:#04x}")
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


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) + 1 > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload) + 1} bytes")
    return struct.pack(">I", len(payload) + 1) + bytes([msg_type]) + payload


def confirm_tag(key: SymKey, role: Role) -> bytes:
    return hashlib.sha256(key.bytes + b"confirm" + ROLE_BYTE[role.value]).digest()


@dataclass
class KexResult:
    key: SymKey
    sent: bytes
    received: bytes


def kex_run(
    role: Role,
    channel: StreamChannel,
    params: GroupParams,
    rng: SeededRng,
    confirm: bool = True,
) -> KexResult:
    """Run one side of the interactive exchange over a StreamChannel.

    The initiator plays the left subgroup and sends INIT(X1, X2); the
    responder plays the right subgroup and replies RESP(Y1, Y2).  Both
    derive the four-conjugate key under label "kex" and, unless confirm
    is disabled, exchange and verify confirmation tags.
    """
    if role is Role.INITIATOR:
        me = nike_keygen(params, SubgroupSide.LEFT, rng)
        channel.send_publics(MSG_INIT, me)
        peer = channel.recv_publics(MSG_RESP, params, SubgroupSide.RIGHT)
    else:
        me = nike_keygen(params, SubgroupSide.RIGHT, rng)
        peer = channel.recv_publics(MSG_INIT, params, SubgroupSide.LEFT)
        channel.send_publics(MSG_RESP, me)

    key = nike_shared_key(me, peer, label="kex")

    if confirm:
        mine = confirm_tag(key, role)
        other_role = Role.RESPONDER if role is Role.INITIATOR else Role.INITIATOR
        expected = confirm_tag(key, other_role)
        if role is Role.INITIATOR:
            channel.send_frame(MSG_CONFIRM, mine)
            theirs = channel.recv_frame(MSG_CONFIRM)
        else:
            theirs = channel.recv_frame(MSG_CONFIRM)
            channel.send_frame(MSG_CONFIRM, mine)
        if not hmac.compare_digest(theirs, expected):
            raise KeyConfirmError("peer confirmation tag mismatch")

    return KexResult(key, channel.sent, channel.received)


# ---------------------------------------------------------------------------
# Loopback driver
# ---------------------------------------------------------------------------

def loopback_run(
    params: GroupParams,
    init_rng: SeededRng,
    resp_rng: SeededRng,
    confirm: bool = True,
):
    """Run both sides over an in-process socket pair, the responder on a
    thread; each socket times out after LOOPBACK_TIMEOUT seconds.

    Returns (initiator outcome, responder outcome); each is a KexResult or
    the exception that aborted that side.
    """
    chan_i, chan_r = (StreamChannel(sock, LOOPBACK_TIMEOUT) for sock in socket.socketpair())

    outcomes: dict[Role, object] = {}

    def side(role: Role, channel: StreamChannel, rng: SeededRng) -> None:
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
    t.join(LOOPBACK_TIMEOUT + 5.0)
    if Role.RESPONDER not in outcomes:
        outcomes[Role.RESPONDER] = ProtocolError("responder did not finish")
    return outcomes[Role.INITIATOR], outcomes[Role.RESPONDER]
