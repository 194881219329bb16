"""Key exchange: non-interactive agreement, the framed interactive
protocol, confirmation, and tamper evidence."""

import socket
import struct
import time

import pytest

from conftest import rng_from, two_party_run
from twincsp import (
    BraidWord,
    KeyConfirmError,
    ProtocolError,
    Role,
    SubgroupSide,
    default_params,
    hash_elements,
    kex_run,
    loopback_run,
    nike_keygen,
    nike_shared_key,
    normal_form,
)
from twincsp.codec import CodecError, blob, serialize_canonical
from twincsp.kex import (
    MSG_CONFIRM,
    MSG_INIT,
    MSG_RESP,
    StreamChannel,
    encode_frame,
)


def loopback_channels(timeout: float | None = 5.0) -> tuple[StreamChannel, StreamChannel]:
    """Two connected channels over a socketpair."""
    a, b = socket.socketpair()
    return StreamChannel(a, timeout), StreamChannel(b, timeout)


def aborted(outcome) -> bool:
    return isinstance(outcome, Exception)


class TestNike:
    def test_agreement(self, params):
        for i in range(20):
            alice = nike_keygen(params, SubgroupSide.LEFT, rng_from(14_000 + i))
            bob = nike_keygen(params, SubgroupSide.RIGHT, rng_from(15_000 + i))
            assert nike_shared_key(alice, bob.public) == nike_shared_key(bob, alice.public)

    def test_conjugate_order_enters_key(self, params):
        rng = rng_from(90)
        alice = nike_keygen(params, SubgroupSide.LEFT, rng)
        bob = nike_keygen(params, SubgroupSide.RIGHT, rng)
        from twincsp.kex import _four_shared

        shared = _four_shared(alice, bob.public)
        assert hash_elements("nike", shared) != hash_elements(
            "nike", list(reversed(shared))
        )

    def test_same_side_rejected(self, params):
        rng = rng_from(91)
        alice = nike_keygen(params, SubgroupSide.LEFT, rng)
        carol = nike_keygen(params, SubgroupSide.LEFT, rng)
        with pytest.raises(ValueError):
            nike_shared_key(alice, carol.public)

    def test_reflexive_exchange_rejected(self, params):
        alice = nike_keygen(params, SubgroupSide.LEFT, rng_from(92))
        with pytest.raises(ValueError):
            nike_shared_key(alice, alice.public)

    def test_label_separates_nike_from_kex(self, params):
        rng = rng_from(93)
        alice = nike_keygen(params, SubgroupSide.LEFT, rng)
        bob = nike_keygen(params, SubgroupSide.RIGHT, rng)
        assert nike_shared_key(alice, bob.public, label="nike") != nike_shared_key(
            alice, bob.public, label="kex"
        )


class TestFrames:
    """Frames as a responder reads them off the wire."""

    def responder_reads(self, params, *frames):
        chan_i, chan_r = loopback_channels(timeout=2.0)
        for frame in frames:
            chan_i.send_bytes(frame)
        try:
            return kex_run(Role.RESPONDER, chan_r, params, rng_from(114))
        finally:
            chan_i.close()
            chan_r.close()

    def valid_init(self, params) -> bytes:
        me = nike_keygen(params, SubgroupSide.LEFT, rng_from(115))
        payload = b"".join(blob(serialize_canonical(X)) for X in me.publics)
        return encode_frame(MSG_INIT, payload)

    def test_unknown_type_rejected(self, params):
        with pytest.raises(ProtocolError, match="0x7f"):
            self.responder_reads(params, encode_frame(0x7F, b"\x00" * 32))

    def test_short_init_payload_rejected(self, params):
        with pytest.raises(ProtocolError) as exc:
            self.responder_reads(params, encode_frame(MSG_INIT, b"\x00" * 7))
        assert isinstance(exc.value.__cause__, CodecError)

    def test_confirm_payload_must_be_tag_sized(self, params):
        for size in (31, 33):
            with pytest.raises(ProtocolError, match="32 bytes"):
                self.responder_reads(params, self.valid_init(params),
                                     encode_frame(MSG_CONFIRM, b"\x00" * size))

    def test_confirm_head_of_wrong_length_is_refused_at_once(self):
        # A flipped length byte: the head announces 289 bytes, none follow.
        chan_a, chan_b = loopback_channels(timeout=5.0)
        try:
            chan_a.send_bytes(struct.pack(">I", 289))
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="32 bytes, head announces 288"):
                chan_b.recv_frame(MSG_CONFIRM)
            assert time.monotonic() - start < 0.5
        finally:
            chan_a.close()
            chan_b.close()

    def test_encode_matches_frame_layout(self):
        frame = encode_frame(MSG_CONFIRM, bytes(range(32)))
        assert frame == b"\x00\x00\x00\x21\x03" + bytes(range(32))


class TestInteractive:
    def test_loopback_agreement(self, params):
        for i in range(10):
            res_i, res_r = loopback_run(
                params, rng_from(16_000 + i), rng_from(17_000 + i)
            )
            assert not aborted(res_i) and not aborted(res_r)
            assert res_i.key == res_r.key

    def test_transcript_determinism(self, params):
        runs = [
            loopback_run(params, rng_from(94), rng_from(95)) for _ in range(2)
        ]
        (a_i, a_r), (b_i, b_r) = runs
        assert a_i.sent == b_i.sent
        assert a_r.sent == b_r.sent
        assert a_i.key == b_i.key

    def test_transcript_regression_fixture(self, params):
        # frozen digests of a fixed-seed session; any wire or derivation
        # change shows up here first
        import hashlib

        res_i, res_r = loopback_run(params, rng_from(424242), rng_from(434343))
        assert hashlib.sha256(res_i.sent).hexdigest() == (
            "c70f4825fb2579c400d83658bc3321db83ebee784b95f2979250e01ae0a2b862"
        )
        assert hashlib.sha256(res_r.sent).hexdigest() == (
            "b91b6f11503f027d5a8edcb1c34fdec3470bfe2c3b84feda9e559ab4dc11b5cc"
        )
        assert res_i.key.bytes.hex() == (
            "ba7aec5fbdee36c2ba3cd5ddfc0bfdb1e1f5e7a800c7356fc557577a7c48b0ab"
        )

    def test_wire_format(self, params):
        res_i, res_r = loopback_run(params, rng_from(96), rng_from(97))
        # initiator stream: INIT frame then CONFIRM frame
        data = res_i.sent
        (length,) = struct.unpack(">I", data[:4])
        assert data[4] == MSG_INIT
        init_payload = data[5 : 4 + length]
        # payload: two length-prefixed canonical forms
        (first_len,) = struct.unpack(">I", init_payload[:4])
        assert init_payload[4:8] == b"TCSP"
        second_start = 4 + first_len
        (second_len,) = struct.unpack(
            ">I", init_payload[second_start : second_start + 4]
        )
        assert len(init_payload) == 8 + first_len + second_len
        # next frame is CONFIRM with a 32-byte tag
        rest = data[4 + length :]
        (clen,) = struct.unpack(">I", rest[:4])
        assert rest[4] == MSG_CONFIRM and clen == 33
        assert len(rest) == 4 + clen
        # responder stream: RESP then CONFIRM
        assert res_r.sent[4] == MSG_RESP

    def test_derivation_only_mode(self, params):
        res_i, res_r = loopback_run(params, rng_from(98), rng_from(99), confirm=False)
        assert res_i.key == res_r.key
        assert MSG_CONFIRM not in (res_i.sent[4], res_r.sent[4])
        assert len(res_i.sent) < 4 + 1 + 2 * 1000  # single frame only

    def test_param_mismatch_aborts(self):
        p8 = default_params()
        p6 = default_params(l=6, r=6)
        outcomes = two_party_run(p8, rng_from(100), rng_from(101), resp_params=p6)
        assert any(isinstance(v, Exception) for v in outcomes)

    def test_peer_closed_socket_is_protocol_error(self):
        chan_a, chan_b = loopback_channels(timeout=2.0)
        chan_a.send_bytes(b"left unread")
        chan_b.close()  # with unread bytes queued, the close resets the stream
        with pytest.raises(ProtocolError, match="receiving") as exc:
            chan_a.recv_exact(4)
        assert isinstance(exc.value.__cause__, ConnectionResetError)
        with pytest.raises(ProtocolError, match="sending") as exc:
            chan_a.send_bytes(b"into a closed pipe")
        assert isinstance(exc.value.__cause__, BrokenPipeError)
        chan_a.close()

    def test_truncated_stream(self, params):
        chan_i, chan_r = loopback_channels(timeout=2.0)
        chan_i.send_bytes(encode_frame(MSG_INIT, b"short")[:6])
        chan_i.close()
        with pytest.raises(ProtocolError):
            kex_run(Role.RESPONDER, chan_r, params, rng_from(102))
        chan_r.close()

    def test_wrong_message_type(self, params):
        chan_i, chan_r = loopback_channels(timeout=2.0)
        chan_i.send_bytes(encode_frame(MSG_RESP, b"\x00" * 8))
        with pytest.raises(ProtocolError):
            kex_run(Role.RESPONDER, chan_r, params, rng_from(103))
        chan_i.close()
        chan_r.close()

    def test_oversized_frame_rejected(self, params):
        chan_i, chan_r = loopback_channels(timeout=2.0)
        chan_i.send_bytes(struct.pack(">I", (1 << 20) + 2))
        with pytest.raises(ProtocolError):
            kex_run(Role.RESPONDER, chan_r, params, rng_from(104))
        chan_i.close()
        chan_r.close()

    def test_tampered_resp_detected_by_initiator(self, params):
        # flip a byte inside the responder's element payload
        res_i, res_r = loopback_run(params, rng_from(105), rng_from(106))
        offset = 40  # inside the first element of RESP
        out_i, out_r = two_party_run(
            params,
            rng_from(105),
            rng_from(106),
            tamper=(Role.RESPONDER, offset),
            timeout=2.0,
        )
        assert aborted(out_i) or aborted(out_r)

    def test_tamper_sample_positions(self, params):
        res_i, _res_r = loopback_run(params, rng_from(107), rng_from(108))
        positions = [0, 3, 4, 5, 9, len(res_i.sent) // 2, len(res_i.sent) - 1]
        for pos in positions:
            out_i, out_r = two_party_run(
                params,
                rng_from(107),
                rng_from(108),
                tamper=(Role.INITIATOR, pos),
                timeout=2.0,
            )
            assert aborted(out_i) or aborted(out_r), f"no abort at offset {pos}"

    def test_tamper_keeps_the_intended_bytes_in_sent(self, params):
        # the last byte of the responder's CONFIRM tag arrives flipped
        _base_i, base_r = loopback_run(params, rng_from(105), rng_from(106))
        out_i, out_r = two_party_run(
            params,
            rng_from(105),
            rng_from(106),
            tamper=(Role.RESPONDER, len(base_r.sent) - 1),
            timeout=2.0,
        )
        assert not aborted(out_r)
        assert out_r.sent == base_r.sent
        assert isinstance(out_i, KeyConfirmError)

    def test_confirm_tag_mismatch_is_key_confirm_error(self, params):
        res_i, _ = loopback_run(params, rng_from(109), rng_from(110))
        confirm_tag_offset = len(res_i.sent) - 16  # inside the CONFIRM tag
        out_i, out_r = two_party_run(
            params,
            rng_from(109),
            rng_from(110),
            tamper=(Role.INITIATOR, confirm_tag_offset),
            timeout=2.0,
        )
        assert any(isinstance(o, KeyConfirmError) for o in (out_i, out_r))


class TestElementPayload:
    """INIT/RESP payloads are two codec blobs, each filled by one element of
    the exchange's B_n.  Any other payload is a ProtocolError caused by the
    codec's CodecError, whose offset is into the payload."""

    def init_payload(self, params) -> bytes:
        res_i, _ = loopback_run(params, rng_from(111), rng_from(112), confirm=False)
        (length,) = struct.unpack(">I", res_i.sent[:4])
        return res_i.sent[5 : 4 + length]

    def relength_first(self, payload: bytes, delta: int) -> tuple[bytes, int]:
        (first,) = struct.unpack_from(">I", payload)
        return struct.pack(">I", first + delta) + payload[4:], first

    def responder_error(self, params, payload: bytes) -> CodecError:
        chan_i, chan_r = loopback_channels(timeout=2.0)
        chan_i.send_bytes(encode_frame(MSG_INIT, payload))
        try:
            with pytest.raises(ProtocolError, match="bad element payload") as exc:
                kex_run(Role.RESPONDER, chan_r, params, rng_from(113))
        finally:
            chan_i.close()
            chan_r.close()
        assert isinstance(exc.value.__cause__, CodecError)
        return exc.value.__cause__

    def test_first_blob_shorter_than_its_element(self, params):
        # the element's last factor would spill into the second blob
        payload, first = self.relength_first(self.init_payload(params), -2)
        err = self.responder_error(params, payload)
        assert "bad first peer element: truncated factor table" in str(err)
        assert err.offset == 4 + first - 2 * params.n

    def test_first_blob_longer_than_its_element(self, params):
        payload, first = self.relength_first(self.init_payload(params), 2)
        err = self.responder_error(params, payload)
        assert "trailing bytes in first peer element" in str(err)
        assert err.offset == 4 + first

    def test_peer_element_from_another_braid_group(self, params):
        payload, first = self.relength_first(self.init_payload(params), 0)
        small = blob(serialize_canonical(normal_form(BraidWord(4, (1, 2, -3)))))
        err = self.responder_error(params, small + payload[4 + first :])
        assert "first peer element lives in B_4, params say B_16" in str(err)
        assert err.offset == 4

    def test_trailing_bytes_after_second_blob(self, params):
        payload = self.init_payload(params)
        err = self.responder_error(params, payload + b"\x00")
        assert "trailing bytes" in str(err)
        assert err.offset == len(payload)
