"""Operator-facing CLI: round trips, determinism, exit codes."""

import argparse
import gc
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from twincsp import (
    BraidWord,
    KeyPair,
    PublicKey,
    SeededRng,
    SubgroupSide,
    normal_form,
    sample_subgroup,
    serialize_canonical,
)
from twincsp.cli import EXIT_CRYPTO, EXIT_IO, EXIT_OK, EXIT_USAGE, _get_params, dispatch
from twincsp.kex import MSG_INIT, MSG_RESP, encode_frame
from twincsp.keyfiles import decode_keypair, encode_keypair, encode_public_key

SEED = "42" * 32
SEED2 = "43" * 32


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TCSP_SEED", raising=False)
    return tmp_path


def keygen(workdir, stem="k", scheme="twin", seed=SEED, extra=()):
    return dispatch(
        ["keygen", "--scheme", scheme, "--seed", seed, "--out", str(workdir / stem), *extra]
    )


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def dispatch_against(peer, argv) -> tuple[int, list]:
    """Run the CLI while peer() plays the other endpoint in a thread; returns
    the exit code and the ResourceWarnings raised until a garbage collection."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        t = threading.Thread(target=peer, daemon=True)
        t.start()
        code = dispatch(argv)
        t.join(10)
        gc.collect()
    return code, [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["cs", "twin"])
    def test_keygen_encrypt_decrypt(self, workdir, scheme):
        message = os.urandom(300)
        (workdir / "msg").write_bytes(message)
        assert keygen(workdir, scheme=scheme) == EXIT_OK
        assert dispatch(
            ["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
             "--out", str(workdir / "ct"), "--seed", SEED2]
        ) == EXIT_OK
        assert dispatch(
            ["decrypt", "--sk", str(workdir / "k.sec"), "--in", str(workdir / "ct"),
             "--out", str(workdir / "pt")]
        ) == EXIT_OK
        assert (workdir / "pt").read_bytes() == message

    def test_large_file_round_trip(self, workdir):
        message = os.urandom(1 << 20)
        (workdir / "msg").write_bytes(message)
        assert keygen(workdir) == EXIT_OK
        assert dispatch(
            ["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
             "--out", str(workdir / "ct"), "--seed", SEED2]
        ) == EXIT_OK
        assert dispatch(
            ["decrypt", "--sk", str(workdir / "k.sec"), "--in", str(workdir / "ct"),
             "--out", str(workdir / "pt")]
        ) == EXIT_OK
        assert (workdir / "pt").read_bytes() == message

    def test_decrypt_to_stdout(self, workdir, capsysbinary):
        (workdir / "msg").write_bytes(b"to standard out")
        keygen(workdir)
        dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
                  "--out", str(workdir / "ct"), "--seed", SEED2])
        assert dispatch(
            ["decrypt", "--sk", str(workdir / "k.sec"), "--in", str(workdir / "ct")]
        ) == EXIT_OK
        assert b"to standard out" in capsysbinary.readouterr().out


class TestDeterminism:
    def test_seeded_outputs_are_byte_identical(self, workdir):
        keygen(workdir, stem="a")
        keygen(workdir, stem="b")
        assert (workdir / "a.pub").read_bytes() == (workdir / "b.pub").read_bytes()
        assert (workdir / "a.sec").read_bytes() == (workdir / "b.sec").read_bytes()

    def test_env_seed_fallback(self, workdir, monkeypatch):
        keygen(workdir, stem="flagged")
        monkeypatch.setenv("TCSP_SEED", SEED)
        assert dispatch(["keygen", "--scheme", "twin", "--out", str(workdir / "envd")]) == EXIT_OK
        assert (workdir / "flagged.pub").read_bytes() == (workdir / "envd.pub").read_bytes()

    def test_seeded_encrypt_deterministic(self, workdir):
        (workdir / "msg").write_bytes(b"same bytes in, same bytes out")
        keygen(workdir)
        for name in ("c1", "c2"):
            dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
                      "--out", str(workdir / name), "--seed", SEED2])
        assert (workdir / "c1").read_bytes() == (workdir / "c2").read_bytes()


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        assert dispatch(["keygen", "--scheme", "nonsense", "--out", "x"]) == EXIT_USAGE
        assert dispatch(["no-such-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("extra", [
        ["--l", "32800", "--r", "32800", "--length", "1"],
        ["--l", "16384", "--r", "16385", "--length", "1"],
        ["--length", "65536"],
    ], ids=["n-65600", "n-32769", "W-65536"])
    def test_params_beyond_the_file_fields_are_exit_1(self, workdir, capsys, extra):
        assert keygen(workdir, extra=extra) == EXIT_USAGE
        assert "n = l + r <= 32768 and W <= 65535" in capsys.readouterr().err
        assert not (workdir / "k.pub").exists()

    def test_largest_params_fit_the_key_file(self):
        params = _get_params(argparse.Namespace(l=16384, r=16384, length=65535))
        n = params.n
        kp = KeyPair(params, SubgroupSide.LEFT, (BraidWord(n, (1 - params.l,)),),
                     (normal_form(BraidWord(n, (n - 1,))),))
        assert decode_keypair(encode_keypair(kp)) == kp

    def test_missing_file_is_exit_2(self, workdir):
        assert dispatch(
            ["encrypt", "--pk", str(workdir / "absent.pub"), "--in", str(workdir / "m"),
             "--out", str(workdir / "c"), "--seed", SEED]
        ) == EXIT_IO

    def test_corrupt_key_file_is_exit_2(self, workdir):
        (workdir / "junk.pub").write_bytes(b"not a key file at all")
        (workdir / "m").write_bytes(b"x")
        assert dispatch(
            ["encrypt", "--pk", str(workdir / "junk.pub"), "--in", str(workdir / "m"),
             "--out", str(workdir / "c"), "--seed", SEED]
        ) == EXIT_IO

    def test_tampered_ciphertext_is_exit_3(self, workdir):
        (workdir / "msg").write_bytes(b"precious payload")
        keygen(workdir)
        dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
                  "--out", str(workdir / "ct"), "--seed", SEED2])
        blob = bytearray((workdir / "ct").read_bytes())
        blob[-1] ^= 0x01  # flip one tag bit
        (workdir / "ct").write_bytes(bytes(blob))
        assert dispatch(
            ["decrypt", "--sk", str(workdir / "k.sec"), "--in", str(workdir / "ct"),
             "--out", str(workdir / "pt")]
        ) == EXIT_CRYPTO

    def encrypted(self, workdir) -> bytes:
        (workdir / "msg").write_bytes(b"header under test")
        keygen(workdir)
        dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
                  "--out", str(workdir / "ct"), "--seed", SEED2])
        return (workdir / "ct").read_bytes()

    def decrypt(self, workdir, blob: bytes) -> int:
        (workdir / "ct").write_bytes(blob)
        return dispatch(["decrypt", "--sk", str(workdir / "k.sec"), "--in", str(workdir / "ct"),
                         "--out", str(workdir / "pt")])

    def test_noncanonical_header_is_exit_2(self, workdir, capsys):
        blob = self.encrypted(workdir)
        # ciphertext file: magic(6) version scheme | blob(Y) | ...; inside Y,
        # n sits at bytes 6..8 and the factor count at 12..16
        (ylen,) = struct.unpack(">I", blob[8:12])
        Y = blob[12 : 12 + ylen]
        (n,) = struct.unpack(">H", Y[6:8])
        (count,) = struct.unpack(">I", Y[12:16])
        padded = Y[:12] + struct.pack(">I", count + 1) + struct.pack(f">{n}H", *range(n)) + Y[16:]
        forged = blob[:8] + struct.pack(">I", len(padded)) + padded + blob[12 + ylen :]
        assert self.decrypt(workdir, forged) == EXIT_IO
        assert "identity factor" in capsys.readouterr().err

    def test_version_1_ciphertext_is_exit_2(self, workdir, capsys):
        blob = bytearray(self.encrypted(workdir))
        blob[6] = 0x01
        assert self.decrypt(workdir, bytes(blob)) == EXIT_IO
        assert "length extension" in capsys.readouterr().err

    def test_key_material_not_matching_params_is_exit_2(self, workdir, capsys):
        (workdir / "msg").write_bytes(b"x")
        keygen(workdir)
        kp = decode_keypair((workdir / "k.sec").read_bytes())
        # X1 from B_4 under B_16 params
        small = normal_form(BraidWord(4, (1, 2)))
        (workdir / "bad.pub").write_bytes(
            encode_public_key(PublicKey(kp.params, kp.side, (small, kp.publics[1]))))
        assert dispatch(
            ["encrypt", "--pk", str(workdir / "bad.pub"), "--in", str(workdir / "msg"),
             "--out", str(workdir / "ct"), "--seed", SEED2]
        ) == EXIT_IO
        assert "first public element lives in B_4" in capsys.readouterr().err
        # a secret drawn from the right subgroup
        right = sample_subgroup(kp.params, SubgroupSide.RIGHT, SeededRng.from_hex(SEED))
        (workdir / "bad.sec").write_bytes(
            encode_keypair(KeyPair(kp.params, kp.side, (right, kp.secrets[1]), kp.publics)))
        assert dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in",
                         str(workdir / "msg"), "--out", str(workdir / "ct"),
                         "--seed", SEED2]) == EXIT_OK
        assert dispatch(
            ["decrypt", "--sk", str(workdir / "bad.sec"), "--in", str(workdir / "ct"),
             "--out", str(workdir / "pt")]
        ) == EXIT_IO
        assert "outside the left subgroup" in capsys.readouterr().err

    def test_header_from_other_braid_group_is_exit_2(self, workdir, capsys):
        blob = self.encrypted(workdir)
        (ylen,) = struct.unpack(">I", blob[8:12])
        small = serialize_canonical(normal_form(BraidWord(4, (1, 2))))
        forged = blob[:8] + struct.pack(">I", len(small)) + small + blob[12 + ylen :]
        assert self.decrypt(workdir, forged) == EXIT_IO
        assert "header element lives in B_4, params say B_16 (at offset 12)" in (
            capsys.readouterr().err)

    def test_scheme_mismatch_names_the_scheme_byte(self, workdir, capsys):
        blob = self.encrypted(workdir)  # a twin ciphertext
        keygen(workdir, scheme="cs")
        capsys.readouterr()
        assert self.decrypt(workdir, blob) == EXIT_IO
        # magic(6) | version(1) | scheme: the scheme byte is at offset 7
        assert "ciphertext scheme does not match key (at offset 7)" in capsys.readouterr().err

    def test_bad_seed_is_usage_error(self, workdir):
        assert dispatch(["keygen", "--out", str(workdir / "k"), "--seed", "zz"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("trapdoor-demo", "--trials", "0"),
        ("trapdoor-demo", "--trials", "-3"),
        ("reduce-demo", "--queries", "-1"),
    ])
    def test_bad_count_is_usage_error(self, workdir, capsys, command, flag, value):
        # Rejected by the parser: no run, no division by zero, no exit 0 or 3.
        assert dispatch([command, flag, value, "--seed", SEED]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert "usage: twincsp " + command in out.err
        assert f"argument {flag}: must be at least" in out.err


class TestInspect:
    def test_inspect_key_and_ciphertext(self, workdir, capsys):
        (workdir / "msg").write_bytes(b"inspect me")
        keygen(workdir)
        dispatch(["encrypt", "--pk", str(workdir / "k.pub"), "--in", str(workdir / "msg"),
                  "--out", str(workdir / "ct"), "--seed", SEED2])
        assert dispatch(["inspect", "--in", str(workdir / "k.pub")]) == EXIT_OK
        assert dispatch(["inspect", "--in", str(workdir / "k.sec")]) == EXIT_OK
        assert dispatch(["inspect", "--in", str(workdir / "ct")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "public key (twin)" in out
        assert "secret key (twin)" in out
        assert "ciphertext (twin)" in out

    def test_inspect_garbage_is_exit_2(self, workdir):
        (workdir / "blob").write_bytes(b"\x00\x01\x02")
        assert dispatch(["inspect", "--in", str(workdir / "blob")]) == EXIT_IO


class TestDemos:
    def test_kex_demo_loopback(self, workdir, capsys):
        assert dispatch(["kex-demo", "--seed", SEED]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_kex_demo_nike(self, workdir, capsys):
        assert dispatch(["kex-demo", "--mode", "nike", "--seed", SEED]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_kex_demo_socket_two_endpoints(self, workdir, capsys):
        addr = f"127.0.0.1:{free_port()}"
        codes = {}

        def listen():
            codes["responder"] = dispatch(
                ["kex-demo", "--listen", addr, "--seed", SEED]
            )

        t = threading.Thread(target=listen, daemon=True)
        t.start()
        connected = EXIT_IO
        for _ in range(50):
            connected = dispatch(
                ["kex-demo", "--connect", addr, "--seed", SEED2]
            )
            if connected == EXIT_OK:
                break
            time.sleep(0.05)
        t.join(30)
        assert connected == EXIT_OK
        assert codes.get("responder") == EXIT_OK
        out = capsys.readouterr().out
        assert "initiator" in out and "responder" in out

    def test_kex_demo_listen_closes_its_sockets_on_a_bad_frame(self, workdir, capsys):
        port = free_port()

        def peer():
            for _ in range(100):
                try:
                    conn = socket.create_connection(("127.0.0.1", port), timeout=5.0)
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                return
            with conn:
                conn.sendall(encode_frame(MSG_RESP, b"\x00" * 8))
                while conn.recv(4096):
                    pass

        argv = ["kex-demo", "--listen", f"127.0.0.1:{port}", "--seed", SEED]
        code, leaked = dispatch_against(peer, argv)
        assert code == EXIT_CRYPTO
        assert "expected message type 0x01, got 0x02" in capsys.readouterr().err
        assert leaked == []

    def test_kex_demo_connect_closes_its_socket_on_a_bad_frame(self, workdir, capsys):
        with socket.create_server(("127.0.0.1", 0)) as srv:
            def peer():
                conn, _addr = srv.accept()
                with conn:
                    conn.sendall(encode_frame(MSG_INIT, b"\x00" * 8))
                    while conn.recv(4096):
                        pass

            addr = f"127.0.0.1:{srv.getsockname()[1]}"
            code, leaked = dispatch_against(peer, ["kex-demo", "--connect", addr, "--seed", SEED])
        assert code == EXIT_CRYPTO
        assert "expected message type 0x02, got 0x01" in capsys.readouterr().err
        assert leaked == []

    def test_kex_demo_listen_and_connect_exclusive(self, workdir, capsys):
        addr = "127.0.0.1:9"
        assert dispatch(["kex-demo", "--listen", addr, "--connect", addr]) == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    def test_kex_demo_nike_refuses_an_address(self, workdir, capsys):
        argv = ["kex-demo", "--mode", "nike", "--listen", "127.0.0.1:9", "--seed", SEED]
        assert dispatch(argv) == EXIT_USAGE
        assert "--mode nike" in capsys.readouterr().err

    def test_trapdoor_demo(self, workdir, capsys):
        assert dispatch(["trapdoor-demo", "--trials", "25", "--seed", SEED]) == EXIT_OK
        out = capsys.readouterr().out
        assert "completeness 25/25" in out
        assert "half-dishonest rejected 25/25" in out

    def test_reduce_demo(self, workdir, capsys):
        assert dispatch(["reduce-demo", "--seed", SEED, "--queries", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ground-truth match: yes" in out
        assert "agreement 20/20" in out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["twincsp", "twincsp.cli"])
    def test_python_dash_m_runs_the_cli(self, workdir, module):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("TCSP_SEED", None)

        def run(*argv):
            return subprocess.run([sys.executable, "-m", module, *argv], cwd=workdir,
                                  env=env, capture_output=True, text=True, timeout=60)

        done = run("keygen", "--seed", SEED, "--out", "k")
        assert done.returncode == EXIT_OK, done.stderr
        assert (workdir / "k.pub").is_file() and (workdir / "k.sec").is_file()
        assert run("keygen", "--no-such-flag").returncode == EXIT_USAGE
