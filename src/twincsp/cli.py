"""Command-line surface: keygen, encrypt, decrypt, kex-demo, trapdoor-demo,
reduce-demo, inspect.

Every randomized command honors --seed (64 hex chars; falls back to the
TCSP_SEED environment variable, then to fresh OS entropy, printing the
chosen seed to stderr so runs can be reproduced).  Exit codes: 0 success,
1 usage, 2 I/O or parse failure, 3 a failed authentication or
key confirmation, or any ProtocolError of the key exchange (a transport
failure or timeout, a truncated stream, a wrong frame type, a bad element
payload).

The three demo commands import the key exchange, the trapdoor test and the
reduction when they run, so keygen, encrypt, decrypt and inspect load none
of them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import keyfiles
from .braid import default_params, nf_conjugate
from .codec import AuthenticationError, CodecError, KeyConfirmError, ProtocolError
from .elgamal import SCHEME_NAMES, KeyPair, decrypt, encrypt, keygen
from .sampling import SeededRng, SubgroupSide

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CRYPTO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(least: int):
    """An argparse type: an integer no smaller than least."""
    def count(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid count value"
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _build_parser() -> _Parser:
    p = _Parser(prog="twincsp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_params(sp):
        sp.add_argument("--l", type=int, default=8, help="left subgroup strands (default 8)")
        sp.add_argument("--r", type=int, default=8, help="right subgroup strands (default 8)")
        sp.add_argument("--length", type=int, default=16, metavar="W",
                        help="letters per sampled secret (default 16)")

    def add_seed(sp):
        sp.add_argument("--seed", help="64 hex chars; env TCSP_SEED is the fallback")

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        return sp

    sp = command("keygen", _cmd_keygen, "generate a key pair")
    sp.add_argument("--scheme", choices=SCHEME_NAMES.values(), default="twin")
    sp.add_argument("--out", required=True, help="path stem; writes OUT.pub and OUT.sec")
    add_params(sp)
    add_seed(sp)

    sp = command("encrypt", _cmd_encrypt, "encrypt a file to a public key")
    sp.add_argument("--pk", required=True, help="public key file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    add_seed(sp)

    sp = command("decrypt", _cmd_decrypt, "decrypt a ciphertext file")
    sp.add_argument("--sk", required=True, help="secret key file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", help="plaintext destination (default: stdout)")

    sp = command("inspect", _cmd_inspect, "pretty-print a key or ciphertext file")
    sp.add_argument("--in", dest="infile", required=True)

    sp = command("kex-demo", _cmd_kex_demo, "run a key exchange")
    sp.add_argument("--mode", choices=["interactive", "nike"], default="interactive")
    peer = sp.add_mutually_exclusive_group()
    peer.add_argument("--listen", metavar="HOST:PORT", help="over a socket, as responder")
    peer.add_argument("--connect", metavar="HOST:PORT", help="over a socket, as initiator")
    add_params(sp)
    add_seed(sp)

    sp = command("trapdoor-demo", _cmd_trapdoor_demo, "trapdoor test statistics")
    sp.add_argument("--trials", type=_count(1), default=1000)
    add_params(sp)
    add_seed(sp)

    sp = command("reduce-demo", _cmd_reduce_demo, "simulate the reduction once")
    sp.add_argument("--queries", type=_count(0), default=50)
    add_params(sp)
    add_seed(sp)

    return p


def _get_rng(seed_hex: str | None) -> SeededRng:
    if seed_hex is None:
        seed_hex = os.environ.get("TCSP_SEED")
    if seed_hex is None:
        seed = os.urandom(32)
        print(f"seed: {seed.hex()}", file=sys.stderr)
        return SeededRng(seed)
    return SeededRng.from_hex(seed_hex)


def _cmd_keygen(args) -> int:
    scheme = {name: k for k, name in SCHEME_NAMES.items()}[args.scheme]
    kp = keygen(args.params, SubgroupSide.LEFT, scheme, args.rng)
    with open(args.out + ".pub", "wb") as f:
        f.write(keyfiles.encode_public_key(kp.public))
    with open(args.out + ".sec", "wb") as f:
        f.write(keyfiles.encode_keypair(kp))
    print(f"wrote {args.out}.pub and {args.out}.sec ({args.scheme}, B_{args.params.n})")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    with open(args.pk, "rb") as f:
        pk = keyfiles.decode_public_key(f.read())
    with open(args.infile, "rb") as f:
        message = f.read()
    ct = encrypt(pk, message, args.rng)
    with open(args.out, "wb") as f:
        f.write(keyfiles.encode_ciphertext(ct))
    print(f"encrypted {len(message)} bytes -> {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    with open(args.sk, "rb") as f:
        kp = keyfiles.decode_keypair(f.read())
    with open(args.infile, "rb") as f:
        ct = keyfiles.decode_ciphertext(f.read(), kp)
    message = decrypt(kp, ct)
    if args.out:
        with open(args.out, "wb") as f:
            f.write(message)
        print(f"decrypted {len(message)} bytes -> {args.out}")
    else:
        sys.stdout.buffer.write(message)
        sys.stdout.buffer.flush()
    return EXIT_OK


def _describe_canonical(cf) -> str:
    lines = [f"  strands:   {cf.n}",
             f"  half-twist power: {cf.delta_exp}",
             f"  factors:   {len(cf.factors)}"]
    for i, f in enumerate(cf.factors):
        lines.append(f"    A{i + 1}: {f.perm}")
    return "\n".join(lines)


def _cmd_inspect(args) -> int:
    with open(args.infile, "rb") as f:
        data = f.read()
    if data.startswith(keyfiles.KEY_MAGIC):
        key = keyfiles.decode_key(data)
        pk, secrets = (key.public, key.secrets) if isinstance(key, KeyPair) else (key, ())
        params = pk.params
        print(f"{'secret' if secrets else 'public'} key ({SCHEME_NAMES[pk.k]}), B_{params.n}, "
              f"l={params.l}, r={params.r}, W={params.W}")
        if secrets:
            lengths = ", ".join(str(len(w)) for w in secrets)
            print(f"  secret word length{'s' if pk.k > 1 else ''}: {lengths}")
        for i, e in enumerate(pk.elements):
            print(f"X{i + 1 if pk.k > 1 else ''}:")
            print(_describe_canonical(e))
    elif data.startswith(keyfiles.CT_MAGIC):
        ct = keyfiles.decode_ciphertext(data)
        print(f"ciphertext ({SCHEME_NAMES[ct.scheme]}), {len(ct.box.ct)} payload bytes")
        print("Y:")
        print(_describe_canonical(ct.Y))
        print(f"tag: {ct.box.tag.hex()}")
    else:
        raise CodecError("unrecognized file magic", 0)
    return EXIT_OK


def _fingerprint(key) -> str:
    return hashlib.sha256(key.bytes).hexdigest()[:16]


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, digits = text.rpartition(":")
    try:
        port = int(digits) if sep else None
    except ValueError:
        port = None
    if port is None:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    if not 1 <= port <= 65535:
        raise ValueError(f"port must be in 1..65535, got {port}")
    return host or "127.0.0.1", port


def _cmd_kex_demo(args) -> int:
    import socket

    from .kex import Role, StreamChannel, kex_run, loopback_run, nike_keygen, nike_shared_key

    params, rng = args.params, args.rng

    if args.mode == "nike":
        if args.listen or args.connect:
            raise ValueError("--mode nike runs in process; --listen and --connect are interactive")
        alice = nike_keygen(params, SubgroupSide.LEFT, rng.fork("alice"))
        bob = nike_keygen(params, SubgroupSide.RIGHT, rng.fork("bob"))
        k_a = nike_shared_key(alice, bob.public)
        k_b = nike_shared_key(bob, alice.public)
        agree = k_a == k_b
        print(f"nike: alice {_fingerprint(k_a)}  bob {_fingerprint(k_b)}  "
              f"{'agree' if agree else 'DISAGREE'}")
        return EXIT_OK if agree else EXIT_CRYPTO

    if args.listen or args.connect:
        if args.listen:
            with socket.create_server(_parse_hostport(args.listen)) as srv:
                conn, _addr = srv.accept()
            role = Role.RESPONDER
        else:
            conn = socket.create_connection(_parse_hostport(args.connect), timeout=30.0)
            role = Role.INITIATOR
        with conn:
            result = kex_run(role, StreamChannel(conn, timeout=30.0), params, rng)
        print(f"{role.value}: key {_fingerprint(result.key)} "
              f"({len(result.sent)} bytes sent, {len(result.received)} received)")
        return EXIT_OK

    res_i, res_r = loopback_run(params, rng.fork("initiator"), rng.fork("responder"))
    for res in (res_i, res_r):
        if isinstance(res, Exception):
            raise res
    agree = res_i.key == res_r.key
    print(f"kex: initiator {_fingerprint(res_i.key)}  responder {_fingerprint(res_r.key)}  "
          f"{'agree' if agree else 'DISAGREE'}")
    return EXIT_OK if agree else EXIT_CRYPTO


def _cmd_trapdoor_demo(args) -> int:
    from .trapdoor import trapdoor_stats

    trials = args.trials
    complete, rejected, random_pass = trapdoor_stats(args.params, trials, args.rng)
    print(f"trapdoor-demo over {trials} trials: "
          f"completeness {complete}/{trials} ({100.0 * complete / trials:.2f}%), "
          f"half-dishonest rejected {rejected}/{trials} ({100.0 * rejected / trials:.2f}%), "
          f"random-query passes {random_pass}/{trials} ({100.0 * random_pass / trials:.2f}%)")
    ok = complete == trials and rejected == trials and random_pass <= trials // 100
    return EXIT_OK if ok else EXIT_CRYPTO


def _cmd_reduce_demo(args) -> int:
    from .reduction import make_ccs_instance, probing_adversary, run_reduction

    params, rng = args.params, args.rng
    inst = make_ccs_instance(params, rng.fork("instance"))
    adversary, labels = probing_adversary(params, inst.witness_y, rng.fork("adversary"),
                                          n_queries=args.queries)
    result = run_reduction(inst, adversary, rng.fork("reduction"))

    agree = sum(1 for (qq, ans), truth in zip(result.transcript, labels) if ans == truth)
    total = len(result.transcript)
    expected = nf_conjugate(inst.X, inst.witness_y)
    matched = result.succeeded and result.value == expected
    print(f"reduce-demo: {total} oracle queries, "
          f"agreement {agree}/{total} ({100.0 * agree / max(total, 1):.2f}%), "
          f"outcome {'success' if result.succeeded else 'failure'}, "
          f"ground-truth match: {'yes' if matched else 'no'}")
    return EXIT_OK if matched else EXIT_CRYPTO


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # a command built with add_seed gets args.rng; with add_params, args.params
        if hasattr(args, "seed"):
            args.rng = _get_rng(args.seed)
        if hasattr(args, "length"):
            args.params = default_params(args.l, args.r, args.length)
        return args.run(args)
    except (AuthenticationError, KeyConfirmError, ProtocolError) as exc:
        print(f"twincsp: crypto failure: {exc}", file=sys.stderr)
        return EXIT_CRYPTO
    except (CodecError, OSError) as exc:  # before ValueError: a CodecError is one
        print(f"twincsp: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"twincsp: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
