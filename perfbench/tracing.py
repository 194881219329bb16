"""Spans and counters recorded around twincsp's public functions.

The tracer replaces each traced function everywhere a module of the
package binds it (``twincsp.elgamal.nf_conjugate`` as well as
``twincsp.braid.nf_conjugate``), and traced methods on their classes, so
no file of the package changes.  Each call inside an op records a span
(id, parent, op id, thread, name, start, end); spans of one op share its
id, across threads too.  Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the part of each
span covered by its children in the same thread.  Within one thread the
self times of an op's spans add up to the duration of the op's root span.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType, SimpleNamespace

# (module, qualified name, layer, kind).  kind "span" records a span;
# "count" only counts calls (too fine-grained for spans).
TRACED = [
    ("braid", "normal_form", "braid", "span"),
    ("braid", "nf_multiply", "braid", "span"),
    ("braid", "nf_invert", "braid", "span"),
    ("braid", "nf_conjugate", "braid", "span"),
    *[("permutations", f, "permutations", "count") for f in (
        "identity", "is_permutation", "compose", "inverse", "transposition",
        "half_twist", "flip", "descents", "inversion_count")],
    ("sampling", "sample_subgroup", "sampling", "span"),
    ("sampling", "SeededRng.rand_below", "sampling", "span"),
    ("sampling", "SeededRng.rand_bytes", "sampling", "count"),
    ("codec", "serialize_canonical", "codec.encode", "span"),
    ("codec", "serialize_word", "codec.encode", "span"),
    ("codec", "read_canonical", "codec.decode", "span"),
    ("codec", "read_word", "codec.decode", "span"),
    ("codec", "deserialize_canonical", "codec.decode", "span"),
    ("codec", "hash_elements", "codec.hash", "span"),
    ("codec", "sym_encrypt", "codec.sym", "span"),
    ("codec", "sym_decrypt", "codec.sym", "span"),
    *[("elgamal", f, "elgamal", "span") for f in (
        "twin_keygen", "twin_encrypt", "twin_decrypt")],
    *[("keyfiles", f, "keyfiles", "span") for f in (
        "encode_public_key", "decode_public_key", "encode_keypair",
        "decode_keypair", "encode_ciphertext", "decode_ciphertext")],
    *[("trapdoor", f, "trapdoor", "span") for f in (
        "trapdoor_setup", "trapdoor_from_secrets", "trapdoor_check",
        "honest_query", "random_element")],
    ("reduction", "run_reduction", "reduction", "span"),
    ("reduction", "make_ccs_instance", "reduction", "span"),
    ("kex", "nike_keygen", "kex", "span"),
    ("kex", "nike_shared_key", "kex", "span"),
    ("kex", "kex_run", "kex", "span"),
    ("kex", "loopback_run", "kex", "span"),
    ("kex", "StreamChannel.recv_exact", "kex.wait", "span"),
    ("kex", "encode_frame", "kex", "count"),
]

BRAID_FORM_FUNCTIONS = ("normal_form", "nf_multiply", "nf_invert", "nf_conjugate")


class Tracer:
    """Records spans and counts for the op currently marked by ``op()``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.layers: list[str] = []
        self.current_op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.counts = defaultdict(float)
            loc.tid = threading.get_ident()
            self._thread_counts.append(loc.counts)  # list.append is atomic
        return loc

    def begin(self):
        loc = self._state()
        sid = next(self._ids)
        parent = loc.stack[-1] if loc.stack else None
        loc.stack.append(sid)
        return loc, sid, parent, time.perf_counter()

    def end(self, token, name_idx: int) -> float:
        loc, sid, parent, t0 = token
        t1 = time.perf_counter()
        loc.stack.pop()
        self.spans.append((sid, parent, self.current_op, loc.tid, name_idx, t0, t1))
        return t1 - t0

    def count(self, key: str, amount: float = 1) -> None:
        self._state().counts[key] += amount

    @contextmanager
    def op(self, op_id):
        """Marks one op with a root span named bench.op; its id tags every
        span recorded meanwhile, in any thread.  Yields an object whose
        `duration` is set when the op ends."""
        idx = self.name_index("bench.op", "bench")
        scope = SimpleNamespace(duration=None)
        self.current_op = op_id
        token = self.begin()
        try:
            yield scope
        finally:
            scope.duration = self.end(token, idx)
            self.current_op = None

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the benchmark's own code inside an op."""
        if self.current_op is None:
            yield
            return
        idx = self.name_index(name, layer)
        token = self.begin()
        try:
            yield
        finally:
            self.end(token, idx)

    def name_index(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layers.append(layer)
        return self.names.index(name)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function of the freshly imported package."""
        modules = [package] + [m for m in vars(package).values() if isinstance(m, ModuleType)
                               and m.__name__.startswith(package.__name__ + ".")]
        wrappers = {}
        for mod_name, qual, layer, kind in TRACED:
            mod = getattr(package, mod_name)
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
            fn = getattr(owner, attr)
            w = self._wrap(fn, f"{mod_name}.{qual}", layer, kind)
            wrappers[id(fn)] = w
            if owner is not mod:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, w)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name: str, layer: str, kind: str):
        tracer = self
        idx = self.name_index(name, layer)
        short = name.split(".")[-1]
        if kind == "count":
            key = f"{name}.calls"
            if name == "sampling.SeededRng.rand_bytes":
                def counted(*args, **kwargs):
                    if tracer.current_op is not None:
                        tracer.count(key)
                        tracer.count("sampling.rng_bytes", args[1])
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    if tracer.current_op is not None:
                        tracer.count(key)
                    return fn(*args, **kwargs)
            return counted

        after = None
        if layer == "braid" and short in BRAID_FORM_FUNCTIONS:
            def after(result, args):
                tracer.count("braid.forms")
                tracer.count("braid.factors", len(result.factors))
        elif name == "codec.sym_encrypt":
            def after(result, args):
                tracer.count("codec.sym_bytes", len(args[1]))
        elif name == "codec.sym_decrypt":
            def after(result, args):
                tracer.count("codec.sym_bytes", len(args[1].ct))

        calls_key = f"{name}.calls"

        def spanned(*args, **kwargs):
            if tracer.current_op is None:
                return fn(*args, **kwargs)
            tracer.count(calls_key)
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token, idx)
            if after is not None:
                after(result, args)
            return result

        return spanned

    # -- output ----------------------------------------------------------------

    def counts(self) -> dict:
        total = defaultdict(float)
        for c in self._thread_counts:
            for k, v in c.items():
                total[k] += v
        return dict(total)

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "layers": self.layers}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its children.

    A child counts only if it ran in the parent's thread; spans of other
    threads sharing the op id are concurrent work, not part of the parent.
    """
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None and parent[3] == s[3]:
            children[s[1]].append((s[5], s[6]))
    return {s[0]: (s[6] - s[5]) - _covered(s[5], s[6], children[s[0]]) for s in spans}


def root_residuals(spans, root_name_idx: int) -> list[float]:
    """For every root span: its duration minus the self times of the spans
    of its own thread and op.  Zero when spans nest properly."""
    own = self_times(spans)
    per_root = defaultdict(float)
    roots = {}
    for s in spans:
        if s[4] == root_name_idx and s[1] is None:
            roots[(s[2], s[3])] = s[6] - s[5]
    for s in spans:
        if (s[2], s[3]) in roots:
            per_root[(s[2], s[3])] += own[s[0]]
    return [roots[k] - per_root[k] for k in roots]


def layer_metrics(tracer: Tracer, ops: int, roots: int,
                  factors: dict | None = None) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the recorded spans.

    factors maps an op id to the factor that scales its times to the
    reference speed (see run.py); times of ops without one stay raw.
    """
    factors = factors or {}
    spans = [s[:5] + (s[5] * factors.get(s[2], 1.0), s[6] * factors.get(s[2], 1.0))
             for s in tracer.spans]
    own = self_times(spans)
    counts = tracer.counts()
    layer_self = defaultdict(float)
    name_total = defaultdict(float)
    durations = defaultdict(list)
    for s in spans:
        name, layer = tracer.names[s[4]], tracer.layers[s[4]]
        layer_self[layer] += own[s[0]]
        name_total[name] += s[6] - s[5]
        durations[name].append(s[6] - s[5])

    def ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    def calls(name: str) -> float:
        return counts.get(f"{name}.calls", 0.0) / ops

    perm_calls = sum(v for k, v in counts.items()
                     if k.startswith("permutations.") and k.endswith(".calls"))
    sym_s = layer_self["codec.sym"]
    checks = durations.get("trapdoor.trapdoor_check", [])
    forms = counts.get("braid.forms", 0.0)
    adversary = name_total["bench.adversary"] - _nested_total(
        spans, tracer.names, "bench.adversary", "trapdoor.trapdoor_check")
    return {
        "braid.self_ms_per_op": ms(layer_self["braid"]),
        "braid.normal_form.calls_per_op": calls("braid.normal_form"),
        "braid.nf_multiply.calls_per_op": calls("braid.nf_multiply"),
        "braid.nf_invert.calls_per_op": calls("braid.nf_invert"),
        "braid.nf_conjugate.calls_per_op": calls("braid.nf_conjugate"),
        "braid.factors_per_form": counts.get("braid.factors", 0.0) / forms if forms else 0.0,
        "permutations.is_permutation.calls_per_op": calls("permutations.is_permutation"),
        "permutations.calls_per_op": perm_calls / ops,
        "sampling.self_ms_per_op": ms(layer_self["sampling"]),
        "sampling.rng_bytes_per_op": counts.get("sampling.rng_bytes", 0.0) / ops,
        "codec.sym_ms_per_op": ms(sym_s),
        "codec.sym_mib_per_s": counts.get("codec.sym_bytes", 0.0) / 2**20 / sym_s if sym_s else 0.0,
        "codec.hash_ms_per_op": ms(layer_self["codec.hash"]),
        "codec.encode_ms_per_op": ms(layer_self["codec.encode"]),
        "codec.decode_ms_per_op": ms(layer_self["codec.decode"]),
        "elgamal.self_ms_per_op": ms(layer_self["elgamal"]),
        "elgamal.encrypt_ms_per_op": ms(name_total["elgamal.twin_encrypt"]),
        "elgamal.decrypt_ms_per_op": ms(name_total["elgamal.twin_decrypt"]),
        "keyfiles.ms_per_op": ms(layer_self["keyfiles"]),
        "trapdoor.check_ms_p50": 1e3 * statistics.median(checks) if checks else 0.0,
        "trapdoor.checks_per_op": calls("trapdoor.trapdoor_check"),
        "trapdoor.setup_ms_per_reduction": (
            1e3 * name_total["trapdoor.trapdoor_setup"] / roots
            if "trapdoor.trapdoor_setup" in name_total else 0.0),
        "reduction.self_ms_per_op": ms(layer_self["reduction"]),
        "reduction.adversary_ms_per_op": ms(adversary),
        "kex.self_ms_per_op": ms(layer_self["kex"]),
        "kex.wait_ms_per_op": ms(layer_self["kex.wait"]),
        "kex.keygen_ms_per_op": ms(name_total["kex.nike_keygen"]),
        "kex.derive_ms_per_op": ms(name_total["kex.nike_shared_key"]),
        "kex.frames_per_op": calls("kex.encode_frame"),
        "bench.glue_ms_per_op": ms(layer_self["bench"]),
    }


def _nested_total(spans, names: list[str], outer: str, inner: str) -> float:
    """Total duration of `inner` spans that run inside an `outer` span."""
    if outer not in names or inner not in names:
        return 0.0
    outer_idx, inner_idx = names.index(outer), names.index(inner)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[4] != inner_idx:
            continue
        p = by_id.get(s[1])
        while p is not None and p[4] != outer_idx:
            p = by_id.get(p[1])
        if p is not None:
            total += s[6] - s[5]
    return total
