"""In-memory span tracing of factzeros' public functions, installed from outside.

The tracer rebinds module attributes: every module of the package that holds a
traced function under its public name gets a wrapper in its place, so calls
made through `factzeros.image.z_base` or `factzeros.zcount.factorize` are seen
as well as calls made by the benchmark.  Functions behind `functools.lru_cache`
are left alone so that their caches behave exactly as in an untraced run.

Each span is (name, parent, start, end), kept in four flat arrays; self time is
a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from array import array
from operator import sub
from time import perf_counter

MODULES = (
    "factzeros",
    "factzeros.arithmetic",
    "factzeros.zcount",
    "factzeros.jumps",
    "factzeros.image",
    "factzeros.oracle",
    "factzeros.cli",
)

# span name -> (module that defines it, attribute)
SPANNED = {
    "arithmetic.factorize": ("factzeros.arithmetic", "factorize"),
    "zcount.z_base": ("factzeros.zcount", "z_base"),
    "image.min_arg_reaching": ("factzeros.image", "min_arg_reaching"),
    "image.in_image": ("factzeros.image", "in_image"),
    "image.gaps_up_to": ("factzeros.image", "gaps_up_to"),
    "image.density_exact": ("factzeros.image", "density_exact"),
    "image.family_prop3a": ("factzeros.image", "family_prop3a"),
    "image.family_prop3b": ("factzeros.image", "family_prop3b"),
    "image.family_prop7": ("factzeros.image", "family_prop7"),
    "image.family_cor2": ("factzeros.image", "family_cor2"),
    "image.family_cor3": ("factzeros.image", "family_cor3"),
    "image.family_prop8": ("factzeros.image", "family_prop8"),
    "oracle.factorial_trailing_zeros": ("factzeros.oracle", "factorial_trailing_zeros"),
}
# generator: one span per next() call
GENERATORS = {"jumps.jump_stream": ("factzeros.jumps", "jump_stream")}
CLI_MAIN = "cli.main"

LAYERS = {
    "image.inversion": ("image.min_arg_reaching", "image.in_image"),
    "image.gaps": ("image.gaps_up_to",),
    "image.density": ("image.density_exact",),
    "image.families": tuple(n for n in SPANNED if n.startswith("image.family_")),
}


class Tracer:
    """Span recorder; install() wraps the package in place, uninstall() undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned_generator(self, name: str, fn):
        step = self.spanned(name, next)
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            tracer.count(name + ".streams")
            try:
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    tracer.count(name + ".records")
                    yield item
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for modname in MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function under every name the package binds it to."""
        mods = {m: importlib.import_module(m) for m in MODULES}
        for name, (modname, attr) in SPANNED.items():
            fn = getattr(mods[modname], attr)
            self._rebind(fn, self.spanned(name, fn))
        for name, (modname, attr) in GENERATORS.items():
            fn = getattr(mods[modname], attr)
            self._rebind(fn, self.spanned_generator(name, fn))

        # z_prime is an alias of z_prime_digitsum; only calls made through the
        # z_prime name are counted, so z_base's inner loop is not slowed down
        zcount = mods["factzeros.zcount"]
        z_prime = zcount.z_prime
        tracer = self

        def z_prime_counted(p, n):
            tracer.count("zcount.z_prime.calls")
            return z_prime(p, n)

        for modname in ("factzeros", "factzeros.zcount", "factzeros.jumps", "factzeros.image"):
            mod = mods[modname]
            if getattr(mod, "z_prime", None) is z_prime:
                self._saved.append((mod, "z_prime", z_prime))
                mod.z_prime = z_prime_counted

        # BaseSpec.of is not cached itself; the cache sits behind it
        spec_cls = zcount.BaseSpec
        of = vars(spec_cls)["of"]
        of_fn = of.__func__

        def of_counted(cls, b):
            if type(b) is int:
                tracer.count("spec.of_int")
            return of_fn(cls, b)

        self._saved.append((spec_cls, "of", of))
        spec_cls.of = classmethod(of_counted)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    # -- export / merge ---------------------------------------------------

    _ARRAYS = ("span_name", "span_parent", "span_start", "span_end")

    def write(self, path: str) -> None:
        """One JSON header line (names, counters, span count), then the raw span arrays."""
        header = {"names": self.names, "counters": self.counters, "spans": len(self.span_name)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for attr in self._ARRAYS:
                getattr(self, attr).tofile(f)

    def merge_file(self, path: str) -> None:
        """Append the spans another process wrote, remapping names and parent links."""
        other = Tracer()
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            for attr in self._ARRAYS:
                getattr(other, attr).fromfile(f, header["spans"])
        offset = len(self.span_name)
        remap = [self._id(n) for n in header["names"]]
        self.span_name.extend(remap[i] for i in other.span_name)
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in other.span_parent)
        self.span_start.extend(other.span_start)
        self.span_end.extend(other.span_end)
        for key, value in header["counters"].items():
            self.count(key, value)

    # -- summary ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times named after the package's modules."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("d", map(sub, self.span_end, self.span_start))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        nid = self.name_id
        by_name: dict[int, array] = {}
        for i, k in enumerate(names):
            by_name.setdefault(k, array("l")).append(i)

        def ids(*layer: str) -> set[int]:
            return {nid.get(x, -1) for x in layer}

        def spans_of(*layer: str) -> list[int]:
            return [i for k in ids(*layer) for i in by_name.get(k, ())]

        def self_s(idx: list[int]) -> float:
            return sum(dur[i] - child[i] for i in idx)

        def top_calls(idx: list[int], layer: tuple[str, ...]) -> int:
            # entries into the layer: spans whose parent is outside it
            inside = ids(*layer)
            return sum(1 for i in idx if parents[i] < 0 or names[parents[i]] not in inside)

        def p50_us(idx: list[int]) -> float:
            return statistics.median(dur[i] for i in idx) * 1e6 if idx else 0.0

        def children_named(layer: tuple[str, ...], name: str) -> int:
            inside = ids(*layer)
            return sum(1 for i in spans_of(name) if parents[i] >= 0 and names[parents[i]] in inside)

        c = self.counters
        out: dict[str, float] = {}
        fac = spans_of("arithmetic.factorize")
        of_int = c.get("spec.of_int", 0)
        out["arithmetic.factorize.calls"] = len(fac)
        out["arithmetic.factorize.self_s"] = self_s(fac)
        out["arithmetic.factorize.p50_us"] = p50_us(fac)
        out["arithmetic.spec_cache.hit_ratio"] = 1 - len(fac) / of_int if of_int else 0.0

        zb = spans_of("zcount.z_base")
        out["zcount.z_base.calls"] = len(zb)
        out["zcount.z_base.self_s"] = self_s(zb)
        out["zcount.z_base.p50_us"] = p50_us(zb)
        out["zcount.z_prime.calls"] = c.get("zcount.z_prime.calls", 0)

        inv_names = LAYERS["image.inversion"]
        inv = spans_of(*inv_names)
        inv_calls = top_calls(inv, inv_names)
        out["image.inversion.calls"] = inv_calls
        out["image.inversion.self_s"] = self_s(inv)
        out["image.inversion.z_evals_per_call"] = (
            children_named(inv_names, "zcount.z_base") / inv_calls if inv_calls else 0.0
        )

        js = spans_of("jumps.jump_stream")
        records = c.get("jumps.jump_stream.records", 0)
        # each stream evaluates z_base once at its lower end before any candidate
        candidates = children_named(("jumps.jump_stream",), "zcount.z_base")
        candidates -= c.get("jumps.jump_stream.streams", 0)
        out["jumps.jump_stream.records"] = records
        out["jumps.jump_stream.self_s"] = self_s(js)
        out["jumps.candidates_per_record"] = max(candidates, 0) / records if records else 0.0

        for layer in ("image.gaps", "image.density", "image.families"):
            idx = spans_of(*LAYERS[layer])
            out[layer + ".calls"] = top_calls(idx, LAYERS[layer])
            out[layer + ".self_s"] = self_s(idx)

        orc = spans_of("oracle.factorial_trailing_zeros")
        out["oracle.factorial_trailing_zeros.calls"] = len(orc)
        out["oracle.factorial_trailing_zeros.self_s"] = self_s(orc)

        mains = spans_of(CLI_MAIN)
        out["cli.command_ms"] = statistics.median(dur[i] for i in mains) * 1e3 if mains else 0.0
        return out
