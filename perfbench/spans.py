"""Spans recorded from outside the program, and the per-layer metrics built on them.

``instrument(tracer)`` replaces the public functions of the morphmix layers
with wrappers that open a span around each call, and restores them on exit.
Every module attribute bound to a wrapped function is replaced, so
``from .audio_io import load_wav`` call sites are traced too. numpy's
``rfft`` and ``irfft`` are counted, not timed, on the nearest enclosing
``augment_pair`` or ``mock_*`` span.

Spans are kept in memory. Parents follow a stack per thread; a thread whose
stack is empty (a worker of ``build --jobs``) takes the innermost open span
of the thread that created the tracer as its parent.
"""

import contextlib
import os
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "item", "attrs")

    def __init__(self, name, start, end=None, parent=None, thread=0, item=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.item = item
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._main = threading.get_ident()
        self._stacks = {}

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name, item=None, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        if item is None and parent is not None:
            item = parent.item
        span = Span(name, 0.0, parent=parent, thread=threading.get_ident(), item=item, attrs=attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def enclosing(self, prefixes):
        """Innermost open span on this thread whose name starts with one of prefixes."""
        for span in reversed(self._stack()):
            if span.name.startswith(prefixes):
                return span
        return None


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def _audio_s(w):
    return w.n_samples / w.sample_rate


def _augment_attrs(args, kwargs):
    primary = _arg(args, kwargs, 0, "primary")
    return {"mode": _arg(args, kwargs, 2, "mode").value, "audio_s": _audio_s(primary),
            "prime": _is_prime(primary.n_samples), "fft_calls": 0, "fft_points": 0}


def _embed_attrs(args, kwargs):
    return {"audio_s": _audio_s(_arg(args, kwargs, 0, "w")), "fft_calls": 0, "fft_points": 0}


def _put_after(span, args, kwargs, result):
    span.attrs["index_bytes"] = os.path.getsize(args[0].root / args[0].INDEX)


# (module, attribute, span name, item from args, attrs before the call, hook after it)
def _targets():
    from morphmix import audio_io, dataset, dsp, evaluate, kernels, metrics, store

    def load_wav_attrs(args, kwargs):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    def save_wav_after(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))

    plain = [(dsp, f) for f in ("equal_power_mix", "rms_envelope", "apply_rms_envelope",
                                "spectral_interpolate", "peak_normalize")]
    plain += [(kernels, f) for f in ("frame_rms", "interp_frame_gains", "moving_average")]
    plain += [(dataset, "build_dataset"), (store, "read_mxeb")]
    plain += [(metrics, f) for f in ("lcs", "cosine_sim", "gaussian_stats", "frechet_distance")]
    plain += [(evaluate, f) for f in ("evaluate_corpus", "render_report")]
    short = lambda mod: mod.__name__.rsplit(".", 1)[-1]  # noqa: E731
    targets = [(mod, f, f"{short(mod)}.{f}", None, None, None) for mod, f in plain]
    targets += [
        (audio_io, "load_wav", "audio_io.load_wav",
         lambda a, k: Path(_arg(a, k, 0, "path")).stem, load_wav_attrs, None),
        (audio_io, "save_wav", "audio_io.save_wav",
         lambda a, k: Path(_arg(a, k, 1, "path")).stem, None, save_wav_after),
        (dsp, "augment_pair", "dsp.augment_pair", None, _augment_attrs, None),
        (metrics, "mock_embed", "metrics.mock_embed", None, _embed_attrs, None),
        (metrics, "mock_latents", "metrics.mock_latents", None, _embed_attrs, None),
        (evaluate, "score_clip", "evaluate.score_clip",
         lambda a, k: _arg(a, k, 0, "clip").clip_id, None, None),
        (store.EmbeddingStore, "__init__", "store.open", None, None, None),
        (store.EmbeddingStore, "put", "store.put",
         lambda a, k: _arg(a, k, 1, "entry_id"), None, _put_after),
    ]
    return targets


def _wrap(tracer, fn, name, item_of, attrs_of, after):
    def wrapper(*args, **kwargs):
        attrs = attrs_of(args, kwargs) if attrs_of else {}
        span = tracer.open(name, item_of(args, kwargs) if item_of else None, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            after(span, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _fft_counter(tracer, fn, inverse):
    def wrapper(a, n=None, axis=-1, *args, **kwargs):
        span = tracer.enclosing(("dsp.augment_pair", "metrics.mock_"))
        if span is not None:
            shape = np.shape(a)
            length = n if n is not None else (2 * (shape[axis] - 1) if inverse else shape[axis])
            span.attrs["fft_calls"] += 1
            span.attrs["fft_points"] += length * (int(np.prod(shape)) // max(shape[axis], 1))
        return fn(a, n, axis, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer):
    """Trace every morphmix layer boundary into tracer for the duration of the block."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "morphmix" or name.startswith("morphmix."))]
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, original, replacement):
        patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    for owner, attr, name, item_of, attrs_of, after in _targets():
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, item_of, attrs_of, after)
        if isinstance(owner, type):
            patch(owner, attr, original, wrapper)
            continue
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, alias, original, wrapper)
    for attr, inverse in (("rfft", False), ("irfft", True)):
        original = getattr(np.fft, attr)
        patch(np.fft, attr, original, _fft_counter(tracer, original, inverse))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# --- span arithmetic ---

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def self_time(span, kids):
    """Duration minus the union of the children's intervals, clipped to the span."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in kids.get(id(span), [])]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


def parallel_efficiency(span, kids, jobs):
    """Summed busy time of span's children over (span wall time x jobs)."""
    return sum(c.duration for c in kids.get(id(span), [])) / (span.duration * jobs)


def overhead_frac(traced_s, untraced_s):
    """Traced median pass time over untraced median, minus 1."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0


def has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q / 100 * len(ordered))) - 1))]


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics that count work; they must repeat exactly from pass to pass and run to run.
EXACT = ("dsp.fft.calls", "dsp.fft.points", "metrics.fft.calls",
         "store.index_bytes_written", "evaluate.reads_per_clip")


def is_exact(name):
    return name.endswith(".calls") or name in EXACT


def layer_metrics(spans, jobs):
    """Per-layer metrics of one traced pass (plus the spans of its set-up)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    kids = children_of(spans)
    busy = lambda n: sum(s.duration for s in by.get(n, []))  # noqa: E731
    calls = lambda n: len(by.get(n, []))  # noqa: E731
    m = {}

    for f in ("load_wav", "save_wav"):
        n = f"audio_io.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.busy_s"] = busy(n)
        m[f"{n}.mb_per_s"] = _ratio(sum(s.attrs["bytes"] for s in by.get(n, [])) / 1e6, busy(n))

    aug = by.get("dsp.augment_pair", [])
    for mode in ("rms", "spectral", "both"):
        sel = [s for s in aug if s.attrs["mode"] == mode]
        m[f"dsp.augment_pair.{mode}.calls"] = len(sel)
        # prime lengths have their own metric, so a change to the FFT length
        # for them does not show up as a change of the mode
        sel = [s for s in sel if not s.attrs["prime"]]
        m[f"dsp.augment_pair.{mode}.ms_per_audio_s"] = _ratio(
            1e3 * sum(s.duration for s in sel), sum(s.attrs["audio_s"] for s in sel))
    prime = [s for s in aug if s.attrs["prime"]]
    m["dsp.augment_pair.prime.ms_per_audio_s"] = _ratio(
        1e3 * sum(s.duration for s in prime), sum(s.attrs["audio_s"] for s in prime))
    for f in ("equal_power_mix", "rms_envelope", "apply_rms_envelope",
              "spectral_interpolate", "peak_normalize"):
        m[f"dsp.{f}.busy_s"] = busy(f"dsp.{f}")
    m["dsp.fft.calls"] = sum(s.attrs["fft_calls"] for s in aug)
    m["dsp.fft.points"] = sum(s.attrs["fft_points"] for s in aug)

    for f in ("frame_rms", "interp_frame_gains", "moving_average"):
        m[f"kernels.{f}.calls"] = calls(f"kernels.{f}")
        m[f"kernels.{f}.busy_s"] = busy(f"kernels.{f}")

    builds = by.get("dataset.build_dataset", [])
    m["dataset.build_dataset.busy_s"] = busy("dataset.build_dataset")
    m["dataset.self_s"] = sum(self_time(s, kids) for s in builds)
    m["dataset.parallel_efficiency"] = (
        statistics.mean(parallel_efficiency(s, kids, jobs) for s in builds) if builds else 0.0)

    for f in ("mock_embed", "mock_latents"):
        n = f"metrics.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.busy_s"] = busy(n)
        m[f"{n}.ms_per_audio_s"] = _ratio(1e3 * busy(n), sum(s.attrs["audio_s"] for s in by.get(n, [])))
    m["metrics.fft.calls"] = sum(
        s.attrs["fft_calls"] for f in ("mock_embed", "mock_latents") for s in by.get(f"metrics.{f}", []))
    for f in ("lcs", "cosine_sim", "gaussian_stats", "frechet_distance"):
        m[f"metrics.{f}.busy_s"] = busy(f"metrics.{f}")

    puts = sorted(by.get("store.put", []), key=lambda s: s.start)
    put_ms = [1e3 * s.duration for s in puts]
    tenth = max(len(put_ms) // 10, 1)
    m["store.put.calls"] = len(puts)
    m["store.put.busy_s"] = busy("store.put")
    m["store.put.p50_ms"] = percentile(put_ms, 50)
    m["store.put.p99_ms"] = percentile(put_ms, 99)
    m["store.put.growth"] = _ratio(statistics.mean(put_ms[-tenth:]),
                                   statistics.mean(put_ms[:tenth])) if puts else 0.0
    m["store.index_bytes_written"] = sum(s.attrs["index_bytes"] for s in puts)
    reads = by.get("store.read_mxeb", [])
    read_ms = [1e3 * s.duration for s in reads]
    m["store.read_mxeb.calls"] = len(reads)
    m["store.read_mxeb.busy_s"] = busy("store.read_mxeb")
    m["store.read_mxeb.p50_ms"] = percentile(read_ms, 50)
    m["store.read_mxeb.p99_ms"] = percentile(read_ms, 99)
    m["store.open.busy_s"] = busy("store.open")

    for f in ("evaluate_corpus", "score_clip", "render_report"):
        m[f"evaluate.{f}.busy_s"] = busy(f"evaluate.{f}")
    m["evaluate.self_s"] = sum(self_time(s, kids) for s in spans if s.name.startswith("evaluate."))
    m["evaluate.reads_per_clip"] = _ratio(
        sum(1 for s in reads if has_ancestor(s, "evaluate.evaluate_corpus")), calls("evaluate.score_clip"))

    m["cli.main.busy_s"] = busy("cli.main")
    m["cli.self_s"] = sum(self_time(s, kids) for s in by.get("cli.main", []))
    return m


def combine(per_pass):
    """One value per metric across traced passes: exact counts must agree, the rest is the median."""
    out, mismatched = {}, []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if is_exact(name):
            if len(set(values)) > 1:
                mismatched.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, mismatched
