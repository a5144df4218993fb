"""Outside-in tracing for the mixsiam benchmark.

The tracer replaces public functions of the mixsiam modules with thin
wrappers for the length of a `with` block, then puts the originals back.
Nothing inside the package changes: a wrapper records a span (name,
start, end, parent) around the call and passes arguments and result
through untouched, so a traced run computes the same bytes as an
untraced one.

A function imported by name into another module (`from .model import
encode`) is a second reference to the same object, so every reference in
every loaded mixsiam module is swapped, not only the defining one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# (module, function) -> span name. The span name is also the layer the
# per-layer metrics group by (see LAYER_OF).
TRACED = {
    ("augment", "make_triplet"): "train.make_triplet",
    ("augment", "augment_view"): "augment.augment_view",
    ("augment", "resize_bilinear"): "augment.resize_bilinear",
    ("augment", "gaussian_blur"): "augment.gaussian_blur",
    ("augment", "mix"): "augment.mix",
    ("model", "encode"): "model.encode",
    ("model", "predict"): "model.predict",
    ("train", "apply_sgd"): "train.apply_sgd",
    ("train", "save_checkpoint"): "train.save_checkpoint",
    ("train", "load_checkpoint"): "train.load_checkpoint",
    ("autodiff", "backward"): "autodiff.backward",
    ("eval", "extract_features"): "eval.extract_features",
    ("eval", "knn_predict"): "eval.knn_predict",
    ("eval", "linear_probe"): "eval.linear_probe",
    ("eval", "params_checksum"): "eval.params_checksum",
    ("data", "load_cifar10"): "data.load_cifar10",
    ("data", "make_synthetic"): "data.make_synthetic",
    ("data", "batches"): "data.batches",
    ("loss", "neg_cosine"): "loss.neg_cosine",
    ("loss", "siam_loss"): "loss.siam_loss",
    ("loss", "aggregate"): "loss.aggregate",
    ("loss", "mix_loss"): "loss.mix_loss",
    ("loss", "total_loss"): "loss.total_loss",
}
AUTODIFF_OPS = ("add", "sub", "mul", "maximum", "relu", "detach", "matmul",
                "add_bias", "tensor_sum", "l2_normalize", "batchnorm", "conv2d",
                "global_avg_pool", "softmax_cross_entropy")
for _op in AUTODIFF_OPS:
    TRACED[("autodiff", _op)] = f"autodiff.fwd.{_op}"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """Collects spans and exact counts while installed.

    Counts are (name, time, value) triples recorded at the same
    boundaries as the spans; the conv2d ones are computed from the
    argument shapes, not measured.
    """

    spans: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def count(self, name, value):
        self.counts.append((name, time.perf_counter(), value))

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per item: the work of a generator happens in next()
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper


def _conv2d_counts(tracer, fn):
    @functools.wraps(fn)
    def conv2d(x, k, stride=1, padding=0):
        bsz, cin, h, w = x.data.shape
        kout, _, kh, kw = k.data.shape
        hout = (h + 2 * padding - kh) // stride + 1
        wout = (w + 2 * padding - kw) // stride + 1
        cols = bsz * hout * wout * cin * kh * kw
        tracer.count("autodiff.conv2d_macs", cols * kout)
        tracer.count("autodiff.im2col_bytes", cols * x.data.dtype.itemsize)
        return fn(x, k, stride=stride, padding=padding)
    return conv2d


def _graph_counts(tracer, graph_fn):
    def Graph(root):
        graph = graph_fn(root)
        # a Graph object with .nodes today; a plain node list also counts
        tracer.count("autodiff.graph_nodes", len(getattr(graph, "nodes", graph)))
        return graph
    return Graph


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "mixsiam" or name.startswith("mixsiam.")]


class Patch:
    """Swap every reference to `orig` in the mixsiam modules for
    `replacement` on enter, and put `orig` back on exit."""

    def __init__(self, orig, replacement):
        self.orig, self.replacement = orig, replacement
        self.sites = []

    def __enter__(self):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is self.orig:
                    setattr(mod, attr, self.replacement)
                    self.sites.append((mod, attr))
        return self

    def __exit__(self, *exc):
        for mod, attr in self.sites:
            setattr(mod, attr, self.orig)
        self.sites = []
        return False


def install(tracer, stack):
    """Enter every tracing patch on `stack` (a contextlib.ExitStack)."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    for (modname, fname), span in TRACED.items():
        orig = getattr(mods[modname], fname)
        wrapped = tracer.wrap(span, orig)
        if (modname, fname) == ("autodiff", "conv2d"):
            wrapped = _conv2d_counts(tracer, wrapped)
        stack.enter_context(Patch(orig, wrapped))
    graph_fn = mods["autodiff"].Graph
    stack.enter_context(Patch(graph_fn, _graph_counts(tracer, graph_fn)))


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
