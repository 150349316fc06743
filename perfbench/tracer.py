"""Outside-in span tracer for the jamlink package.

The tracer replaces the public functions of each package module with thin
wrappers that record a span per call, plus the harness module's
``ThreadPoolExecutor`` with a subclass that records one ``harness.task``
span per submitted task.  It edits module attributes only while installed
and puts every original object back on exit; the program itself is never
changed.

Each span is ``(id, name, start, end, parent, thread, point)``.  ``parent``
is the enclosing span on the same thread (None for a root), and ``point`` is
the number of ``progress`` callbacks seen when the span started: the harness
finishes each sweep point before it submits the next one, so that number
identifies the point a span worked for.  Spans stay in memory until the
caller reads them.
"""

import inspect
import itertools
import threading
import time
from collections import defaultdict

# Work counts derived from argument sizes, keyed by traced function name.
# Each returns {count name: value}; none of these is measured by hardware.


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _size(x):
    # element count of an array argument; a scalar counts as one
    return int(getattr(x, "size", 1))


def _tone_sum(args, kwargs):
    tones = _size(_arg(args, kwargs, 0, "tone_amps"))
    return {"kernels.tone_sum.ops": tones * int(_arg(args, kwargs, 4, "n"))}


def _gen_tone_sum(args, kwargs):
    return {"signals.gen_tone_sum.samples": int(_arg(args, kwargs, 1, "n"))}


def _compose(args, kwargs):
    n = _size(_arg(args, kwargs, 2, "noise"))
    nsym = _size(_arg(args, kwargs, 3, "amps"))
    # three complex128 sample streams in, one float64 amp in and one
    # float64 energy out per symbol
    return {"kernels.compose_energies.samples": n,
            "kernels.compose_energies.bytes": 48 * n + 16 * nsym}


def _dsss(args, kwargs):
    trials = int(_arg(args, kwargs, 2, "trials"))
    spread = _arg(args, kwargs, 0, "cfg").spread_factor
    return {"baselines.trials": trials, "baselines.chips": trials * spread}


def _fh(args, kwargs):
    return {"baselines.trials": int(_arg(args, kwargs, 2, "trials"))}


def _threshold_evals(prefix):
    def count(args, kwargs):
        return {prefix + ".evals": _size(_arg(args, kwargs, 4, "threshold"))}
    return count


def _quad_nodes(args, kwargs):
    # the sweeps always pass their QuadratureConfig; 4001 is its default.
    # Two Simpson panels per integral: delta2_1 < delta2_2 always holds, so
    # the narrow panel never covers the wide one.
    quad = _arg(args, kwargs, 2, "quad")
    return {"capacity.quad_nodes": 2 * getattr(quad, "points", 4001)}


COUNTERS = {
    "kernels.tone_sum": _tone_sum,
    "signals.gen_tone_sum": _gen_tone_sum,
    "kernels.compose_energies": _compose,
    "baselines.dsss_ber_mc": _dsss,
    "baselines.fh_ber_mc": _fh,
    "theory.ber_det_noncentral": _threshold_evals("theory.ber_det_noncentral"),
    "theory.ber_det": _threshold_evals("theory.ber_det"),
    "capacity.mutual_information": _quad_nodes,
    "capacity.mi_derivative": _quad_nodes,
}

TASK_SPAN = "harness.task"


def public_functions(module):
    """Names of the functions a module exports and defines itself."""
    out = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append(name)
    return out


class Tracer:
    """Records spans around the public functions of the given modules.

    Use as a context manager.  ``progress`` is the callback to hand to a
    sweep so spans carry the point they worked for.
    """

    def __init__(self, modules, executor_module=None):
        self._modules = list(modules)
        self._executor_module = executor_module
        self._saved = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.point = 0

    # -- recording ---------------------------------------------------------

    def progress(self, _message=None):
        self.point += 1

    def reset(self):
        """Drop recorded spans and counts; the wrappers stay installed."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(int)
            self.errors = defaultdict(int)
        self.point = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, counter, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        point = self.point
        stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            with self._lock:
                self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs) if counter else None
            with self._lock:
                self.spans.append((span_id, name, t0, t1, parent,
                                   threading.get_ident(), point))
                if counts:
                    for key, value in counts.items():
                        self.counts[key] += value

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        call = self._call

        def traced(*args, **kwargs):
            return call(name, fn, counter, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _pool_class(self, base):
        wrap = self._wrap

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(wrap(TASK_SPAN, fn), *args, **kwargs)

        return TracedPool

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr, new):
        self._saved.append((module, attr, module.__dict__[attr]))
        setattr(module, attr, new)

    def __enter__(self):
        try:
            for module in self._modules:
                layer = module.__name__.rsplit(".", 1)[-1]
                for attr in public_functions(module):
                    fn = module.__dict__[attr]
                    self._replace(module, attr, self._wrap(f"{layer}.{attr}", fn))
            if self._executor_module is not None:
                base = self._executor_module.__dict__["ThreadPoolExecutor"]
                self._replace(self._executor_module, "ThreadPoolExecutor",
                              self._pool_class(base))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """{span id: duration minus the durations of its direct children}.

    Children run on their parent's thread and nest inside it, so their
    durations never overlap and subtracting their sum is exact.
    """
    child = defaultdict(float)
    for _id, _name, t0, t1, parent, _thread, _point in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}


def summarize(spans, wait_spans=()):
    """Per-name totals and per-layer self time of a list of spans.

    Returns ``(total_s, calls, self_s, layer_self_s)``: inclusive time and
    call count per span name, self time per span name, and self time per
    layer (the part of the name before the first dot).  Spans named in
    ``wait_spans`` spend their self time waiting on other threads, so they
    are left out of the layer totals.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    layer = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        name = span[1]
        total[name] += span[3] - span[2]
        calls[name] += 1
        own[name] += selfs[span[0]]
        if name not in wait_spans:
            layer[name.split(".", 1)[0]] += selfs[span[0]]
    return total, calls, own, layer
