"""Span tracing of trfield's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module,
and every public method of the layer's public classes, by a wrapper that
records a span.  A function is replaced wherever it is looked up: in its
own module and in every trfield module that imported it by name.
Quadrature routines additionally wrap the integrand they are handed, so
that integrand abscissae are counted and the integrand's time is charged
to the module that defined it, not to ``quadrature``.

A span is ``[name, layer, start, end, parent, job, error]``; spans are
kept in memory and written out by ``dump``.  Counters are updated after a
span ends, from the call's arguments and result, so that counting is not
charged to the layer.
"""

import collections
import functools
import inspect
import json
import sys
import time

import numpy as np

# trfield module -> layer name (metric names must start with a letter)
LAYERS = {
    "trfield.specfun": "specfun", "trfield._fast": "fast",
    "trfield.quadrature": "quadrature", "trfield.matfun": "matfun",
    "trfield.aniso": "aniso", "trfield.kernels": "kernels",
    "trfield.covariance": "covariance", "trfield.simulate": "simulate",
    "trfield.estimate": "estimate", "trfield.cli": "cli",
}


def _size(a):
    return int(np.size(a))


def _pairs(args, kwargs, result):
    n = int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return n * (n + 1) // 2


def _grid_sites(grid):
    return int(np.prod(grid.counts))


def _nodes(igrid):
    return int(np.prod([c - 1 for c in igrid.counts]))


def _spectral_bytes(args, kwargs, result):
    reals = result if isinstance(result, list) else [result]
    return _grid_sites(args[1]) * reals[0].provenance["freq_points"] * 16


def _exact_bytes(args, kwargs, result):
    return (_grid_sites(args[1]) * args[0].spec.n) ** 2 * 8


# qualified function name -> (counter, amount(args, kwargs, result));
# the Gram, MA kernel matrix and spectral phase matrix sizes are computed
# from shapes (simulate.dense_bytes), not measured
COUNTERS = {
    "specfun.bessel_k_batch": ("specfun.bessel_k_batch.args",
                               lambda a, k, r: _size(a[1])),
    "specfun.hyp2f1_batch": ("specfun.hyp2f1_batch.args",
                             lambda a, k, r: _size(a[3])),
    "specfun.bessel_j_batch": ("specfun.bessel_j_batch.args",
                               lambda a, k, r: _size(a[1])),
    "fast.cms_batch": ("fast.cms_batch.variates", lambda a, k, r: _size(r)),
    "fast.ma_matrix_1d": ("fast.ma_matrix_1d.entries",
                          lambda a, k, r: _size(r)),
    "fast.tfsm_matrix": ("fast.tfsm_matrix.entries",
                         lambda a, k, r: _size(r)),
    "aniso.tau_many": ("aniso.tau_many.points",
                       lambda a, k, r: _size(r)),
    "kernels.ScalarPowerCache.batch": ("kernels.power_batch.points",
                                       lambda a, k, r: _size(a[1])),
    "covariance.CovarianceModel.gram": ("covariance.gram.pairs", _pairs),
    "covariance.TFBMCovariance.gram": ("covariance.gram.pairs", _pairs),
    "covariance.CovarianceModel.evaluate": ("covariance.evaluate.calls",
                                            lambda a, k, r: 1),
    "covariance.itofbf_spectral_density": (
        "covariance.spectral_density.points", lambda a, k, r: 1),
    "covariance.ibtofbf_spectral_density": (
        "covariance.spectral_density.points", lambda a, k, r: 1),
    "simulate.gaussian_exact_many": ("simulate.dense_bytes", _exact_bytes),
    "simulate.spectral_synthesis": ("simulate.dense_bytes", _spectral_bytes),
    "simulate.ma_synthesis": (
        "simulate.dense_bytes",
        lambda a, k, r: _grid_sites(a[1]) * _nodes(a[2]) * 8),
    "simulate.tfsm_synthesis": (
        "simulate.dense_bytes",
        lambda a, k, r: _size(a[3]) * _nodes(a[4]) * 8),
}


def _public_callables(module):
    """Yield ``(function, name)`` for a layer module's own public functions
    and ``((class, attribute, function), name)`` for its public classes'
    public methods and class methods."""
    layer = LAYERS[module.__name__]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield (obj, attr, member), f"{layer}.{name}.{attr}"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = None
        self._stack = []
        self._installed = []

    # -- installation ------------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trfield" or name.startswith("trfield.")]
        wrappers = {}
        for module in modules:
            if module.__name__ not in LAYERS:
                continue
            layer = LAYERS[module.__name__]
            for target, qual in _public_callables(module):
                if isinstance(target, tuple):
                    cls, attr, fn = target
                    member = vars(cls)[attr]
                    wrapped = self._wrap(fn, qual, layer)
                    if isinstance(member, classmethod):
                        wrapped = classmethod(wrapped)
                    self._replace(cls, attr, member, wrapped)
                else:
                    wrappers[id(target)] = (target,
                                            self._wrap(target, qual, layer))
        # rebind every module-level name that refers to a wrapped function
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._replace(module, name, obj, wrappers[id(obj)][1])

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    def _replace(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._installed.append((owner, name, original))

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, qual, layer):
        counter = COUNTERS.get(qual)
        wraps_integrand = layer == "quadrature" and "f" in \
            inspect.signature(fn).parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wraps_integrand and args and callable(args[0]) \
                    and not hasattr(args[0], "_perfbench_integrand"):
                args = (self._integrand(args[0]),) + args[1:]
            self.counts[qual + ".calls"] += 1
            self.counts[layer + ".calls"] += 1
            result = self._span(qual, layer, fn, args, kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def _integrand(self, f):
        module = getattr(f, "__module__", "") or ""
        layer = LAYERS.get(module, "other")
        qual = f"{layer}.integrand"

        def integrand(x):
            self.counts["quadrature.nodes"] += _size(x)
            return self._span(qual, layer, f, (x,), {})

        integrand._perfbench_integrand = True
        return integrand

    def _span(self, qual, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [qual, layer, 0.0, 0.0, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[6] = type(exc).__name__
            if parent < 0 or self.spans[parent][1] != layer:
                self.counts[layer + ".fail"] += 1
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    # -- summaries ---------------------------------------------------------
    def self_seconds(self):
        """Layer -> summed span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, job, err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for span, covered in zip(self.spans, child):
            out[span[1]] += span[3] - span[2] - covered
        return out

    def dump(self, path):
        keys = ("name", "layer", "start", "end", "parent", "job", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
