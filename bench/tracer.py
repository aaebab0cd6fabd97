"""Cross-module call tracer for the schramsey layers.

`Tracer.install` replaces every function defined at module level in each
layer module (public and private, so that cross-module calls to helpers
such as `schreier._members` are attributed to the layer doing the work)
with a wrapper, and re-binds the names other layer modules imported with
`from .x import f`.  A wrapper records a span only when the call crosses
into its layer from another layer (or from the benchmark); calls inside
a layer take a fast path that records nothing.  Generator functions get a
span per resumption that crosses a layer boundary.

Spans live in flat in-memory arrays (name id, parent index, start, end,
raised flag) and are written out once, when the job ends.  Self time of
a span is its duration minus the durations of its direct children; the
per-layer self times of one job therefore add up to the duration of the
job's root span exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "ordinal", "schreier", "words", "wxi", "families", "cbindex", "verify")

# Names the per-layer metrics are defined on.  A name that a refactor
# removed or renamed is reported as absent; the metric built on it then
# reads 0 instead of failing the benchmark.
NAMED = {
    "wxi": ("match_reduction",),
    "words": ("reduce_seq", "reduce_word", "finite_reductions", "reduced_words"),
    "verify": (
        "ramsey_schreier_search",
        "ramsey_pair_sweep",
        "carlson_witness_search",
        "subspace_search",
        "hales_jewett_M",
        "nw_fixture_check",
        "check_witness",
    ),
}

BENCH = -1  # layer id of the code that calls into the program


def _own_functions(mod):
    """Module-level functions (and cached functions) defined in mod."""
    for name, obj in vars(mod).items():
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "__wrapped__"):
            yield name, obj


class Tracer:
    def __init__(self, job_id: str = "job"):
        self.job_id = job_id
        self.names: list[str] = []
        self.absent: list[str] = []
        self.cur_layer = BENCH
        self.cur_span = -1
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")

    # -- recording ---------------------------------------------------------
    def call(self, nid: int, lid: int, f, args, kwargs):
        idx = len(self.name_of)
        prev_layer, prev_span = self.cur_layer, self.cur_span
        self.name_of.append(nid)
        self.parent.append(prev_span)
        self.raised.append(0)
        self.end.append(0.0)
        self.cur_layer, self.cur_span = lid, idx
        self.start.append(perf_counter())
        try:
            return f(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self.end[idx] = perf_counter()
            self.cur_layer, self.cur_span = prev_layer, prev_span

    def _wrap(self, lid: int, qualname: str, f):
        nid = len(self.names)
        self.names.append(qualname)
        tracer = self

        if inspect.isgeneratorfunction(f):

            class _Resumed:
                __slots__ = ("it",)

                def __init__(self, it):
                    self.it = it

                def __iter__(self):
                    return self

                def __next__(self):
                    if tracer.cur_layer == lid:
                        return next(self.it)
                    return tracer.call(nid, lid, next, (self.it,), {})

            def wrapper(*args, **kwargs):
                return _Resumed(f(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                if tracer.cur_layer == lid:
                    return f(*args, **kwargs)
                return tracer.call(nid, lid, f, args, kwargs)

        wrapper.__name__ = getattr(f, "__name__", qualname)
        wrapper.__qualname__ = getattr(f, "__qualname__", qualname)
        wrapper.__doc__ = f.__doc__
        wrapper.__module__ = f.__module__
        wrapper.__wrapped__ = f
        return wrapper

    def install(self, package: str = "schramsey") -> None:
        """Wrap the layer modules of `package` in place."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(layer)
        replaced = {}
        for lid, layer in enumerate(LAYERS):
            mod = modules.get(layer)
            if mod is None:
                continue
            for name, f in list(_own_functions(mod)):
                w = self._wrap(lid, f"{layer}.{name}", f)
                replaced[id(f)] = w
                setattr(mod, name, w)
        # names bound by `from .x import f` still point at the originals
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and w is not obj:
                    setattr(mod, name, w)
        for layer, names in NAMED.items():
            mod = modules.get(layer)
            for name in names:
                if mod is None or not hasattr(getattr(mod, name, None), "__wrapped__"):
                    self.absent.append(f"{layer}.{name}")

    def run(self, label: str, f, *args):
        """Call f inside a root span named `label` (the benchmark layer)."""
        nid = len(self.names)
        self.names.append(label)
        return self.call(nid, BENCH, f, args, {})

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as one JSON object (parallel arrays)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": self.job_id,
                    "names": self.names,
                    "absent": self.absent,
                    "name": self.name_of.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "raised": self.raised.tolist(),
                },
                fh,
            )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: dict) -> list[float]:
    """Self time of each span: duration minus its direct children's."""
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    own = list(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            own[p] -= dur[i]
    return own
