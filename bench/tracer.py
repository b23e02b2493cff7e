"""Outside-in span tracer for `cgmkit`.

Wraps the public functions and methods listed in LAYERS from outside the
package. A module that did `from .geometry import volume_of` holds its own
reference, so every `cgmkit` module global (and module-level dict value,
such as `generative.TRAINERS`) bound to the original object is rebound to
the wrapper; methods are wrapped on their class.

Spans are kept in memory as [name, start_ns, end_ns, parent, command] and
written out when the run ends. A span's self time is its duration minus the
durations of its direct child spans; time in unwrapped helpers counts as
self time of the nearest wrapped caller."""

import functools
import importlib
import os
import sys
import time

LAYERS = {
    "stl_io": ("stl_write", "stl_read"),
    "datasets": ("write_dataset", "read_dataset", "read_manifest"),
    "constraints": ("cffd_correct", "volume_constraint_row", "volume_gradient",
                    "constraint_residual", "achieved_value"),
    "geometry": ("FfdLattice.influence", "ffd_map", "is_closed", "volume_of",
                 "synth_shape"),
    "linalg": ("lstsq_min_norm",),
    "generative": ("LinearEnforcer.forward", "LinearEnforcer.backward",
                   "VolumeEnforcer.forward", "VolumeEnforcer.backward",
                   "train_ae", "train_vae", "train_aae", "train_began",
                   "GenerativeModel.decode", "save_model", "load_model"),
    "nn": ("Mlp.forward", "Mlp.backward", "AdamW.step"),
    "reduction": ("pca_fit", "rbf_fit", "gpr_fit", "podi_fit", "as_fit",
                  "fd_gradients", "save_matrix", "load_matrix"),
    "synthfield": ("snapshot_of",),
    "validation": ("metric_report", "jsd"),
    "checkpoint": ("save_tensors", "load_tensors"),
    "cli": ("cmd_generate", "cmd_train", "cmd_sample", "cmd_validate",
            "cmd_surrogate"),
}

SPAN_NAMES = tuple(f"{module}.{qualname}"
                   for module, names in LAYERS.items() for qualname in names)

# file-size counters: span name -> (counter, index of the path argument)
BYTE_COUNTERS = {"stl_io.stl_write": ("stl_io.bytes_written", 1),
                 "stl_io.stl_read": ("stl_io.bytes_read", 0)}

TRAIN_SPANS = ("generative.train_ae", "generative.train_vae",
               "generative.train_aae", "generative.train_began")
ENFORCER_SPANS = ("generative.LinearEnforcer.forward",
                  "generative.LinearEnforcer.backward",
                  "generative.VolumeEnforcer.forward",
                  "generative.VolumeEnforcer.backward")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = None
        self.counters = {counter: 0 for counter, _ in BYTE_COUNTERS.values()}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counter = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, pos = counter
                path = args[pos] if len(args) > pos else kwargs["path"]
                self.counters[key] += os.path.getsize(path)
            return result

        return traced

    def install(self):
        """Wrap every listed function; fail loudly if one is missing."""
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"cgmkit.{module_name}")
            for qualname in names:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                _rebind(original, self.wrap(name, original))

    def totals(self):
        """Per span name: (calls, self seconds)."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for span, own in zip(self.spans, span_self_ns(self.spans)):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        return {name: (calls[name], self_ns[name] / 1e9) for name in SPAN_NAMES}

    def enforcer_share(self):
        """Time inside enforcer forward/backward spans (their geometry calls
        included) under train_* spans, over the summed train_* span time;
        returns (share, base seconds)."""
        train_ns = enforcer_ns = 0
        for name, start, end, parent, _ in self.spans:
            if name in TRAIN_SPANS:
                train_ns += end - start
            elif name in ENFORCER_SPANS and self._under_train(parent):
                enforcer_ns += end - start
        return (enforcer_ns / train_ns if train_ns else 0.0), train_ns / 1e9

    def _under_train(self, index):
        while index >= 0:
            if self.spans[index][0] in TRAIN_SPANS:
                return True
            index = self.spans[index][3]
        return False


def span_self_ns(spans):
    """Self time of each span, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _rebind(original, wrapper):
    """Point every cgmkit global and module-level dict value bound to
    `original` at `wrapper`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("cgmkit"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if dvalue is original:
                        value[dkey] = wrapper
