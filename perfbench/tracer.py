"""Span recorder for the traced run.

Wraps quatbox's public functions in place, in every module namespace that
binds them (so `quatbox.boxes.run_schedule` and `quatbox.register.run_schedule`
record the same span name).  Each call records its name, start, end, parent
span and the request it belongs to in flat arrays; nothing is written until
the run ends.  Quaternion arithmetic is not wrapped, because a wrapper would
cost more than the product: the traced run counts Hamilton products from
the register sizes instead (`quaternion.hamilton_products`, computed).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every wrapped function; "Class.method" wraps a method
TARGETS = (
    ("qlinalg", "is_unitary"),
    ("qlinalg", "matmul"),
    ("register", "apply_local"),
    ("register", "run_schedule"),
    ("register", "measure_product_basis"),
    ("boxes", "quaternionic_box"),
    ("boxes", "complex_quantum_box"),
    ("boxes", "ideal_pr_box"),
    ("boxes", "classical_box"),
    ("boxes", "noisy_box"),
    ("boxes", "BoxBehavior.__post_init__"),
    ("boxes", "BoxBehavior.sample"),
    ("chsh", "chsh_value"),
    ("chsh", "lhv_optimum"),
    ("vandam", "anf_transform"),
    ("vandam", "verify_exhaustive"),
    ("cli", "main"),
    ("cli", "resolve_box"),
    ("cli", "load_function"),
    ("cli", "render"),
)


#: summary entries that are bookkeeping, not per-layer metrics
INTERNAL = ("spans", "vandam.expected_box_draws")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__post_init__', 'init')}"


class Tracer:
    def __init__(self):
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.span = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_request = -1
        self.counts = {
            "register.amp_updates": 0,
            "quaternion.hamilton_products": 0,
            "vandam.mixed_monomials": 0,
            "vandam.expected_box_draws": 0,
        }
        self._stack: list[int] = []
        #: (owner, attribute, original, wrapper) for every binding patched
        self._patches: list[tuple[object, str, object, object]] = []

    # counts computed from arguments and results, at the same boundaries
    def _on_apply_local(self, args, kwargs, result):
        n = (args[0] if args else kwargs["reg"]).n_parties
        self.counts["register.amp_updates"] += 1 << n
        self.counts["quaternion.hamilton_products"] += 1 << (n + 1)  # 4 per amplitude pair

    def _on_verify(self, args, kwargs, report):
        self.counts["vandam.mixed_monomials"] += report.boxes_used
        self.counts["vandam.expected_box_draws"] += report.n_inputs * report.boxes_used

    def _wrap(self, name_id: int, fn, hook):
        span, parent, request, start, end = self.span, self.parent, self.request, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span)
            span.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if not self._patches:
            self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_patches(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "quatbox" or name.startswith("quatbox."))]
        hooks = {"register.apply_local": self._on_apply_local,
                 "vandam.verify_exhaustive": self._on_verify}
        for name_id, (module, attr) in enumerate(TARGETS):
            owner = sys.modules[f"quatbox.{module}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[method]
            wrapper = self._wrap(name_id, original, hooks.get(self.names[name_id]))
            owners = [(owner, method)] if cls_name else [
                (mod, binding) for mod in modules
                for binding, value in vars(mod).items() if value is original]
            self._patches += [(o, a, original, wrapper) for o, a in owners]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span": np.frombuffer(self.span, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "request": np.frombuffer(self.request, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the computed counts.

        Self time is a span's duration minus its child spans' durations; the
        bookkeeping of a child's wrapper stays in its parent's self time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["span"], minlength=k)
        self_s = np.bincount(a["span"], weights=own, minlength=k)
        out = dict(self.counts)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        sample = self.names.index("boxes.BoxBehavior.sample")
        verify = self.names.index("vandam.verify_exhaustive")
        drawn = (a["span"] == sample) & has_parent
        out["vandam.box_draws"] = int(np.count_nonzero(a["span"][a["parent"][drawn]] == verify))
        out["spans"] = int(dur.size)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
