"""Span tracing of grassgb's layers from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a wrapper that records one span per call: (name, start, end, parent span,
op id).  A module function is replaced in every ``grassgb`` namespace that
bound it at import time (``cli.normal_form``, ``steenrod.normal_form``,
``grassgb.normal_form`` ...); a method is replaced on its class.  Spans stay
in memory until ``layer_metrics`` folds them into per-layer figures.

Span names are ``<module>`` or ``<module>.<part>``; the module is the layer.
``combinatorics`` is deliberately not wrapped: it is called millions of
times per run, so its time stays in the self time of ``groebner_family``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute); an attribute "Class.method" patches the class
TARGETS = [
    ("cli", "grassgb.cli", "run"),
    ("f2poly.enum", "grassgb.f2poly", "monomials_of_weighted_degree"),
    ("f2poly.mul", "grassgb.f2poly", "Poly.__mul__"),
    ("f2poly.mul", "grassgb.f2poly", "Poly.__pow__"),
    ("f2poly.mul", "grassgb.f2poly", "Poly.square"),
    ("f2poly.text", "grassgb.f2poly", "parse"),
    ("f2poly.text", "grassgb.f2poly", "format_poly"),
    ("dual_classes", "grassgb.dual_classes", "wbar_recurrence"),
    ("dual_classes", "grassgb.dual_classes", "wbar_explicit"),
    ("groebner_family.element", "grassgb.groebner_family", "GroebnerFamily.element"),
    ("groebner_family", "grassgb.groebner_family", "build_family"),
    ("groebner_family", "grassgb.groebner_family", "g_direct"),
    ("groebner_family", "grassgb.groebner_family", "g_closed_form"),
    ("groebner_family", "grassgb.groebner_family", "g_recurrence_step"),
    ("cohomology.normal_form", "grassgb.cohomology", "normal_form"),
    ("cohomology", "grassgb.cohomology", "cup"),
    ("cohomology", "grassgb.cohomology", "is_zero"),
    ("cohomology", "grassgb.cohomology", "standard_basis"),
    ("steenrod.sq", "grassgb.steenrod", "sq"),
    ("steenrod", "grassgb.steenrod", "sq_on_generator"),
    ("steenrod.tensor_square", "grassgb.steenrod", "tensor_square_sw"),
    ("steenrod", "grassgb.steenrod", "normal_bundle_sw"),
    ("steenrod", "grassgb.steenrod", "immersion_obstruction_check"),
    ("buchberger_oracle.buchberger", "grassgb.buchberger_oracle", "buchberger"),
    ("buchberger_oracle.reduce_basis", "grassgb.buchberger_oracle", "reduce_basis"),
    ("buchberger_oracle", "grassgb.buchberger_oracle", "s_polynomial"),
    ("buchberger_oracle", "grassgb.buchberger_oracle", "oracle_reduce"),
    ("buchberger_oracle", "grassgb.buchberger_oracle", "oracle_equals_family"),
]

# what each span records besides its times; called with (args, result)
def _element_info(args, result):
    family, m = args[0], tuple(args[1])
    return (family.context.k, family.context.n, m, len(result))


def _sizes_info(args, result):
    return (len(args[0]), len(result))


def _normal_form_info(args, result):
    return (len(args[1]), len(result.value))


_INFO = {
    "groebner_family.element": _element_info,
    "cohomology.normal_form": _normal_form_info,
    "buchberger_oracle.buchberger": _sizes_info,
    "buchberger_oracle.reduce_basis": _sizes_info,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.infos: dict[int, tuple] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, infos, stack = self.spans, self.infos, self._stack
        clock = time.perf_counter
        info = _INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, tracer.op_id)
                stack.pop()
            if info is not None:
                infos[idx] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "grassgb" or key.startswith("grassgb.")
        ]
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()


def _partition_counts(k: int, top: int) -> list[int]:
    """counts[d] = number of exponent tuples (a_1..a_k) with sum j*a_j = d."""
    counts = [1] + [0] * top
    for part in range(1, k + 1):
        for d in range(part, top + 1):
            counts[d] += counts[d - part]
    return counts


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans into the per-layer metrics of one pass."""
    spans, infos = tracer.spans, tracer.infos
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    entries: dict[str, int] = defaultdict(int)  # calls from outside the same name
    entries_layer: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        self_by_name[name] += end - start - child[idx]
        count[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name != name:
            entries[name] += 1
        if parent_name.split(".")[0] != name.split(".")[0]:
            entries_layer[name.split(".")[0]] += 1
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_by_name.items():
        layer_self[name.split(".")[0]] += value

    # groebner_family: distinct g_M materialised, and kept / enumerated terms
    elements: dict[tuple, int] = {}
    steps = 0
    for idx, info in infos.items():
        if spans[idx][0] != "groebner_family.element":
            continue
        k, n, m, size = info
        elements[(k, n, m)] = size
        parent = spans[idx][3]
        while parent >= 0 and spans[parent][0] != "cohomology.normal_form":
            parent = spans[parent][3]
        steps += parent >= 0
    # g_M is homogeneous of weighted degree n+1+sum_j j*m_{j+1}; count all
    # monomials of that degree independently of the package's enumerator
    degrees = [
        (k, n + 1 + sum(j * x for j, x in enumerate(m, start=1)))
        for k, n, m in elements
    ]
    tables = {
        k: _partition_counts(k, max(d for kk, d in degrees if kk == k))
        for k in {k for k, _ in degrees}
    }
    enumerated = sum(tables[k][d] for k, d in degrees)
    terms_out = sum(elements.values())

    def pair_sum(name, slot):
        return sum(v[slot] for i, v in infos.items() if spans[i][0] == name)

    calls = count["groebner_family.element"]
    raw = pair_sum("buchberger_oracle.reduce_basis", 0)
    return {
        "cli.self_s": layer_self["cli"],
        "f2poly.enum.calls": entries["f2poly.enum"],
        "f2poly.enum.self_s": self_by_name["f2poly.enum"],
        "f2poly.mul.calls": entries["f2poly.mul"],
        "f2poly.mul.self_s": self_by_name["f2poly.mul"],
        "f2poly.text.self_s": self_by_name["f2poly.text"],
        "dual_classes.calls": entries_layer["dual_classes"],
        "dual_classes.self_s": layer_self["dual_classes"],
        "groebner_family.self_s": layer_self["groebner_family"],
        "groebner_family.element_calls": calls,
        "groebner_family.elements": len(elements),
        "groebner_family.hit_ratio": 1 - len(elements) / calls if calls else 0.0,
        "groebner_family.terms_out": terms_out,
        "groebner_family.kept_ratio": terms_out / enumerated if enumerated else 0.0,
        "cohomology.calls": entries_layer["cohomology"],
        "cohomology.self_s": layer_self["cohomology"],
        "cohomology.reduction_steps": steps,
        "cohomology.terms_in": pair_sum("cohomology.normal_form", 0),
        "cohomology.terms_out": pair_sum("cohomology.normal_form", 1),
        "steenrod.self_s": layer_self["steenrod"],
        "steenrod.sq.calls": count["steenrod.sq"],
        "steenrod.tensor_square.self_s": self_by_name["steenrod.tensor_square"],
        "buchberger_oracle.self_s": layer_self["buchberger_oracle"],
        "buchberger_oracle.buchberger.self_s": self_by_name["buchberger_oracle.buchberger"],
        "buchberger_oracle.reduce_basis.self_s": self_by_name[
            "buchberger_oracle.reduce_basis"
        ],
        "buchberger_oracle.raw_basis": pair_sum("buchberger_oracle.buchberger", 1),
        "buchberger_oracle.kept_ratio": (
            pair_sum("buchberger_oracle.reduce_basis", 1) / raw if raw else 0.0
        ),
        "trace.layer_self_s": sum(layer_self.values()),
    }
