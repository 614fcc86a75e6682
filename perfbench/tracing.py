"""Span tracing around the public functions of each orbk3 layer.

The tracer wraps functions from outside the library: every module namespace
that holds a traced function (including modules that imported it by name,
such as `cyclotomic` importing `poly_mul`) gets the wrapper, and
`uninstall` restores the originals.  Spans are kept in memory as flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# span name -> (module, qualified attribute) of every traced callable.
# Methods are named "Class.method"; aliases such as Cyclotomic.__rmul__ are
# found by identity and wrapped too.
SPANS = {
    "polyring.mul": [("polyring", "poly_mul")],
    "polyring.divmod": [("polyring", "poly_divmod")],
    "polyring.xgcd": [("polyring", "poly_xgcd")],
    "cyclotomic.mul": [("cyclotomic", "Cyclotomic.__mul__")],
    "cyclotomic.add": [("cyclotomic", "Cyclotomic.__add__")],
    "cyclotomic.inverse": [("cyclotomic", "Cyclotomic.inverse")],
    "cyclotomic.conjugate": [("cyclotomic", "Cyclotomic.conjugate")],
    "cyclotomic.embed": [("cyclotomic", "Cyclotomic.embed")],
    "groups.finite_group": [("groups", "FiniteGroup.__init__")],
    "groups.conjugacy_classes": [("groups", "conjugacy_classes")],
    "groups.character_table": [("groups", "abelian_character_table")],
    "groups.inner_product": [
        ("groups", "char_inner_product"),
        ("groups", "char_inner_product_elementwise"),
    ],
    "lattice.mukai_pairing": [("lattice", "mukai_pairing")],
    "inertia.preset": [("inertia", "preset_cyclic")],
    "inertia.validate_identity": [("inertia", "validate_identity")],
    "inertia.solve": [("inertia", "solve_fixed_points_cyclic")],
    "hrr.pairing": [("hrr", "orbifold_mukai_pairing")],
    "hilbert.dim_mu2": [("hilbert", "dim_mu2")],
    "hilbert.enumerate": [("hilbert", "enumerate_mu2")],
    "toystacks.dft_inverse": [("toystacks", "dft_inverse")],
    "toystacks.parseval_check": [("toystacks", "parseval_check")],
    "toystacks.inner_product": [("toystacks", "weighted_inner_product")],
    "toystacks.wps": [
        ("toystacks", "wps_relation_element"),
        ("toystacks", "wps_euler_class_tangent"),
        ("toystacks", "projective_space_euler_class"),
    ],
    "cli.main": [("cli", "main")],
}


def _count_mul_products(tracer, args, result):
    tracer.counters["polyring.mul.coeff_products"] += len(args[0]) * len(args[1])


def _count_mul_degree(tracer, args, result):
    tracer.counters["cyclotomic.mul.degree_sum"] += len(result.coeffs)


def _count_embed_lift(tracer, args, result):
    if result.L != args[0].L:
        tracer.counters["cyclotomic.embed.lifts"] += 1


def _count_inverse_in_pairing(tracer, args, result):
    if tracer.active["hrr.pairing"]:
        tracer.counters["hrr.pairing.inverses"] += 1


def _count_sector_terms(tracer, args, result):
    tracer.counters["hrr.pairing.sector_terms"] += len(args[0].sectors)


# Extra counts taken at the same boundaries as the spans.
HOOKS = {
    "polyring.mul": _count_mul_products,
    "cyclotomic.mul": _count_mul_degree,
    "cyclotomic.embed": _count_embed_lift,
    "cyclotomic.inverse": _count_inverse_in_pairing,
    "hrr.pairing": _count_sector_terms,
}


class Tracer:
    """Records one span per wrapped call: id, parent, request id, name, start, end.

    Self time (duration minus the time covered by wrapped child spans) and
    call counts are accumulated per span name as the spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the aggregates; recorded spans are kept for the output file."""
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, hook=None):
        """Wrap `fn` so that each call records a span named `name`."""
        tracer = self
        name_id = self._name_id(name)
        stack = self._stack
        active = self.active

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.span_start)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            # reserve the span slot so ids follow call order
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_request.append(tracer.request_id)
            tracer.span_name.append(name_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable in every loaded orbk3 module."""
        modules = [m for key, m in sys.modules.items() if key == "orbk3" or key.startswith("orbk3.")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                cls_name, _, fn_name = attr.rpartition(".")
                owner = sys.modules.get(f"orbk3.{module_name}")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = vars(owner).get(fn_name) if owner is not None else None
                if original is None:
                    continue  # the library no longer has it: the span reports 0 calls
                wrapper = self.span(name, original, HOOKS.get(name))
                for holder in [owner] if cls_name else modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def request(self, request_id: int, kind: str, fn, *args):
        """Run one request under a root span named `request.<kind>`."""
        self.request_id = request_id
        try:
            return self.span("request." + kind, fn)(*args)
        finally:
            self.request_id = -1

    def write(self, path) -> int:
        """Write all spans as tab-separated lines; returns the span count."""
        with open(path, "w") as out:
            out.write("span_id\tparent_id\trequest_id\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                out.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_request[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\n"
                )
        return len(self.span_start)
