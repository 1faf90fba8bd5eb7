"""Spans around the public functions of weylcalc, recorded from outside.

A span is [name, start, end, parent, op, note]: parent is the index of the
enclosing span or -1, op is the id of the CLI op that caused it and note is
what the span's observer recorded about its arguments and result.  Spans
stay in memory until the run writes them out.

`from .x import f` copies a binding, so a wrapper is installed on every
weylcalc module attribute that holds the function (closures.closure,
weyl.closure and cli.closure are three bindings of one function).  A name
that does not exist is listed in `missing` and its metrics are left out.

Segment hash and equality get no span: they run millions of times per op
and wrapping them from outside would swamp the run.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter


def _closure_note(args, result, exc):
    if exc is not None:
        return None
    ms, rank = args[0], args[1]
    return len(result.members), len(ms), str(ms), rank


def _fundamental_note(args, result, exc):
    seg, rank = args[0], args[1]
    return seg.length, rank, comb(rank + 1, seg.length)


def _mul_note(args, result, exc):
    return len(args[0]) * len(args[1])


def _dominant_part_note(args, result, exc):
    return (len(args[0]), 0 if result is None else len(result))


def _decompose_note(args, result, exc):
    return type(exc).__name__ == "NotInRootLattice"


# (module.attribute, observer); weyl's entry points are all its public
# functions, whose self time is weyl.self_ms.
PLAN = (
    ("cli.run", None),
    ("cli.build_parser", None),
    ("cli.parse_multisegment", None),
    ("cli.parse_lweight", None),
    ("closures.closure", _closure_note),
    ("closures.is_closed", None),
    ("closures.closed_elements", None),
    ("multisegments.weight_of", None),
    ("multisegments.iota_at", None),
    ("multisegments.normal_form", None),
    ("multisegments.dual_left", None),
    ("multisegments.dual_right", None),
    ("qchars.fundamental_qchar", _fundamental_note),
    ("qchars.weyl_qchar", None),
    ("qchars.QChar.__mul__", _mul_note),
    ("qchars.QChar.dominant_part", _dominant_part_note),
    ("lweights.decompose_into_roots", _decompose_note),
    ("lweights.dominance_leq", None),
    ("weyl.weyl_dominant_weights", None),
    ("weyl.hom_dim", None),
    ("weyl.socle", None),
    ("weyl.ext_vanishing", None),
    ("weyl.subcategory_membership", None),
    ("weyl.is_irreducible_weyl", None),
    ("weyl.weylpermute_check", None),
    ("weyl.mixed_weyl_maps", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if observe is not None:
                    span[5] = observe(args, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if observe is not None:
                span[5] = observe(args, result, None)
            return result

        return traced

    def install(self, plan=PLAN):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "weylcalc" or n.startswith("weylcalc."))]
        for name, observe in plan:
            modname, *path = name.split(".")
            owner = sys.modules.get(f"weylcalc.{modname}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, observe)
            if len(path) > 1:
                # a class attribute has one binding
                self._installed.append((owner, path[-1], fn))
                setattr(owner, path[-1], wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._installed.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._installed):
            setattr(owner, key, fn)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(k)
    out = []
    for k, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[k], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, n_ops, passes, ops_per_pass, missing=()) -> dict:
    """Per-layer metrics: times in ms per op, counts per pass of the op list.

    An inclusive time counts a span only when no enclosing span has a name
    in the same group, so nested calls are not counted twice.
    """
    self_t = self_times(spans)
    names = [s[0] for s in spans]

    def incl_ms(group):
        total = 0.0
        for k, s in enumerate(spans):
            if s[0] not in group:
                continue
            p = s[3]
            while p >= 0 and names[p] not in group:
                p = spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        return 1000 * total / n_ops

    def self_ms(prefix):
        return 1000 * sum(t for t, n in zip(self_t, names) if n.startswith(prefix)) / n_ops

    def notes(name):
        return [s for s in spans if s[0] == name and s[5] is not None]

    def per_pass(x):
        return x / passes

    closures = notes("closures.closure")
    states = sum(n[5][0] for n in closures)
    moves = sum(n[5][0] * comb(n[5][1], 2) for n in closures)
    dup, seen = 0, set()
    for s in closures:
        key = (s[4], s[5][2], s[5][3])
        dup += key in seen
        seen.add(key)
    fund = notes("qchars.fundamental_qchar")
    repeats, seen = 0, set()
    for s in fund:
        key = (s[4] // ops_per_pass, s[5][0], s[5][1])
        repeats += key in seen
        seen.add(key)
    dom = notes("qchars.QChar.dominant_part")
    dom_in = sum(s[5][0] for s in dom)
    decomp = notes("lweights.decompose_into_roots")

    m = {
        "cli.parser_ms": incl_ms({"cli.build_parser"}),
        "cli.parse_ms": incl_ms({"cli.parse_multisegment", "cli.parse_lweight"}),
        "cli.self_ms": self_ms("cli.run"),
        "closures.closure_ms": incl_ms({"closures.closure"}),
        "closures.closure_calls": per_pass(sum(n == "closures.closure" for n in names)),
        "closures.states": per_pass(states),
        "closures.moves_tried": per_pass(moves),
        "closures.move_yield": (states - len(closures)) / moves if moves else 0.0,
        "closures.duplicate_calls": per_pass(dup),
        "closures.is_closed_ms": incl_ms({"closures.is_closed"}),
        "multisegments.weight_of_ms": incl_ms({"multisegments.weight_of"}),
        "multisegments.weight_of_calls": per_pass(
            sum(n == "multisegments.weight_of" for n in names)),
        "multisegments.straighten_ms": incl_ms(set(_STRAIGHTEN)),
        "qchars.fundamental_ms": incl_ms({"qchars.fundamental_qchar"}),
        "qchars.fundamental_calls": per_pass(len(fund)),
        "qchars.fundamental_repeats": per_pass(repeats),
        "qchars.paths": per_pass(sum(s[5][2] for s in fund)),
        "qchars.convolve_ms": incl_ms({"qchars.QChar.__mul__"}),
        "qchars.terms_convolved": per_pass(sum(s[5] for s in notes("qchars.QChar.__mul__"))),
        "qchars.dominant_filter_ms": incl_ms({"qchars.QChar.dominant_part"}),
        "qchars.dominant_yield": sum(s[5][1] for s in dom) / dom_in if dom_in else 0.0,
        "lweights.decompose_ms": incl_ms({"lweights.decompose_into_roots"}),
        "lweights.decompose_calls": per_pass(len(decomp)),
        "lweights.lattice_misses": per_pass(sum(1 for s in decomp if s[5])),
        "weyl.self_ms": self_ms("weyl."),
    }
    missing = set(missing)
    return {k: v for k, v in m.items() if not missing.intersection(SOURCES.get(k, ()))}


_STRAIGHTEN = ("multisegments.iota_at", "multisegments.normal_form",
               "multisegments.dual_left", "multisegments.dual_right")
# the wrapped names each metric needs; weyl.self_ms needs any weyl entry point
SOURCES = {
    "cli.parser_ms": ("cli.build_parser",),
    "cli.parse_ms": ("cli.parse_multisegment", "cli.parse_lweight"),
    "cli.self_ms": ("cli.run",),
    **{k: ("closures.closure",) for k in (
        "closures.closure_ms", "closures.closure_calls", "closures.states",
        "closures.moves_tried", "closures.move_yield", "closures.duplicate_calls")},
    "closures.is_closed_ms": ("closures.is_closed",),
    "multisegments.weight_of_ms": ("multisegments.weight_of",),
    "multisegments.weight_of_calls": ("multisegments.weight_of",),
    "multisegments.straighten_ms": _STRAIGHTEN,
    **{k: ("qchars.fundamental_qchar",) for k in (
        "qchars.fundamental_ms", "qchars.fundamental_calls",
        "qchars.fundamental_repeats", "qchars.paths")},
    "qchars.convolve_ms": ("qchars.QChar.__mul__",),
    "qchars.terms_convolved": ("qchars.QChar.__mul__",),
    "qchars.dominant_filter_ms": ("qchars.QChar.dominant_part",),
    "qchars.dominant_yield": ("qchars.QChar.dominant_part",),
    **{k: ("lweights.decompose_into_roots",) for k in (
        "lweights.decompose_ms", "lweights.decompose_calls", "lweights.lattice_misses")},
}
