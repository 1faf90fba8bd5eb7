"""Command-line front end with stable text and JSON output.

Exit codes: 0 on success, 2 on parse or precondition failures, 1 on
internal errors. Output for a fixed input is byte-identical across
runs; every list is emitted in a canonical sort order.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .closures import closure
from .errors import (
    NotInRootLattice,
    ParseError,
    PreconditionViolated,
    RangeError,
    WeylcalcError,
)
from .lweights import LWeight, RootVector, decompose_into_roots, dominance_leq
from .multisegments import (
    Multisegment,
    dual_left,
    dual_right,
    iota_at,
    normal_form,
    weight_of,
)
from .qchars import weyl_dominant_part, weyl_qchar
from .segments import Segment
from .weyl import (
    ext_vanishing,
    hom_dim,
    is_closed,
    socle,
    subcategory_membership,
    weyl_dominant_weights,
)

_SEG_RE = re.compile(r"\[(-?\d+),(-?\d+)\]")
_WFACTOR_RE = re.compile(r"w\[(-?\d+),(-?\d+)\]\^(-?\d+)")


def parse_multisegment(text: str) -> Multisegment:
    """Parse a [i,j][i,j]... literal; whitespace between blocks is allowed."""
    parts = []
    pos, n = 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _SEG_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad multisegment syntax at byte {pos}", pos)
        i, j = int(m.group(1)), int(m.group(2))
        if j < i:
            raise RangeError(f"segment [{i},{j}] at byte {pos} has j < i")
        parts.append(Segment(i, j))
        pos = m.end()
    if not parts:
        raise ParseError("empty multisegment", 0)
    return Multisegment(parts)


def parse_lweight(text: str) -> LWeight:
    """Parse `1` or a `w[i,j]^e * w[i,j]^e * ...` product."""
    if text.strip() == "1":
        return LWeight.identity()
    exps: dict[Segment, int] = {}
    pos, n = 0, len(text)
    first = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise ParseError("empty l-weight", 0)
            break
        if not first:
            if text[pos] != "*":
                raise ParseError(f"expected '*' at byte {pos}", pos)
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        m = _WFACTOR_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad l-weight factor at byte {pos}", pos)
        i, j, e = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if j < i:
            raise RangeError(f"segment [{i},{j}] at byte {pos} has j < i")
        seg = Segment(i, j)
        exps[seg] = exps.get(seg, 0) + e
        pos = m.end()
        first = False
    return LWeight(exps)


def json_segment(seg: Segment) -> list[int]:
    return [seg.i, seg.j]


def json_multisegment(ms: Multisegment) -> list[list[int]]:
    return [json_segment(p) for p in ms]


def json_lweight(w: LWeight) -> list[dict]:
    exps = w.exponents()
    return [
        {"segment": json_segment(seg), "exp": exps[seg]} for seg in sorted(exps)
    ]


def json_rootvector(rv: RootVector) -> list[dict]:
    coefs = rv.coefficients()
    return [
        {"segment": json_segment(seg), "exp": coefs[seg]} for seg in sorted(coefs)
    ]


def json_qchar_terms(terms: dict[LWeight, int]) -> list[dict]:
    ordered = sorted(terms.items(), key=lambda kv: kv[0].sort_key())
    return [{"weight": json_lweight(w), "mult": m} for w, m in ordered]


def _weights_sorted(weights) -> list[LWeight]:
    return sorted(weights, key=LWeight.sort_key)


def _qchar_lines(terms: dict[LWeight, int]) -> str:
    ordered = sorted(terms.items(), key=lambda kv: kv[0].sort_key())
    return "\n".join(f"{m} * {w}" for w, m in ordered)


class _Stdin:
    """Single-shot stdin provider so `-` can stand for at most one argument."""

    def __init__(self):
        self.used = False

    def resolve(self, value: str) -> str:
        if value != "-":
            return value
        if self.used:
            raise ParseError("stdin may substitute at most one argument", 0)
        self.used = True
        return sys.stdin.read()


def _cmd_closure(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    cs = closure(ms, args.rank)
    text = "\n".join(str(t) for t in cs.members)
    payload = {
        "rank": cs.rank,
        "seed": json_multisegment(cs.seed),
        "members": [json_multisegment(t) for t in cs.members],
        "closed": [json_multisegment(t) for t in cs.closed_members],
        "orbit_reps": [json_multisegment(t) for t in cs.orbit_representatives],
    }
    return text, payload


def _cmd_closed(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    res = is_closed(ms, args.rank)
    return ("true" if res else "false"), {"closed": res}


def _cmd_socle(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    summands = socle(ms, args.rank)
    text = "\n".join(f"{s.weight}\t{s.representative}" for s in summands)
    payload = {
        "summands": [
            {
                "weight": json_lweight(s.weight),
                "rep": json_multisegment(s.representative),
            }
            for s in summands
        ]
    }
    return text, payload


def _cmd_hom(args, stdin):
    src = parse_multisegment(stdin.resolve(args.source))
    dst = parse_multisegment(stdin.resolve(args.target))
    d = hom_dim(src, dst, args.rank)
    return str(d), {"hom_dim": d}


def _cmd_dominant_weights(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    weights = _weights_sorted(weyl_dominant_weights(ms, args.rank))
    text = "\n".join(str(w) for w in weights)
    return text, {"weights": [json_lweight(w) for w in weights]}


def _cmd_qchar(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    q = weyl_qchar(ms, args.rank)
    return _qchar_lines(q.terms()), {"terms": json_qchar_terms(q.terms())}


def _cmd_dominant(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    part = weyl_dominant_part(ms, args.rank)
    return _qchar_lines(part), {"terms": json_qchar_terms(part)}


def _cmd_alpha_decompose(args, stdin):
    w = parse_lweight(stdin.resolve(args.lweight))
    try:
        rv = decompose_into_roots(w, args.rank)
    except NotInRootLattice:
        return "not-in-root-lattice", {"in_root_lattice": False, "coefficients": None}
    return str(rv), {"in_root_lattice": True, "coefficients": json_rootvector(rv)}


def _cmd_leq(args, stdin):
    w1 = parse_lweight(stdin.resolve(args.lweight1))
    w2 = parse_lweight(stdin.resolve(args.lweight2))
    res = dominance_leq(w1, w2, args.rank)
    return ("true" if res else "false"), {"leq": res}


def _cmd_dual(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    fn = dual_right if args.side == "right" else dual_left
    out = fn(ms, args.rank)
    return str(out), {"result": json_multisegment(out)}


def _cmd_iota(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    sign = 1 if args.sign == "plus" else -1
    out = iota_at(ms, args.at, sign, args.rank)
    return str(out), {"result": json_multisegment(out)}


def _cmd_normalform(args, stdin):
    ms = parse_multisegment(stdin.resolve(args.multisegment))
    sign = 1 if args.sign == "plus" else -1
    out = normal_form(ms, sign, args.rank)
    weight = weight_of(out, args.rank)
    return str(out), {
        "result": json_multisegment(out),
        "weight": json_lweight(weight),
    }


def _cmd_ext_check(args, stdin):
    ms1 = parse_multisegment(stdin.resolve(args.multisegment1))
    ms2 = parse_multisegment(stdin.resolve(args.multisegment2))
    cert = ext_vanishing(ms1, ms2, args.rank)
    payload = {
        "verdict": cert.verdict.value,
        "shared_weights": [json_lweight(w) for w in cert.shared_weights],
    }
    return cert.verdict.value, payload


def _cmd_subcat(args, stdin):
    base = parse_multisegment(stdin.resolve(args.base))
    w = parse_lweight(stdin.resolve(args.lweight))
    res = subcategory_membership(base, w, args.rank)
    return ("true" if res else "false"), {"member": res}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rank", type=int, required=True, metavar="N", help="ambient rank, N >= 1"
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON object instead of text"
    )

    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Exact multisegment combinatorics for standard modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **positional):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kw in positional.items():
            p.add_argument(arg, **kw)
        p.set_defaults(handler=handler)
        return p

    ms_kw = {"help": "multisegment literal like [0,6][2,7][1,8], or - for stdin"}
    w_kw = {"help": "l-weight literal like w[0,2]^1 * w[1,2]^-1, or 1"}

    add("closure", _cmd_closure, "saturate a tuple; members one per line",
        multisegment=ms_kw)
    add("closed", _cmd_closed, "whether a tuple admits no crossing move",
        multisegment=ms_kw)
    add("socle", _cmd_socle, "socle summand weights with orbit representatives",
        multisegment=ms_kw)
    add("hom", _cmd_hom, "dim Hom between two standard modules",
        source={"help": "multisegment of the source module"},
        target={"help": "multisegment of the target module"})
    add("dominant-weights", _cmd_dominant_weights,
        "dominant l-weight support of a standard module", multisegment=ms_kw)
    add("qchar", _cmd_qchar, "full q-character multiset", multisegment=ms_kw)
    add("dominant", _cmd_dominant, "dominant part of the q-character",
        multisegment=ms_kw)
    add("alpha-decompose", _cmd_alpha_decompose,
        "write an l-weight in the root generators", lweight=w_kw)
    add("leq", _cmd_leq, "dominance order test w1 <= w2",
        lweight1={"help": "left l-weight"}, lweight2={"help": "right l-weight"})
    p = add("dual", _cmd_dual, "partwise dual of a tuple", multisegment=ms_kw)
    p.add_argument("--side", choices=["right", "left"], required=True)
    p = add("iota", _cmd_iota, "one ordering move on a window", multisegment=ms_kw)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--at", type=int, required=True, metavar="P",
                   help="1-based window index")
    p = add("normalform", _cmd_normalform, "full ordering pass",
            multisegment=ms_kw)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    add("ext-check", _cmd_ext_check, "Ext vanishing certificate",
        multisegment1={"help": "first multisegment"},
        multisegment2={"help": "second multisegment"})
    add("subcat", _cmd_subcat, "tensor subcategory membership",
        base={"help": "base multisegment"}, lweight=w_kw)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        # built on first use, not at import, and reused: parse_args keeps
        # no state between calls
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.rank < 1:
            raise PreconditionViolated(f"rank must be >= 1, got {args.rank}")
        text, payload = args.handler(args, _Stdin())
    except WeylcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal invariant failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload) if args.json else text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    return run(argv)
