"""Command-line front end with stable text and JSON output.

Each subcommand is one `Command` row of `COMMANDS`. `run` reads canonical
argv from the table itself and any other through a fresh argparse parser
from `build_parser`, so argparse words every message. It then
parses the positionals in order (`-` reads stdin, at most once, just before
its parse), computes, and calls only the renderer that `--json` selects.
Rows, and `weyl` and `qchars` for their one lazily loaded helper each, read
a function off its module at call time (`_lib.weyl.socle`), so wrappers and
patches there are seen, and a call loads only the modules it reads.

Exit codes: 0 on success, 2 on parse or precondition failures, 1 on
internal errors. Output for a fixed input is byte-identical across
runs; every list is emitted in a canonical sort order.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import (
    NotInRootLattice,
    ParseError,
    PreconditionViolated,
    RangeError,
    WeylcalcError,
)
from .lweights import LWeight
from .multisegments import Multisegment
from .segments import Segment

if TYPE_CHECKING:
    import argparse

    from .qchars import QChar

_lib = sys.modules[__package__]  # the package: _lib.qchars loads qchars on first use

# Tokens tile the text: whitespace, then a part or factor, or one other character.
_MS_TOKEN = re.compile(r"\s*(?:\[(-?\d+),(-?\d+)\]|(\S))")
_W_TOKEN = re.compile(r"\s*(?:w\[(-?\d+),(-?\d+)\]\^(-?\d+)|(\S))")


def _reject(token: re.Pattern, text: str, sep: str, what: str, empty: str):
    """Raise a rejected literal's first error; offsets count UTF-8 bytes."""
    for k, m in enumerate(token.finditer(text)):
        tok = m[0].lstrip()
        at = len(text[:m.end() - len(tok)].encode())
        if sep and k % 2:  # factors and sep alternate
            if tok != sep:
                raise ParseError(f"expected '{sep}' at byte {at}", at)
        elif not m[1]:
            raise ParseError(f"bad {what} at byte {at}", at)
        elif (i := int(m[1])) > (j := int(m[2])):
            raise RangeError(f"segment [{i},{j}] at byte {at} has j < i")
    if not token.match(text):  # else every token fit and the text ends in sep
        raise ParseError(empty, 0)
    raise ParseError(f"bad {what} at byte {len(text.encode())}", len(text.encode()))


def parse_multisegment(text: str) -> Multisegment:
    """Parse a [i,j][i,j]... literal; whitespace between blocks is allowed."""
    found = _MS_TOKEN.findall(text)
    try:  # a character's empty groups fail int(); a reversed part is dropped
        parts = [tuple.__new__(Segment, (a, b)) for i, j, _ in found
                 if (a := int(i)) <= (b := int(j))]
    except ValueError:
        parts = ()
    if parts and len(parts) == len(found):
        return tuple.__new__(Multisegment, parts)
    _reject(_MS_TOKEN, text, "", "multisegment syntax", "empty multisegment")


def parse_lweight(text: str) -> LWeight:
    """Parse `1` or a `w[i,j]^e * w[i,j]^e * ...` product."""
    if text.strip() == "1":
        return LWeight.identity()
    found = _W_TOKEN.findall(text)
    try:  # factors at even tokens: another character there fails int(); LWeight int()s e
        pairs = [(tuple.__new__(Segment, (a, b)), e) for i, j, e, _ in found[::2]
                 if (a := int(i)) <= (b := int(j))]
    except ValueError:
        pairs = ()
    if pairs and found[1::2] == [("", "", "", "*")] * (len(pairs) - 1):
        return LWeight(pairs)
    _reject(_W_TOKEN, text, "*", "l-weight factor", "empty l-weight")


def _json_factor(f: tuple) -> dict:
    return {"segment": [f[0], f[1]], "exp": f[2]}


def json_lweight(w) -> list[dict]:
    """Sorted factors of an LWeight or a RootVector as segment/exp records."""
    return list(map(_json_factor, w.sort_key()))


def json_qchar_terms(q: QChar) -> list[dict]:
    """Terms of a QChar by sort_key, one record per distinct factor."""
    return [{"weight": fs, "mult": m} for fs, m in q._rows(_json_factor)]


class Command(NamedTuple):
    name: str
    help: str
    positionals: tuple  # (dest, "ms" | "w", help) in argument order
    compute: Callable  # (args, *parsed positionals) -> result
    render: tuple  # (text, json): result -> str, result -> JSON object
    options: tuple = ()  # keys of _OPTIONS


_MS = "multisegment literal like [0,6][2,7][1,8], or - for stdin"
_W = "l-weight literal like w[0,2]^1 * w[1,2]^-1, or 1"
_ONE_MS = (("multisegment", "ms", _MS),)
_SIGN = {"plus": 1, "minus": -1}
_OPTIONS = {
    "--rank": {"type": int, "required": True, "metavar": "N",
               "help": "ambient rank, N >= 1"},
    "--side": {"choices": ["right", "left"], "required": True},
    "--sign": {"choices": list(_SIGN), "required": True},
    "--at": {"type": int, "required": True, "metavar": "P",
             "help": "1-based window index"},
}


def _truth(key: str) -> tuple:
    return (lambda r: "true" if r else "false", lambda r: {key: r})


def _closure_json(cs) -> dict:
    return {
        "rank": cs.rank,
        "seed": cs.seed,
        "members": cs.members,
        "closed": cs.closed_members,
        "orbit_reps": cs.orbit_representatives,
    }


def _decompose_or_none(args, w):
    try:
        return _lib.lweights.decompose_into_roots(w, args.rank)
    except NotInRootLattice:
        return None


def _weighed_normal_form(args, ms):
    m = _lib.multisegments
    out = m.normal_form(ms, _SIGN[args.sign], args.rank)
    return out, m.weight_of(out, args.rank)


_QCHAR = (str, lambda q: {"terms": json_qchar_terms(q)})
_RESULT = (str, lambda ms: {"result": ms})

COMMANDS = (
    Command("closure", "saturate a tuple; members one per line", _ONE_MS,
            lambda a, ms: _lib.closures.closure(ms, a.rank), (str, _closure_json)),
    Command("closed", "whether a tuple admits no crossing move", _ONE_MS,
            lambda a, ms: _lib.closures.is_closed(ms, a.rank), _truth("closed")),
    Command("socle", "socle summand weights with orbit representatives", _ONE_MS,
            lambda a, ms: _lib.weyl.socle(ms, a.rank),
            (lambda ss: "\n".join([f"{s.weight}\t{s.representative}" for s in ss]),
             lambda ss: {"summands": [{"weight": json_lweight(s.weight),
                                       "rep": s.representative}
                                      for s in ss]})),
    Command("hom", "dim Hom between two standard modules",
            (("source", "ms", "multisegment of the source module"),
             ("target", "ms", "multisegment of the target module")),
            lambda a, src, dst: _lib.weyl.hom_dim(src, dst, a.rank),
            (str, lambda d: {"hom_dim": d})),
    Command("dominant-weights", "dominant l-weight support of a standard module",
            _ONE_MS, lambda a, ms: _lib.qchars._weight_keys(
                _lib.multisegments.sort_plus(ms), a.rank),
            (lambda q: q._lines(LWeight._factor, " * "),
             lambda q: {"weights": [fs for fs, _ in q._rows(_json_factor)]})),
    Command("qchar", "full q-character multiset", _ONE_MS,
            lambda a, ms: _lib.qchars.weyl_qchar(ms, a.rank), _QCHAR),
    Command("dominant", "dominant part of the q-character", _ONE_MS,
            lambda a, ms: _lib.qchars._dominant(ms, a.rank), _QCHAR),
    Command("alpha-decompose", "write an l-weight in the root generators",
            (("lweight", "w", _W),), _decompose_or_none,
            (lambda rv: "not-in-root-lattice" if rv is None else str(rv),
             lambda rv: {"in_root_lattice": rv is not None,
                         "coefficients": None if rv is None else json_lweight(rv)})),
    Command("leq", "dominance order test w1 <= w2",
            (("lweight1", "w", "left l-weight"), ("lweight2", "w", "right l-weight")),
            lambda a, w1, w2: _lib.lweights.dominance_leq(w1, w2, a.rank), _truth("leq")),
    Command("dual", "partwise dual of a tuple", _ONE_MS,
            lambda a, ms: getattr(_lib.multisegments, "dual_" + a.side)(ms, a.rank),
            _RESULT, ("--side",)),
    Command("iota", "one ordering move on a window", _ONE_MS,
            lambda a, ms: _lib.multisegments.iota_at(ms, a.at, _SIGN[a.sign], a.rank),
            _RESULT, ("--sign", "--at")),
    Command("normalform", "full ordering pass", _ONE_MS, _weighed_normal_form,
            (lambda r: str(r[0]),
             lambda r: {"result": r[0],
                        "weight": json_lweight(r[1])}),
            ("--sign",)),
    Command("ext-check", "Ext vanishing certificate",
            (("multisegment1", "ms", "first multisegment"),
             ("multisegment2", "ms", "second multisegment")),
            lambda a, ms1, ms2: _lib.weyl.ext_vanishing(ms1, ms2, a.rank),
            (lambda c: c.verdict.value,
             lambda c: {"verdict": c.verdict.value,
                        "shared_weights": [json_lweight(w)
                                           for w in c.shared_weights]})),
    Command("subcat", "tensor subcategory membership",
            (("base", "ms", "base multisegment"), ("lweight", "w", _W)),
            lambda a, base, w: _lib.weyl.subcategory_membership(base, w, a.rank),
            _truth("member")),
)


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Exact multisegment combinatorics for standard modules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", **_OPTIONS["--rank"])
    common.add_argument(
        "--json", action="store_true", help="emit a JSON object instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, parents=[common], help=cmd.help)
        for dest, _, help_text in cmd.positionals:
            p.add_argument(dest, help=help_text)
        for opt in cmd.options:
            p.add_argument(opt, **_OPTIONS[opt])
        p.set_defaults(spec=cmd)
    return parser


_BY_NAME = {cmd.name: cmd for cmd in COMMANDS}
# ASCII: int() also reads ' 3' and '3_0', and rejects '²', which isdigit() accepts
_INT_RE = re.compile(r"-?[0-9]+")


def _read(argv) -> Optional[SimpleNamespace]:
    """parse_args's namespace for a canonical argv, or None to ask argparse.

    Canonical: the subcommand name; `--rank N`, `--json` and the command's
    options, each once and with one value; then exactly its positionals.
    """
    cmd = _BY_NAME.get(argv[0]) if argv else None
    if cmd is None:
        return None
    valued = {o: _OPTIONS[o] for o in ("--rank", *cmd.options)}
    out = {"command": cmd.name, "json": False, "spec": cmd}
    rest = list(argv[1:])
    while rest and rest[0].startswith("--"):
        opt = rest.pop(0)
        if opt == "--json" and not out["json"]:
            out["json"] = True
            continue
        if opt not in valued or not rest:
            return None
        spec, value = valued.pop(opt), rest.pop(0)
        if spec.get("type") is int and _INT_RE.fullmatch(value):
            value = int(value)
        elif value not in spec.get("choices", ()):
            return None
        out[opt[2:]] = value
    flags = [t for t in rest if t.startswith("-") and t != "-"]  # -h, --, -x
    if valued or flags or len(rest) != len(cmd.positionals):
        return None
    out.update(zip([dest for dest, _, _ in cmd.positionals], rest))
    return SimpleNamespace(**out)


def run(argv: Optional[list[str]] = None) -> int:
    args = (_read(sys.argv[1:] if argv is None else argv)
            or build_parser().parse_args(argv))
    cmd = args.spec
    try:
        if args.rank < 1:
            raise PreconditionViolated(f"rank must be >= 1, got {args.rank}")
        parsed, stdin_used = [], False
        for dest, kind, _ in cmd.positionals:
            text = getattr(args, dest)
            if text == "-":
                if stdin_used:
                    raise ParseError("stdin may substitute at most one argument", 0)
                stdin_used = True
                text = sys.stdin.read()
            parsed.append(
                parse_multisegment(text) if kind == "ms" else parse_lweight(text)
            )
        result = cmd.compute(args, *parsed)
        text_of, json_of = cmd.render
        if args.json:
            import json
        out = json.dumps(json_of(result)) if args.json else text_of(result)
    except WeylcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


main = run
