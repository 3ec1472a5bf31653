"""crossed-ext: run validation and classification commands over a workspace.

Usage: crossed-ext <command> --input FILE [--field q|p:PRIME]
                   [--max-degree N] [--format human|json]

The input document carries its own `commands` list; `report` executes all of
them, any other command name executes just the matching entries (for `check`,
an empty list means "validate every named object").  Exit status is 0 iff
every executed command passed.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import CheckFailure
from .cohomology import (CochainComplex, class_of, cohomology_table,
                         connecting_hom)
from .crossed import classify2, yoneda_crossed_module, induced_pair
from .extensions import baer_sum, baer_sum_n2, pushout, split_detect
from .workspace import Workspace, parse_workspace

DEFAULT_DEGREE_CAP = 4


def _scalars(field, vec):
    return [field.to_str(x) for x in vec]


def _cmd_check(ws, args, degree_cap):
    """Every object was validated when the workspace was parsed, so a named
    object passes iff it exists."""
    known = [n for table in (ws.algebras, ws.modules, ws.morphisms,
                             ws.cochains, ws.crossed_modules, ws.sequences,
                             ws.extensions)
             for n in table]
    if "object" in args:
        name = args["object"]
        if name not in known:
            raise CheckFailure("UNRESOLVED_REFERENCE", name,
                               f"unknown object {name!r}")
        known = [name]
    return [{"op": "check", "object": n, "status": "PASS"} for n in known]


def _cmd_cohomology(ws, args, degree_cap):
    alg = ws.algebras[args["algebra"]]
    mod = ws.modules[args["module"]]
    asked = args.get("max_degree", degree_cap)
    if not isinstance(asked, int) or isinstance(asked, bool) or asked < 0:
        raise CheckFailure("PARSE_ERROR", "max_degree",
                           "max_degree must be a non-negative integer, "
                           f"not {asked!r}")
    cap = min(asked, degree_cap)
    rows = cohomology_table(alg, mod, cap)
    return [{"op": "cohomology", "algebra": args["algebra"],
             "module": args["module"], "status": "PASS",
             "table": [{"degree": n, "dim_cochains": c, "rank_delta": r,
                        "dim_h": h} for n, c, r, h in rows]}]


class _Classified:
    """A crossed module with its induced pair, and, once a command needs
    them, the complex of the pair's (g, M) and the module's class."""

    __slots__ = ("cm", "pres", "cx", "cl")

    def __init__(self, cm):
        self.cm = cm
        self.pres = induced_pair(cm)
        self.cx = self.cl = None

    def complex(self):
        if self.cx is None:
            self.cx = CochainComplex(self.pres.g, self.pres.M, self.cm.flavor)
        return self.cx

    def classify(self):
        if self.cl is None:
            self.cl = classify2(self.pres, self.complex())
        return self.cl


def _classified(ws, name) -> _Classified:
    """The run's entry for the named crossed module, made by the first
    command that names it and reused by every later one.  The entry keeps
    the CrossedModule it was made from, so a replaced table entry is
    presented afresh; a presentation that fails stores nothing, and fails
    again the same way."""
    cm = ws.crossed_modules[name]
    entry = ws.classified.get(name)
    if entry is None or entry.cm is not cm:
        entry = ws.classified[name] = _Classified(cm)
    return entry


def _classify_record(ws, name):
    """The classified entry of a crossed module and the record fields that
    theta and classify share."""
    entry = _classified(ws, name)
    cl, pres = entry.classify(), entry.pres
    return entry, {
        "crossed_module": name,
        "induced_g_dim": pres.g.dim,
        "induced_m_dim": pres.M.dim,
        "class_canonical": _scalars(ws.field, cl.canonical),
        "class_is_zero": cl.is_zero()}


def _cmd_theta(ws, args, degree_cap):
    entry, rec = _classify_record(ws, args["crossed_module"])
    # the class's representative is the theta cochain classify2 built
    theta = entry.classify().representative
    rec.update({"op": "theta", "status": "PASS",
                "theta": _scalars(ws.field, theta.vec)})
    return [rec]


def _cmd_classify(ws, args, degree_cap):
    entry, rec = _classify_record(ws, args["crossed_module"])
    rec.update({"op": "classify", "status": "PASS",
                "dim_h3": entry.complex().dim_h(3)})
    return [rec]


def _cmd_baer_sum(ws, args, degree_cap):
    left, right = args["left"], args["right"]
    if left in ws.extensions:
        E = baer_sum(ws.extensions[left], ws.extensions[right])
        return [{"op": "baer-sum", "left": left, "right": right,
                 "status": "PASS", "n": E.n,
                 "top_dim": E.mids[0].dim, "base_dim": E.base.algebra.dim,
                 "splits": split_detect(E) is not None}]
    a = _classified(ws, left)
    S = baer_sum_n2(a.pres, _classified(ws, right).pres)
    # the sum is presented over the left operand's (g, M)
    cl = classify2(S, a.complex())
    return [{"op": "baer-sum", "left": left, "right": right,
             "status": "PASS", "v_dim": S.cm.rep.dim, "l_dim": S.cm.algebra.dim,
             "class_canonical": _scalars(ws.field, cl.canonical)}]


def _cmd_pushout(ws, args, degree_cap):
    pd = pushout(ws.morphisms[args["f"]], ws.morphisms[args["g"]])
    return [{"op": "pushout", "f": args["f"], "g": args["g"], "status": "PASS",
             "dim": pd.D.dim}]


def _complexes(ses, c):
    """For a sequence 0 -> M -> M' -> M'' -> 0 and a cochain c: the complex
    of (g, M), where the connecting class lives, and the complex of c.  They
    are one complex when c is valued in M itself, as in a sequence whose head
    and tail are the same module (0 -> k -> jordan2 -> k -> 0 in
    fixtures/yoneda_jordan.json)."""
    head = CochainComplex(ses.head.algebra, ses.head, c.flavor)
    if c.module is ses.head:
        return head, head
    return head, CochainComplex(c.algebra, c.module, c.flavor)


def _cmd_connecting(ws, args, degree_cap):
    ses = ws.sequences[args["sequence"]]
    c = ws.cochains[args["cochain"]]
    head, tail = _complexes(ses, c)
    cl = connecting_hom(ses, class_of(c, tail), cx=head)
    return [{"op": "connecting", "sequence": args["sequence"],
             "cochain": args["cochain"], "status": "PASS",
             "degree": cl.degree,
             "class_canonical": _scalars(ws.field, cl.canonical),
             "class_is_zero": cl.is_zero()}]


def _cmd_yoneda(ws, args, degree_cap):
    ses = ws.sequences[args["sequence"]]
    c = ws.cochains[args["cochain"]]
    head, tail = _complexes(ses, c)
    pres = yoneda_crossed_module(ses, c,
                                 tail if c.module is ses.tail else None)
    # both classes live in H^3(g, M): one complex serves the two
    cl = classify2(pres, head)
    agree = cl == connecting_hom(ses, class_of(c, tail), cx=head)
    return [{"op": "yoneda", "sequence": args["sequence"],
             "cochain": args["cochain"],
             "status": "PASS" if agree else "FAIL",
             "v_dim": pres.cm.rep.dim, "l_dim": pres.cm.algebra.dim,
             "class_canonical": _scalars(ws.field, cl.canonical),
             "matches_connecting": agree}]


# each handler takes (workspace, arguments, degree cap); only cohomology
# reads the cap
HANDLERS = {"check": _cmd_check, "cohomology": _cmd_cohomology,
            "theta": _cmd_theta, "classify": _cmd_classify,
            "baer-sum": _cmd_baer_sum, "pushout": _cmd_pushout,
            "connecting": _cmd_connecting, "yoneda": _cmd_yoneda}
COMMANDS = tuple(HANDLERS) + ("report",)

# command arguments that name an object of the workspace
NAME_ARGS = ("algebra", "module", "crossed_module", "left", "right", "f", "g",
             "sequence", "cochain", "object")


def run_command(ws: Workspace, cmd: dict, degree_cap=DEFAULT_DEGREE_CAP):
    op = cmd.get("op")
    args = {k: v for k, v in cmd.items() if k != "op"}
    try:
        for key in NAME_ARGS:
            if key in args and not isinstance(args[key], str):
                raise CheckFailure("PARSE_ERROR", key,
                                   f"{key} must be a name, not {args[key]!r}")
        # an op read from JSON may be any value, hashable or not
        handler = HANDLERS.get(op) if isinstance(op, str) else None
        if handler is None:
            return [{"op": op, "status": "FAIL", "error": "UNKNOWN_COMMAND"}]
        return handler(ws, args, degree_cap)
    except KeyError as exc:
        return [{"op": op, "status": "FAIL", "error": "UNRESOLVED_REFERENCE",
                 "detail": str(exc)}]
    except CheckFailure as exc:
        return [{"op": op, "status": "FAIL", "error": exc.code,
                 "detail": str(exc)}]


def run(ws: Workspace, which: str, degree_cap=DEFAULT_DEGREE_CAP):
    selected = [c for c in ws.commands
                if which == "report" or c.get("op") == which]
    if which == "check" and not selected:
        selected = [{"op": "check"}]
    if not selected:
        return [{"op": which, "status": "FAIL", "error": "NO_MATCHING_COMMAND"}]
    out = []
    for cmd in selected:
        out.extend(run_command(ws, cmd, degree_cap))
    return out


def render_human(records):
    lines = []
    for rec in records:
        head = f"[{rec['status']}] {rec['op']}"
        detail = {k: v for k, v in rec.items()
                  if k not in ("status", "op", "table")}
        if detail:
            head += "  " + "  ".join(f"{k}={v}" for k, v in sorted(detail.items()))
        lines.append(head)
        for row in rec.get("table", []):
            lines.append(f"    H^{row['degree']}: dim C = {row['dim_cochains']}"
                         f"  rank d = {row['rank_delta']}"
                         f"  dim H = {row['dim_h']}")
    return "\n".join(lines) + "\n"


def _degree(text):
    """The value of --max-degree: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {text!r}")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(prog="crossed-ext", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", required=True)
    ap.add_argument("--field", default=None,
                    help="override the document's field selector")
    ap.add_argument("--max-degree", type=_degree, default=DEFAULT_DEGREE_CAP)
    ap.add_argument("--format", choices=("human", "json"), default="human")
    args = ap.parse_args(argv)

    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.field is not None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            pass  # parse_workspace reports the position
        else:
            if isinstance(doc, dict):
                doc["field"] = args.field
                text = json.dumps(doc)
    try:
        ws = parse_workspace(text)
    except CheckFailure as exc:
        records = [{"op": "parse", "status": "FAIL", "error": exc.code,
                    "detail": str(exc)}]
        _emit(records, args.format)
        return 1
    records = run(ws, args.command, args.max_degree)
    _emit(records, args.format)
    return 0 if all(r["status"] == "PASS" for r in records) else 1


def _emit(records, fmt):
    if fmt == "json":
        print(json.dumps({"results": records}, indent=2, sort_keys=True))
    else:
        print(render_human(records), end="")


if __name__ == "__main__":
    sys.exit(main())
