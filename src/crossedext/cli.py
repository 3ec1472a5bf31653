"""crossed-ext: run validation and classification commands over a workspace.

Usage: crossed-ext <command> --input FILE [--field q|p:PRIME]
                   [--max-degree N] [--format human|json]

The input document carries its own `commands` list; `report` executes all of
them, any other command name executes just the matching entries (for `check`,
an empty list means "validate every named object").  Exit status is 0 iff
every executed command passed; it is 1 as well when stdout is closed before
the records are written.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CheckFailure
from .cohomology import cohomology_table
# lazy modules (see crossedext): a cohomology-only run never executes them
from . import _classes, crossed, extensions
from .workspace import Workspace, parse_workspace

DEFAULT_DEGREE_CAP = 4


def _scalars(field, vec, key):
    """The strings of vec's scalars for the record field key; one past the
    interpreter's digit limit for `str` is BUDGET_EXCEEDED at key."""
    try:
        return [field.to_str(x) for x in vec]
    except ValueError as exc:
        raise CheckFailure("BUDGET_EXCEEDED", key, "a scalar has more than "
                           f"{sys.get_int_max_str_digits()} digits") from exc


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
    """H^n of the module over its own algebra, which the command names."""
    alg = ws.algebras[args["algebra"]]
    mod = ws.modules[args["module"]]
    if alg != mod.algebra:
        raise CheckFailure("BASE_MISMATCH", args["module"],
                           f"not a module over {args['algebra']!r}")
    asked = args.get("max_degree", degree_cap)
    if not isinstance(asked, int) or isinstance(asked, bool) or asked < 0:
        raise CheckFailure("PARSE_ERROR", "max_degree",
                           "max_degree must be a non-negative integer, "
                           f"not {asked!r}")
    cap = min(asked, degree_cap)
    rows = cohomology_table(mod, cap)
    return [{"op": "cohomology", "algebra": args["algebra"],
             "module": args["module"], "status": "PASS",
             "table": [{"degree": n, "dim_cochains": c, "rank_delta": r,
                        "dim_h": h} for n, c, r, h in rows]}]


def _presented(ws, cm):
    """The induced pair of crossed module cm, derived once per run for its
    value (`_classes.derive`); its M has the run's complex."""
    pres = _classes.derive(ws.derived, cm, crossed.induced_pair, cm)
    _classes.complex_of(pres.M, ws.derived)
    return pres


def _classify_record(ws, name):
    """The induced pair and class of the named crossed module, the class
    derived once per run for the crossed module's value too, and the record
    fields that theta and classify share."""
    cm = ws.crossed_modules[name]
    pres = _presented(ws, cm)
    cl = _classes.derive(ws.derived, (crossed.classify2, cm),
                         crossed.classify2, pres)
    return pres, cl, {
        "crossed_module": name,
        "induced_g_dim": pres.g.dim,
        "induced_m_dim": pres.M.dim,
        "class_canonical": _scalars(ws.field, cl.canonical,
                                    "class_canonical"),
        "class_is_zero": cl.is_zero()}


def _cmd_theta(ws, args, degree_cap):
    # the class's representative is the theta cochain classify2 built
    _, cl, rec = _classify_record(ws, args["crossed_module"])
    rec.update({"op": "theta", "status": "PASS",
                "theta": _scalars(ws.field, cl.representative.vec, "theta")})
    return [rec]


def _cmd_classify(ws, args, degree_cap):
    pres, _, rec = _classify_record(ws, args["crossed_module"])
    rec.update({"op": "classify", "status": "PASS",
                "dim_h3": _classes.complex_of(pres.M).dim_h(3)})
    return [rec]


def _cmd_baer_sum(ws, args, degree_cap):
    """Two named extensions (n >= 3) or crossed modules (n = 2); a 2-fold
    sum is over the left operand's (g, M), whose complex holds its class."""
    left, right = args["left"], args["right"]
    if left in ws.extensions:
        E, E2 = ws.extensions[left], ws.extensions[right]
    else:
        E, E2 = (_presented(ws, ws.crossed_modules[n]) for n in (left, right))
    S = extensions.baer_sum(E, E2)
    rec = {"op": "baer-sum", "left": left, "right": right, "status": "PASS"}
    if S.mids:
        rec.update(n=S.n, top_dim=S.mids[0].dim, base_dim=S.base.algebra.dim,
                   splits=extensions.split_detect(S) is not None)
    else:
        rec.update(v_dim=S.base.rep.dim, l_dim=S.base.algebra.dim,
                   class_canonical=_scalars(ws.field, crossed.classify2(
                       S).canonical, "class_canonical"))
    return [rec]


def _cmd_pushout(ws, args, degree_cap):
    pd = extensions.pushout(ws.morphisms[args["f"]], ws.morphisms[args["g"]])
    return [{"op": "pushout", "f": args["f"], "g": args["g"], "status": "PASS",
             "dim": pd.D.dim}]


def _sequence_cochain(ws, args):
    """The named sequence 0 -> M -> M' -> M'' -> 0 and cochain c, their
    modules with the run's complexes; a BASE_MISMATCH unless c is valued in
    M''."""
    ses, c = ws.sequences[args["sequence"]], ws.cochains[args["cochain"]]
    if c.module is not ses.tail and c.module != ses.tail:
        raise CheckFailure("BASE_MISMATCH", detail="cochain is not valued "
                           "in the sequence tail")
    for mod in (ses.head, ses.middle, ses.tail, c.module):
        _classes.complex_of(mod, ws.derived)
    return ses, c


def _connecting(ws, ses, c):
    """The connecting image of [c], derived once per run for (ses, c)."""
    return _classes.derive(ws.derived, (ses, c), lambda: (
        _classes.connecting_hom(ses, _classes.class_of(c))))


def _cmd_connecting(ws, args, degree_cap):
    ses, c = _sequence_cochain(ws, args)
    cl = _connecting(ws, ses, c)
    return [{"op": "connecting", "sequence": args["sequence"],
             "cochain": args["cochain"], "status": "PASS",
             "degree": cl.degree,
             "class_canonical": _scalars(ws.field, cl.canonical,
                                         "class_canonical"),
             "class_is_zero": cl.is_zero()}]


def _cmd_yoneda(ws, args, degree_cap):
    ses, c = _sequence_cochain(ws, args)
    pres = crossed.yoneda_crossed_module(ses, c)
    # both classes live in H^3(g, M), the complex of pres.M = ses.head
    cl = crossed.classify2(pres)
    agree = cl == _connecting(ws, ses, c)
    return [{"op": "yoneda", "sequence": args["sequence"],
             "cochain": args["cochain"],
             "status": "PASS" if agree else "FAIL",
             "v_dim": pres.base.rep.dim, "l_dim": pres.base.algebra.dim,
             "class_canonical": _scalars(ws.field, cl.canonical,
                                         "class_canonical"),
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
    try:
        ws = parse_workspace(text, args.field)
    except CheckFailure as exc:
        records = [{"op": "parse", "status": "FAIL", "error": exc.code,
                    "detail": str(exc)}]
        _emit(records, args.format)
        return 1
    records = run(ws, args.command, args.max_degree)
    if not _emit(records, args.format):
        return 1
    return 0 if all(r["status"] == "PASS" for r in records) else 1


def _emit(records, fmt):
    """Print the records; False if the reader closed stdout first."""
    try:
        sys.stdout.write(render_human(records) if fmt != "json" else
                         json.dumps({"results": records}, indent=2,
                                    sort_keys=True) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the `signal` docs' recipe: no second failure at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
