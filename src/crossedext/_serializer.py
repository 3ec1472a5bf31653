"""The serializer layer of `workspace`, which serves its name: the JSON
document of a workspace, which `parse_workspace` reads back to an equal
workspace.  A lazy module (see `crossedext`): a run of the CLI writes no
document."""
from __future__ import annotations

import json

from .errors import CheckFailure
from .linalg import Matrix
from ._maps import sides
from .workspace import Workspace


def _matrix_out(field, m: Matrix):
    return [[field.to_str(x) for x in row] for row in m.data]


def _structure_out(field, alg):
    out = []
    for r, row in enumerate(alg.structure.data):     # r = i * dim + j
        for k, v in enumerate(row):
            if v:
                out.append({"i": r // alg.dim, "j": r % alg.dim, "k": k,
                            "value": field.to_str(v)})
    return out


def serialize_workspace(ws: Workspace) -> str:
    field = ws.field
    name_of = _namer(ws.algebras, ws.modules, ws.morphisms,
                     ws.crossed_modules)
    doc = {"field": "q" if field.p is None else f"p:{field.p}"}
    doc["algebras"] = {
        name: {"type": alg.flavor, "dim": alg.dim,
               "structure": _structure_out(field, alg)}
        for name, alg in ws.algebras.items()}
    doc["modules"] = {}
    for name, mod in ws.modules.items():
        alg_name = name_of(ws.algebras, mod.algebra)
        rec = {"algebra": alg_name, "dim": mod.dim}
        for side, mats in sides(mod):
            rec[side or "action"] = {str(i): _matrix_out(field, m)
                                     for i, m in enumerate(mats)}
        doc["modules"][name] = rec
    doc["morphisms"] = {
        name: {"source": name_of(ws.modules, mor.source),
               "target": name_of(ws.modules, mor.target),
               "matrix": _matrix_out(field, mor.matrix)}
        for name, mor in ws.morphisms.items()}
    doc["cochains"] = {
        name: {"module": name_of(ws.modules, c.module), "degree": c.degree,
               "flavor": c.flavor,
               "entries": [{"tuple": list(t),
                            "value": [field.to_str(x) for x in v]}
                           for t, v in c.items() if any(v)]}
        for name, c in ws.cochains.items()}
    doc["crossed_modules"] = {
        name: {"L": name_of(ws.algebras, cm.algebra),
               "V": name_of(ws.modules, cm.rep),
               "partial": _matrix_out(field, cm.partial.matrix)}
        for name, cm in ws.crossed_modules.items()}
    doc["sequences"] = {
        name: {"alpha": name_of(ws.morphisms, s.alpha),
               "beta": name_of(ws.morphisms, s.beta)}
        for name, s in ws.sequences.items()}
    doc["extensions"] = {
        name: {"n": E.n, "g": name_of(ws.algebras, E.g),
               "M": name_of(ws.modules, E.M),
               "f": _matrix_out(field, E.f.matrix),
               "chain": [{"module": name_of(ws.modules, mod),
                          "map": _matrix_out(field, d.matrix)}
                         for mod, d in zip(E.mids, E.partials)],
               "base": name_of(ws.crossed_modules, E.base),
               "pi": _matrix_out(field, E.pi.matrix)}
        for name, E in ws.extensions.items()}
    doc["commands"] = ws.commands
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _namer(*tables):
    """name_of(table, obj) for one serialization: obj's first name in table
    by identity, a dict lookup; only an object that is not itself in table
    (an equal copy) takes the first name of an equal object, by a scan."""
    ids = {(id(t), id(x)): n for t in tables for n, x in reversed(t.items())}

    def name_of(table, obj):
        if (id(table), id(obj)) in ids:
            return ids[id(table), id(obj)]
        for name, candidate in table.items():
            if candidate == obj:
                return name
        raise CheckFailure("UNRESOLVED_REFERENCE", detail="object has no name")
    return name_of
