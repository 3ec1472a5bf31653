"""Self-contained JSON workspace: named objects plus a command list.

Top-level keys: field, algebras, modules, morphisms, cochains,
crossed_modules, sequences, extensions, commands.  Scalars are strings
("p/q" over the rationals, "r mod p" over a prime field); matrices are
row-major nested arrays of such strings; structure constants are sparse
{i, j, k, value} records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .errors import CheckFailure
from .field import QQ, FieldError, field_from_spec
from .linalg import LinearMap, Matrix
from .algebra import (LeibnizRepresentation, ModuleMorphism, Representation,
                      validate_leibniz, validate_leibniz_module, validate_lie,
                      validate_module, validate_morphism)
from .cohomology import (Cochain, ShortExactSequence, cochain_tuples,
                         validate_ses)
from .crossed import CrossedModule, crossed_axioms
from .extensions import CrossedExtension, validate_extension


@dataclass
class Workspace:
    field: object
    algebras: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    cochains: dict = dc_field(default_factory=dict)
    crossed_modules: dict = dc_field(default_factory=dict)
    sequences: dict = dc_field(default_factory=dict)
    extensions: dict = dc_field(default_factory=dict)
    commands: list = dc_field(default_factory=list)
    # what a run's commands computed for each crossed module, by name (see
    # cli._classified); no part of the document
    classified: dict = dc_field(default_factory=dict, repr=False,
                                compare=False)


def _scalar_in(field, s):
    try:
        return field.parse(s)
    except (ValueError, KeyError) as exc:
        raise CheckFailure("PARSE_ERROR", detail=f"bad scalar {s!r}: {exc}")


def _scalar_out(field, x):
    return field.to_str(x)


def _matrix_in(field, rows, cols):
    data = [[_scalar_in(field, s) for s in row] for row in rows]
    m = Matrix(field, data, cols=cols)
    if any(len(r) != cols for r in rows):
        raise CheckFailure("PARSE_ERROR", detail="ragged matrix rows")
    return m


def _matrix_out(field, m: Matrix):
    return [[_scalar_out(field, x) for x in row] for row in m.data]


def _action_in(spec, key, count, name):
    """The count matrices of an action family {"0": rows, "1": rows, ...}."""
    mats = _key(spec, key, dict, name)
    for i in range(count):
        if not isinstance(mats.get(str(i)), list):
            raise CheckFailure("PARSE_ERROR", name,
                               f"{name}: key {key!r} needs a matrix under "
                               f"{str(i)!r}")
    return [mats[str(i)] for i in range(count)]


def _resolve(table, name, kind):
    if name not in table:
        raise CheckFailure("UNRESOLVED_REFERENCE", name, f"unknown {kind} {name!r}")
    return table[name]


def _structure_in(field, dim, records, name):
    c = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for rec in records:
        i, j, k = rec["i"], rec["j"], rec["k"]
        if not all(_is_int(x) and 0 <= x < dim for x in (i, j, k)):
            raise CheckFailure("PARSE_ERROR", name,
                               f"{name}: index out of range: {rec}")
        c[i][j][k] = _scalar_in(field, rec["value"])
    return [[tuple(c[i][j]) for j in range(dim)] for i in range(dim)]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


_KINDS = {int: "an integer", str: "a string", list: "a list",
          dict: "an object"}
_REQUIRED = object()


def _key(spec, key, kind, name, default=_REQUIRED):
    """spec[key] checked to be of type kind (a non-negative int for int);
    a missing or mistyped key is a PARSE_ERROR naming the object and key."""
    if key not in spec:
        if default is not _REQUIRED:
            return default
        raise CheckFailure("PARSE_ERROR", name,
                           f"{name}: missing key {key!r}")
    value = spec[key]
    ok = _is_int(value) and value >= 0 if kind is int else \
        isinstance(value, kind)
    if not ok:
        want = "a non-negative integer" if kind is int else _KINDS[kind]
        raise CheckFailure("PARSE_ERROR", name,
                           f"{name}: key {key!r} must be {want}, "
                           f"not {value!r}")
    return value


def _section(doc, key):
    """The (name, spec) pairs of one top-level table of the document."""
    table = _key(doc, key, dict, "document", {})
    for name, spec in table.items():
        if not isinstance(spec, dict):
            raise CheckFailure("PARSE_ERROR", name,
                               f"{name}: must be an object")
    return table.items()


def _structure_out(field, alg):
    out = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k, v in enumerate(alg.c[i][j]):
                if v:
                    out.append({"i": i, "j": j, "k": k,
                                "value": _scalar_out(field, v)})
    return out


def _wrap(name):
    """Re-raise engine check failures with the object name attached; a
    malformed value deeper in the object's spec becomes a PARSE_ERROR."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if isinstance(exc, CheckFailure) and exc.code not in \
                    ("PARSE_ERROR", "UNRESOLVED_REFERENCE", "VALIDATION_FAIL"):
                raise CheckFailure("VALIDATION_FAIL", name,
                                   f"{name}: {exc}") from exc
            if isinstance(exc, KeyError):
                raise CheckFailure("PARSE_ERROR", name,
                                   f"{name}: missing key {exc}") from exc
            if isinstance(exc, (TypeError, ValueError, IndexError,
                                AttributeError)):
                raise CheckFailure("PARSE_ERROR", name,
                                   f"{name}: malformed spec: {exc}") from exc
            return False
    return _Ctx()


def parse_workspace(text: str) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure("PARSE_ERROR", (exc.lineno, exc.colno), str(exc))
    if not isinstance(doc, dict):
        raise CheckFailure("PARSE_ERROR", detail="top level must be an object")
    try:
        field = field_from_spec(doc.get("field", "q"))
    except FieldError as exc:
        raise CheckFailure("PARSE_ERROR", "field", str(exc)) from exc
    ws = Workspace(field)

    for name, spec in _section(doc, "algebras"):
        with _wrap(name):
            dim = _key(spec, "dim", int, name)
            structure = _structure_in(
                field, dim, _key(spec, "structure", list, name, []), name)
            if _key(spec, "type", str, name, "lie") == "leibniz":
                ws.algebras[name] = validate_leibniz(field, dim, structure)
            else:
                ws.algebras[name] = validate_lie(field, dim, structure)

    for name, spec in _section(doc, "modules"):
        with _wrap(name):
            alg = _resolve(ws.algebras, _key(spec, "algebra", str, name),
                           "algebra")
            dim = _key(spec, "dim", int, name)
            if "left" in spec:
                left = [_matrix_in(field, m, dim) for m in
                        _action_in(spec, "left", alg.dim, name)]
                right = [_matrix_in(field, m, dim) for m in
                         _action_in(spec, "right", alg.dim, name)]
                ws.modules[name] = validate_leibniz_module(
                    LeibnizRepresentation(alg, dim, left, right))
            else:
                action = [_matrix_in(field, m, dim) for m in
                          _action_in(spec, "action", alg.dim, name)]
                ws.modules[name] = validate_module(
                    Representation(alg, dim, action))

    for name, spec in _section(doc, "morphisms"):
        with _wrap(name):
            src = _resolve(ws.modules, _key(spec, "source", str, name),
                           "module")
            tgt = _resolve(ws.modules, _key(spec, "target", str, name),
                           "module")
            mor = ModuleMorphism(src, tgt, _matrix_in(
                field, _key(spec, "matrix", list, name), src.dim))
            ws.morphisms[name] = validate_morphism(mor)

    for name, spec in _section(doc, "cochains"):
        with _wrap(name):
            mod = _resolve(ws.modules, _key(spec, "module", str, name),
                           "module")
            degree = _key(spec, "degree", int, name)
            flavor = _key(spec, "flavor", str, name, "ce")
            tuples = list(cochain_tuples(flavor, mod.algebra.dim, degree))
            values = {tuple(e["tuple"]):
                      tuple(_scalar_in(field, s) for s in e["value"])
                      for e in _key(spec, "entries", list, name, [])}
            unknown = set(values) - set(tuples)
            if unknown:
                raise CheckFailure("PARSE_ERROR",
                                   detail=f"bad index tuple {sorted(unknown)[0]}")
            vec = []
            zero = tuple(field.zero for _ in range(mod.dim))
            for t in tuples:
                vec.extend(values.get(t, zero))
            ws.cochains[name] = Cochain(flavor, degree, mod, tuple(vec))

    for name, spec in _section(doc, "crossed_modules"):
        with _wrap(name):
            L = _resolve(ws.algebras, _key(spec, "L", str, name), "algebra")
            V = _resolve(ws.modules, _key(spec, "V", str, name), "module")
            partial = LinearMap(_matrix_in(
                field, _key(spec, "partial", list, name), V.dim))
            cm = CrossedModule(L, V, partial)
            if isinstance(V, LeibnizRepresentation) != \
                    (L.flavor == "leibniz"):
                raise CheckFailure("PARSE_ERROR", name,
                                   f"{name}: V is not a module of L's flavor")
            # V was validated with the modules above
            ws.crossed_modules[name] = crossed_axioms(cm)

    for name, spec in _section(doc, "sequences"):
        with _wrap(name):
            alpha = _resolve(ws.morphisms, _key(spec, "alpha", str, name),
                             "morphism")
            beta = _resolve(ws.morphisms, _key(spec, "beta", str, name),
                            "morphism")
            ws.sequences[name] = validate_ses(ShortExactSequence(alpha, beta))

    for name, spec in _section(doc, "extensions"):
        with _wrap(name):
            g = _resolve(ws.algebras, _key(spec, "g", str, name), "algebra")
            M = _resolve(ws.modules, _key(spec, "M", str, name), "module")
            base = _resolve(ws.crossed_modules, _key(spec, "base", str, name),
                            "crossed module")
            chain = _key(spec, "chain", list, name)
            mids = [_resolve(ws.modules, link["module"], "module")
                    for link in chain]
            partials = [LinearMap(_matrix_in(field, link["map"], mod.dim))
                        for link, mod in zip(chain, mids)]
            E = CrossedExtension(
                _key(spec, "n", int, name), g, M,
                LinearMap(_matrix_in(field, _key(spec, "f", list, name),
                                     M.dim)),
                tuple(mids), tuple(partials), base,
                LinearMap(_matrix_in(field, _key(spec, "pi", list, name),
                                     base.algebra.dim)))
            ws.extensions[name] = validate_extension(E)

    cmds = doc.get("commands", [])
    if not isinstance(cmds, list) or \
            not all(isinstance(c, dict) for c in cmds):
        raise CheckFailure("PARSE_ERROR", detail="commands must be a list "
                           "of objects")
    ws.commands = cmds
    return ws


def serialize_workspace(ws: Workspace) -> str:
    field = ws.field
    doc = {"field": "q" if field is QQ else f"p:{field.p}"}
    doc["algebras"] = {
        name: {"type": alg.flavor, "dim": alg.dim,
               "structure": _structure_out(field, alg)}
        for name, alg in ws.algebras.items()}
    doc["modules"] = {}
    for name, mod in ws.modules.items():
        alg_name = _name_of(ws.algebras, mod.algebra)
        rec = {"algebra": alg_name, "dim": mod.dim}
        if isinstance(mod, LeibnizRepresentation):
            rec["left"] = {str(i): _matrix_out(field, m)
                           for i, m in enumerate(mod.left)}
            rec["right"] = {str(i): _matrix_out(field, m)
                            for i, m in enumerate(mod.right)}
        else:
            rec["action"] = {str(i): _matrix_out(field, m)
                             for i, m in enumerate(mod.action)}
        doc["modules"][name] = rec
    doc["morphisms"] = {
        name: {"source": _name_of(ws.modules, mor.source),
               "target": _name_of(ws.modules, mor.target),
               "matrix": _matrix_out(field, mor.matrix)}
        for name, mor in ws.morphisms.items()}
    doc["cochains"] = {}
    for name, c in ws.cochains.items():
        entries = []
        tuples = list(cochain_tuples(c.flavor, c.algebra.dim, c.degree))
        d = c.module.dim
        for pos, t in enumerate(tuples):
            chunk = c.vec[pos * d:(pos + 1) * d]
            if any(chunk):
                entries.append({"tuple": list(t),
                                "value": [_scalar_out(field, x) for x in chunk]})
        doc["cochains"][name] = {"module": _name_of(ws.modules, c.module),
                                 "degree": c.degree, "flavor": c.flavor,
                                 "entries": entries}
    doc["crossed_modules"] = {
        name: {"L": _name_of(ws.algebras, cm.algebra),
               "V": _name_of(ws.modules, cm.rep),
               "partial": _matrix_out(field, cm.partial.matrix)}
        for name, cm in ws.crossed_modules.items()}
    doc["sequences"] = {
        name: {"alpha": _name_of(ws.morphisms, s.alpha),
               "beta": _name_of(ws.morphisms, s.beta)}
        for name, s in ws.sequences.items()}
    doc["extensions"] = {
        name: {"n": E.n, "g": _name_of(ws.algebras, E.g),
               "M": _name_of(ws.modules, E.M),
               "f": _matrix_out(field, E.f.matrix),
               "chain": [{"module": _name_of(ws.modules, mod),
                          "map": _matrix_out(field, d.matrix)}
                         for mod, d in zip(E.mids, E.partials)],
               "base": _name_of(ws.crossed_modules, E.base),
               "pi": _matrix_out(field, E.pi.matrix)}
        for name, E in ws.extensions.items()}
    doc["commands"] = ws.commands
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _name_of(table, obj):
    for name, candidate in table.items():
        if candidate is obj or candidate == obj:
            return name
    raise CheckFailure("UNRESOLVED_REFERENCE", detail="object has no name")
