"""Self-contained JSON workspace: named objects plus a command list.

Top-level keys: field, algebras, modules, morphisms, cochains,
crossed_modules, sequences, extensions, commands.  Scalars are strings
("p/q" over the rationals, "r mod p" over a prime field); matrices are
row-major nested arrays of such strings; structure constants are sparse
{i, j, k, value} records.
"""
from __future__ import annotations

import json
import math

from .errors import CheckFailure
from .field import FieldError, field_from_spec
from .linalg import LinearMap, Matrix
from .algebra import (LEIBNIZ, Representation, validate_leibniz,
                      validate_lie, validate_module)
from .cohomology import TABLE_BUDGET
from . import _forward
# lazy modules: a document with none of their objects never runs them
from . import _classes, _maps, _serializer, crossed, extensions

# the serializer layer, a lazy module, whose name is served from here too
__getattr__ = _forward(__name__, _serializer)


class Workspace:
    """A document's field, named objects by section, and commands.  A run's
    commands keep what they derive in one table outside the document and
    `==`, `derived`, each fact under the value it is derived from
    (`_classes.derive`): a module's cochain complex under the module, a
    crossed module's induced pair under it and its class under (classify2,
    it), and a connecting class under (sequence, cochain)."""

    def __init__(self, field, algebras=None, modules=None, morphisms=None,
                 cochains=None, crossed_modules=None, sequences=None,
                 extensions=None, commands=None):
        self.field = field
        self.algebras = {} if algebras is None else algebras
        self.modules = {} if modules is None else modules
        self.morphisms = {} if morphisms is None else morphisms
        self.cochains = {} if cochains is None else cochains
        self.crossed_modules = {} if crossed_modules is None else \
            crossed_modules
        self.sequences = {} if sequences is None else sequences
        self.extensions = {} if extensions is None else extensions
        self.commands = [] if commands is None else commands
        self.derived = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return {**vars(self), "derived": None} == \
            {**vars(other), "derived": None}


class _Scalars:
    """The scalar parser of one `parse_workspace` call: each distinct
    string is parsed once into its entry (field element, num, den), num /
    den in lowest terms over Q and the residue over 1 over F_p, which every
    later occurrence reuses.  A string is stored only once it has parsed,
    so a bad scalar fails wherever it occurs."""

    __slots__ = ("field", "seen")

    def __init__(self, field):
        self.field, self.seen = field, {}

    def entry(self, s):
        try:
            return self.seen[s]
        except (KeyError, TypeError):   # TypeError: an unhashable value
            pass
        try:
            x = self.field.parse(s)
        except (ValueError, KeyError) as exc:
            raise CheckFailure("PARSE_ERROR",
                               detail=f"bad scalar {s!r}: {exc}")
        e = self.seen[s] = ((x, x.numerator, x.denominator)
                            if self.field.p is None else (x, x.val, 1))
        return e

    def matrix(self, rows, cols):
        """The matrix of row-major scalar strings with cols columns; a row
        that is a string or an object is refused, not read as its characters
        or keys."""
        for r in rows:
            if isinstance(r, (str, dict)):
                raise TypeError(f"matrix row {r!r} is not a list")
        m = self.read(map(enumerate, rows), cols)
        # a row unlike the first is malformed; rows all of one length
        # other than cols are ragged against the declared dimension
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")
        if widths - {cols}:
            raise CheckFailure("PARSE_ERROR", detail="ragged matrix rows")
        return m

    def read(self, rows, cols):
        """The canonical integer view (see `linalg.Matrix`) of rows of
        (column, scalar string) pairs, in one pass: each scalar parses (a
        bad one fails here, before any shape check), zeros are skipped, and
        each num goes on d, the lcm of the dens (lowest terms) read so far;
        a den that grows d moves the rows already read onto the new d."""
        out, d = [], 1
        for row in rows:
            out.append({})
            for j, s in row:
                _, num, den = self.entry(s)
                if num:
                    if d % den:
                        m = den // math.gcd(d, den)
                        d *= m
                        out = [{k: v * m for k, v in r.items()} for r in out]
                    out[-1][j] = num * (d // den)
        return Matrix._from_int_rows(self.field, out, d, cols)


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


def _algebra_work(dim, leib):
    """The rows of an algebra's structure matrix plus the basis triples its
    validator visits: (dim)^3 for a Leibniz algebra, and for a Lie one at
    most C(dim + 2, 3), those with i <= j <= k.  The Lie validator visits
    only the C(dim, 3) with i < j < k; the bound is kept so that what the
    parse admits does not change."""
    return dim * dim + (dim ** 3 if leib else math.comb(dim + 2, 3))


def _structure_in(scalar, dim, records, name):
    """The structure matrix (see `algebra._AlgebraBase`) of sparse {i, j,
    k, value} records; a later record of one (i, j, k) wins."""
    rows = [{} for _ in range(dim * dim)]
    for rec in records:
        i, j, k = rec["i"], rec["j"], rec["k"]
        if not all(_is_int(x) and 0 <= x < dim for x in (i, j, k)):
            raise CheckFailure("PARSE_ERROR", name,
                               f"{name}: index out of range: {rec}")
        scalar.entry(rec["value"])      # each value parses, in order
        rows[i * dim + j][k] = rec["value"]
    return scalar.read([r.items() for r in rows], dim)


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


class _wrap:
    """Re-raise engine check failures with the object name attached; a
    malformed value deeper in the object's spec becomes a PARSE_ERROR."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        name = self.name
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


def parse_workspace(text: str, field: str | None = None) -> Workspace:
    """The workspace of a JSON document, every object validated once, in
    table order.  field, when given, is a field selector that replaces the
    document's own."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure("PARSE_ERROR", (exc.lineno, exc.colno), str(exc))
    if not isinstance(doc, dict):
        raise CheckFailure("PARSE_ERROR", detail="top level must be an object")
    try:
        field = field_from_spec(doc.get("field", "q") if field is None
                                else field)
    except FieldError as exc:
        raise CheckFailure("PARSE_ERROR", "field", str(exc)) from exc
    ws = Workspace(field)
    scalar = _Scalars(field)

    for name, spec in _section(doc, "algebras"):
        with _wrap(name):
            dim = _key(spec, "dim", int, name)
            leib = _key(spec, "type", str, name, "lie") == "leibniz"
            # refused before its dim^2 structure rows are allocated
            if _algebra_work(dim, leib) > TABLE_BUDGET:
                raise CheckFailure("BUDGET_EXCEEDED", dim,
                                   f"over the work budget of {TABLE_BUDGET}")
            structure = _structure_in(
                scalar, dim, _key(spec, "structure", list, name, []), name)
            ws.algebras[name] = (validate_leibniz if leib else validate_lie)(
                field, dim, structure)

    for name, spec in _section(doc, "modules"):
        with _wrap(name):
            alg = _resolve(ws.algebras, _key(spec, "algebra", str, name),
                           "algebra")
            dim = _key(spec, "dim", int, name)
            # one family per side of `sides`, under the side's name ("action"
            # for rho), as serialize_workspace writes them
            families = [[scalar.matrix(m, dim) for m in
                         _action_in(spec, side or "action", alg.dim, name)]
                        for side in (("left", "right") if "left" in spec
                                     else ("",))]
            ws.modules[name] = validate_module(
                Representation(alg, dim, *families))

    for name, spec in _section(doc, "morphisms"):
        with _wrap(name):
            src = _resolve(ws.modules, _key(spec, "source", str, name),
                           "module")
            tgt = _resolve(ws.modules, _key(spec, "target", str, name),
                           "module")
            mor = _maps.ModuleMorphism(src, tgt, scalar.matrix(
                _key(spec, "matrix", list, name), src.dim))
            ws.morphisms[name] = _maps.validate_morphism(mor)

    for name, spec in _section(doc, "cochains"):
        with _wrap(name):
            mod = _resolve(ws.modules, _key(spec, "module", str, name),
                           "module")
            degree = _key(spec, "degree", int, name)
            # the flavor is the module's; the key may only repeat it
            flavor = _key(spec, "flavor", str, name, mod.flavor)
            if flavor != mod.flavor:
                raise CheckFailure("PARSE_ERROR", name,
                                   f"{name}: flavor {flavor!r} is not the "
                                   f"module's flavor {mod.flavor!r}")
            # refused before its tuples are listed
            if _classes._cochain_work(mod, degree) > TABLE_BUDGET:
                raise CheckFailure("BUDGET_EXCEEDED", degree,
                                   f"over the work budget of {TABLE_BUDGET}")
            # a repeated tuple keeps its last value
            values = {tuple(_key(e, "tuple", list, name)):
                      tuple(scalar.entry(s)[0]
                            for s in _key(e, "value", list, name))
                      for e in _key(spec, "entries", list, name, [])}
            # each basis tuple takes its entry out of values; one left
            # over is not a basis tuple
            zero = (field.zero,) * mod.dim
            ws.cochains[name] = _classes.cochain_from_values(
                mod, degree, lambda t: values.pop(t, zero))
            if values:
                raise CheckFailure("PARSE_ERROR", name, f"{name}: bad index "
                                   f"tuple {sorted(values)[0]}")

    for name, spec in _section(doc, "crossed_modules"):
        with _wrap(name):
            L = _resolve(ws.algebras, _key(spec, "L", str, name), "algebra")
            V = _resolve(ws.modules, _key(spec, "V", str, name), "module")
            partial = LinearMap(scalar.matrix(
                _key(spec, "partial", list, name), V.dim))
            cm = crossed.CrossedModule(L, V, partial)
            if (V.flavor == LEIBNIZ) != (L.flavor == LEIBNIZ):
                raise CheckFailure("PARSE_ERROR", name,
                                   f"{name}: V is not a module of L's flavor")
            # V was validated with the modules above
            ws.crossed_modules[name] = crossed.crossed_axioms(cm)

    for name, spec in _section(doc, "sequences"):
        with _wrap(name):
            alpha = _resolve(ws.morphisms, _key(spec, "alpha", str, name),
                             "morphism")
            beta = _resolve(ws.morphisms, _key(spec, "beta", str, name),
                            "morphism")
            ws.sequences[name] = _classes.validate_ses(
                _classes.ShortExactSequence(alpha, beta))

    for name, spec in _section(doc, "extensions"):
        with _wrap(name):
            g = _resolve(ws.algebras, _key(spec, "g", str, name), "algebra")
            M = _resolve(ws.modules, _key(spec, "M", str, name), "module")
            base = _resolve(ws.crossed_modules, _key(spec, "base", str, name),
                            "crossed module")
            chain = _key(spec, "chain", list, name)
            mids = [_resolve(ws.modules, link["module"], "module")
                    for link in chain]
            partials = [LinearMap(scalar.matrix(link["map"], mod.dim))
                        for link, mod in zip(chain, mids)]
            E = extensions.CrossedExtension(
                _key(spec, "n", int, name), g, M,
                LinearMap(scalar.matrix(_key(spec, "f", list, name),
                                        M.dim)),
                tuple(mids), tuple(partials), base,
                LinearMap(scalar.matrix(_key(spec, "pi", list, name),
                                        base.algebra.dim)))
            if E.n < 3:     # a document writes n = 2 as a crossed module
                raise ValueError("crossed extensions start at length 3")
            ws.extensions[name] = extensions.validate_extension(E)

    cmds = doc.get("commands", [])
    if not isinstance(cmds, list) or \
            not all(isinstance(c, dict) for c in cmds):
        raise CheckFailure("PARSE_ERROR", detail="commands must be a list "
                           "of objects")
    ws.commands = cmds
    return ws
