"""JSON and CSV shapes for every invariant type.

Every emitted record carries a field-descriptor header and a schema
version, so output files are self-describing and reproducible: polygons
are arrays of [x, J] pairs, residues are element strings (comma-separated
coefficient vectors), and tame points are flagged by listing their
abscissas.  The generalized point records are written straight from the
polygon, in one pass over its points: the attained, open or excluded
relation per p-power position, then every point beyond the last one.

Polygon records are read-only.  Their arrays are tuples, which JSON writes
as it writes lists: ``vertices``, ``points`` and ``hull`` are the polygon's
own tuples, ``tame`` is one tuple for every record with the same tame
abscissas, and ``point_specs`` is a tuple of shared dicts holding only ints
and strs.  A census keeps thousands of records alive, and every container a
record adds that the cyclic garbage collector tracks is one more survivor
its full collections walk; such dicts, and tuples of ints, are not tracked.

Every repeated leaf is one shared, read-only object per distinct value, so
a listing costs what its distinct values cost.  Each cache is an
``lru_cache`` bounded by ``RECORDS`` that holds no ``BinomialContext``:

* ``field_to_json``, one record per base field, its ``modulus`` a tuple;
* ``_point_record``, one point spec per (x, J, rel, rho text), for the ram,
  fine and res records alike;
* ``_digit_record``, one digit record of ``polynomial_to_json`` per (i, k,
  digit); digits are interned and equal only to themselves, so no two
  fields share a key;
* ``res_to_json``, one record per residue class, which ``unif_to_json``
  copies to add ``phi0``;
* ``_slot_record``, one slot record of ``template_to_json`` per (i, k, set),
  its ``set`` a tuple of strings.

JSON writes a shared dict exactly as it writes a fresh one, and records
hold no cycles, so sharing changes no byte of any document.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from .analyzer import EisensteinData, NotEisensteinError
from .binomials import ROW_DEGREES
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    least_ordinates,
)
from .residue_field import BaseField, make_field
from .templates import Template

SCHEMA_VERSION = 1
RECORDS = 4096  # entries in each shared-record cache below; only caps memory


@lru_cache(maxsize=RECORDS)
def field_to_json(base: BaseField) -> dict[str, Any]:
    return {
        "p": base.p,
        "f": base.f,
        "e": base.e,
        "gamma": str(base.gamma),
        "modulus": tuple(base.fq.modulus),
    }


def field_from_json(data: dict[str, Any]) -> BaseField:
    return make_field(int(data["p"]), int(data["f"]), int(data["e"]), data["gamma"])


def _point_specs(p: int, points, wild, rel: str, residues=()) -> tuple[dict[str, Any], ...]:
    """The point records of a polygon's attained ``points`` (a hull's are its vertices),
    ``wild`` the (s, p^s, J) of those up to p^(v_p(n)).

    One record per p-power position up to p^(v_p(n)): "=" where a point is
    attained, otherwise the hull's value there, rounded up under ">=" (the
    position is left open) or down under ">" (it is excluded); then one "="
    record per point beyond p^(v_p(n)).  ``residues``, one per point, decorate
    the "=" records.  The absent positions lie between the wild points, in
    order, so one pass merges them in.
    """
    bounds = least_ordinates(p, wild)
    records = []
    g = 0
    for i, (x, J) in enumerate(points):
        while g < len(bounds) and bounds[g][1] < x:
            # ">=" ceil(V) where the position is open, ">" floor(V) where it is excluded
            _, x_b, up, excluded = bounds[g]
            records.append(_point_record(x_b, up if rel == ">=" else excluded - 1, rel))
            g += 1
        records.append(_point_record(x, J, "=", str(residues[i]) if residues else None))
    return tuple(records)


@lru_cache(maxsize=RECORDS)
def _point_record(x: int, J: int, rel: str, rho: str | None = None) -> dict[str, Any]:
    record = {"x": x, "J": J, "rel": rel}
    if rho is not None:
        record["rho"] = rho
    return record


# the tame abscissas of the records of one degree, one tuple for equal ones
_shared_tame = lru_cache(maxsize=ROW_DEGREES)(tuple)


def ram_to_json(P: RamPolygon) -> dict[str, Any]:
    return {
        "n": P.n,
        "vertices": P.vertices,
        "point_specs": _point_specs(P.p, P.vertices, P.wild_vertices(), ">="),
    }


def ram_from_json(base: BaseField, data: dict[str, Any]) -> RamPolygon:
    return RamPolygon(base.p, int(data["n"]), tuple((x, J) for x, J in data["vertices"]))


def fine_to_json(Pstar: FinePolygon) -> dict[str, Any]:
    return {
        "n": Pstar.n,
        "points": Pstar.points,
        "tame": _shared_tame(tuple(Pstar.tame_abscissas())),
        "hull": Pstar.hull.vertices,
        "point_specs": _point_specs(Pstar.p, Pstar.points, Pstar.wild_points(), ">"),
    }


def fine_from_json(base: BaseField, data: dict[str, Any]) -> FinePolygon:
    return FinePolygon(base.p, int(data["n"]), tuple((x, J) for x, J in data["points"]))


@lru_cache(maxsize=RECORDS)
def res_to_json(Pres: FinePolygonWithResidues) -> dict[str, Any]:
    Pstar = Pres.polygon
    return {
        "n": Pstar.n,
        "points": tuple((x, J, str(rho)) for x, J, rho in Pres.items()),
        "tame": _shared_tame(tuple(Pstar.tame_abscissas())),
        "hull": Pstar.hull.vertices,
        "point_specs": _point_specs(Pstar.p, Pstar.points, Pstar.wild_points(), ">", Pres.residues),
    }


def res_from_json(base: BaseField, data: dict[str, Any]) -> FinePolygonWithResidues:
    points = tuple((x, J) for x, J, _ in data["points"])
    residues = tuple(base.fq.parse(rho) for _, _, rho in data["points"])
    return FinePolygonWithResidues(FinePolygon(base.p, int(data["n"]), points), residues)


def unif_to_json(inv: InvariantWithUnif) -> dict[str, Any]:
    return {**res_to_json(inv.res), "phi0": str(inv.phi0)}


def unif_from_json(base: BaseField, data: dict[str, Any]) -> InvariantWithUnif:
    return InvariantWithUnif(res_from_json(base, data), base.fq.parse(data["phi0"]))


def template_to_json(T: Template) -> dict[str, Any]:
    return {
        "n": T.n,
        "field": field_to_json(T.base),
        "cutoff": T.cutoff,
        "slots": [_slot_record(i, k, values) for (i, k), values in sorted(T.slots.items())],
    }


@lru_cache(maxsize=RECORDS)
def _slot_record(i: int, k: int, values: frozenset) -> dict[str, Any]:
    return {"i": i, "k": k, "set": tuple(sorted(map(str, values)))}


def template_from_json(data: dict[str, Any]) -> Template:
    base = field_from_json(data["field"])
    slots = {
        (slot["i"], slot["k"]): frozenset(base.fq.parse(v) for v in slot["set"])
        for slot in data["slots"]
    }
    return Template(base, int(data["n"]), slots, data["cutoff"])


def polynomial_to_json(f: EisensteinData) -> dict[str, Any]:
    zero = f.base.fq.zero  # interned, so a zero digit is this object
    return {
        "n": f.n,
        "digits": [
            _digit_record(i, k, d)
            for i, row in enumerate(f.digits) for k, d in enumerate(row, start=1) if d is not zero
        ],
    }


@lru_cache(maxsize=RECORDS)
def _digit_record(i: int, k: int, d) -> dict[str, Any]:
    # digits are interned and equal only to themselves, so no two fields share a key
    return {"i": i, "k": k, "residue": str(d)}


def polynomial_from_json(base: BaseField, data: Any) -> EisensteinData:
    """Inverse of :func:`polynomial_to_json`; a malformed document is NotEisensteinError."""
    try:
        table = {
            (_integer(entry["i"]), _integer(entry["k"])): base.fq.parse(entry["residue"])
            for entry in data["digits"]
        }
        n = _integer(data["n"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise NotEisensteinError(f"malformed polynomial document: {exc!r}") from exc
    return EisensteinData.from_digit_map(base, n, table)


def _integer(value: Any) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# invariant records for the CLI streams


def invariant_to_json(obj) -> dict[str, Any]:
    if isinstance(obj, RamPolygon):
        return ram_to_json(obj)
    if isinstance(obj, FinePolygon):
        return fine_to_json(obj)
    if isinstance(obj, FinePolygonWithResidues):
        return res_to_json(obj)
    if isinstance(obj, InvariantWithUnif):
        return unif_to_json(obj)
    raise TypeError(f"no JSON shape for {type(obj).__name__}")


def _encode_pairs(pairs) -> str:
    return ";".join(":".join(str(part) for part in pair) for pair in pairs)


def _decode_pairs(text: str) -> list[list[str]]:
    if not text:
        return []
    return [item.split(":") for item in text.split(";")]


CSV_COLUMNS = {
    "ram": ["index", "n", "vertices"],
    "fine": ["index", "n", "points", "tame"],
    "res": ["index", "n", "points", "tame"],
    "unif": ["index", "n", "points", "tame", "phi0"],
}


def invariant_to_csv_row(level: str, index: int, obj) -> list[str]:
    """Row form carrying exactly the same data as the JSON record."""
    if level == "ram":
        return [str(index), str(obj.n), _encode_pairs(obj.vertices)]
    if level == "fine":
        return [
            str(index),
            str(obj.n),
            _encode_pairs(obj.points),
            _encode_pairs((x,) for x in obj.tame_abscissas()),
        ]
    res = obj if level == "res" else obj.res
    row = [
        str(index),
        str(res.polygon.n),
        _encode_pairs((x, J, _flat(rho)) for x, J, rho in res.items()),
        _encode_pairs((x,) for x in res.polygon.tame_abscissas()),
    ]
    if level == "unif":
        row.append(_flat(obj.phi0))
    return row


def _flat(elem) -> str:
    # element strings use commas, which CSV fields reserve; use dots inside rows
    return str(elem).replace(",", ".")


def _unflat(text: str) -> str:
    return text.replace(".", ",")


def invariant_from_csv_row(base: BaseField, level: str, row: list[str]):
    n = int(row[1])
    if level == "ram":
        return RamPolygon(base.p, n, tuple((int(x), int(J)) for x, J in _decode_pairs(row[2])))
    if level == "fine":
        return FinePolygon(base.p, n, tuple((int(x), int(J)) for x, J in _decode_pairs(row[2])))
    triples = _decode_pairs(row[2])
    points = tuple((int(x), int(J)) for x, J, _ in triples)
    residues = tuple(base.fq.parse(_unflat(rho)) for _, _, rho in triples)
    res = FinePolygonWithResidues(FinePolygon(base.p, n, points), residues)
    if level == "res":
        return res
    return InvariantWithUnif(res, base.fq.parse(_unflat(row[4])))
