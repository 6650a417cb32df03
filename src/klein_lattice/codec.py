"""JSON codecs of numbers, vectors, matrices and lattices.

Numbers are exact: integers stay integers, non-integral rationals are "p/q"
strings.  Floating point never appears.  The codecs of the composite value
types, which build on these, are in serialize.
"""

from fractions import Fraction

from .errors import EmptyInput, ParseError
from .lattice import IntegerLattice, Sublattice, builtin


def required(obj, key, what):
    """obj[key] of a JSON object; ParseError when obj is not an object or
    has no such key."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object")
    if key not in obj:
        raise ParseError(f"{what} needs a {key!r} field")
    return obj[key]


def rat_to_json(x):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def rat_from_json(v):
    if isinstance(v, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        parts = v.split("/")
        try:
            if len(parts) == 1:
                return int(parts[0])
            if len(parts) == 2:
                return Fraction(int(parts[0]), int(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {v!r}") from exc
    raise ParseError(f"bad rational {v!r} (floats are not accepted)")


def vec_to_json(v):
    return [rat_to_json(x) for x in v]


def list_from_json(v, what):
    if not isinstance(v, list):
        raise ParseError(f"{what} must be a list")
    return v


def vec_from_json(v):
    return tuple(rat_from_json(x) for x in list_from_json(v, "vector"))


def mat_to_json(m):
    return [vec_to_json(row) for row in m]


def int_from_json(v):
    x = rat_from_json(v)
    if Fraction(x).denominator != 1:
        raise ParseError(f"expected an integer, not {v!r}")
    return int(x)


def bool_from_json(v):
    if isinstance(v, bool):
        return v
    raise ParseError(f"expected true or false, not {v!r}")


def int_vec_from_json(v):
    return tuple(int_from_json(x) for x in list_from_json(v, "vector"))


def int_mat_from_json(m):
    if not isinstance(m, list):
        raise ParseError("matrix must be a list of lists")
    rows = tuple(int_vec_from_json(row) for row in m)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("matrix rows must have equal length")
    return rows


# --- lattices ---------------------------------------------------------------


def lattice_to_json(lat):
    return {"rank": lat.rank, "gram": mat_to_json(lat.gram)}


def lattice_from_json(obj):
    if isinstance(obj, str):
        return builtin(obj)
    if not isinstance(obj, dict):
        raise ParseError("lattice must be a name or an object")
    if "name" in obj:
        return builtin(obj["name"])
    if "gram" not in obj:
        raise ParseError("lattice object needs a gram matrix")
    gram = int_mat_from_json(obj["gram"])
    if not gram:
        raise EmptyInput("gram matrix must have at least one row")
    lat = IntegerLattice(gram)
    if "rank" in obj and int_from_json(obj["rank"]) != lat.rank:
        raise ParseError("declared rank does not match the gram matrix")
    return lat


def sublattice_from_json(lat, obj):
    return Sublattice(lat, int_mat_from_json(required(obj, "basis", "sublattice")))
