"""Typed entries of the JSON documents that bourgen reads: run configs and
member files, each named in messages as ``document`` ("config" or
"member file").

One rule holds for both: a number is an int or a float, never a bool; a
count is an int; a flag is a JSON boolean; a list of numbers holds finite
numbers only.  An entry that breaks it is a ValueError that names the
document and the entry, as in "the config's 'grid.s_count' entry must be
an integer, not float".
"""
import struct

import numpy as np

from . import spaces

NUMBER = (int, float)
# the most values of s or of t in an isometry grid: at most 10^6 grid
# points, some 0.3 GB at the verifier's 312 bytes a point, refused before
# any array is built
MAX_GRID_COUNT = 1000
_KINDS = {str: "a string", dict: "an object", list: "a list",
          int: "an integer", bool: "true or false", NUMBER: "a number",
          (str, dict): "a string or an object"}


def entry(d, document, name, kind, default=None):
    """The entry of ``d`` at the dotted ``name``, of type ``kind``;
    ``default`` where it is missing, if given.  A missing entry without a
    default, a step through an entry that is not an object, and an entry
    of another type are ValueErrors that name the entry."""
    value, path = d, []
    for key in name.split("."):
        if not isinstance(value, dict):
            raise ValueError(f"the {document}'s {'.'.join(path)!r} entry "
                             f"must be an object, not {type(value).__name__}")
        path.append(key)
        if key not in value:
            if default is None:
                raise ValueError(f"the {document} has no {'.'.join(path)!r} "
                                 f"entry")
            return default
        value = value[key]
    # a bool is an int to Python, but it is only ever a flag here
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
            value, kind):
        raise ValueError(f"the {document}'s {name!r} entry must be "
                         f"{_KINDS[kind]}, not {type(value).__name__}")
    return value


def require(document, holds, name, rule, value):
    """A ValueError that names the entry, its rule and its value, unless
    ``holds``."""
    if not holds:
        raise ValueError(f"the {document}'s {name!r} entry must be {rule}, "
                         f"not {value!r}")


def samples(d, document, name, size=None, default=None):
    """The list of finite numbers at ``name`` (of ``size`` numbers, if
    given), as a float array; ``default`` where it is missing, if given.
    An element that is not an int or a float (a word, a null, a list, an
    object or a bool) is a ValueError."""
    values = entry(d, document, name, list, default)
    try:
        # packing as doubles takes ints, floats and bools only (np.asarray
        # would read "0.5" as a number), and is the faster conversion
        array = np.frombuffer(struct.pack(f"{len(values)}d", *values)).copy()
    except struct.error:
        array = None
    if (array is None or size not in (None, len(array))
            or not np.isfinite(array).all()
            # a bool reads as 0 or 1, so only those elements can be one
            or any(isinstance(values[k], bool) for k in np.flatnonzero(
                (array == 0.0) | (array == 1.0)).tolist())):
        raise ValueError(f"the {document}'s {name!r} entry must be a list "
                         f"of {f'{size} ' if size else ''}finite numbers")
    return array


def space(d, document):
    """The SpaceSpec of the 'space' entry: its 'kind' a string, and its
    'a', 'kappa' and 'tau' numbers, 0.0 where missing.  SpaceSpec's own
    refusals are SpecErrors."""
    return spaces.SpaceSpec(
        kind=entry(d, document, "space.kind", str),
        **{k: entry(d, document, "space." + k, NUMBER, 0.0)
           for k in ("a", "kappa", "tau")})
