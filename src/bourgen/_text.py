"""Artifact text in one pass: the exact bytes of the stdlib writers.

``json_text`` is ``json.dumps(payload, indent=1)`` with each all-float
list encoded by the C encoder instead of the pure-Python one that
``indent`` selects; ``rows_text`` is ``np.savetxt``'s row text from one
``%`` call for the whole block instead of one per row, and ``write_csv``
the CSV file every exporter writes with it.
"""
import json

import numpy as np


def json_text(payload, sort_keys=False):
    """The text of ``json.dumps(payload, indent=1, sort_keys=sort_keys)``."""
    return _encode(payload, 0, sort_keys)


def _encode(o, level, sort_keys):
    if isinstance(o, dict):
        if not o:
            return "{}"
        pad = "\n" + " " * (level + 1)
        items = sorted(o.items()) if sort_keys else o.items()
        body = ("," + pad).join(
            f"{_key(k)}: {_encode(v, level + 1, sort_keys)}" for k, v in items)
        return "{" + pad + body + pad[:-1] + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        pad = "\n" + " " * (level + 1)
        if all(isinstance(x, float) for x in o):
            # float reprs hold no ", ", so only separators are replaced
            body = json.dumps(o)[1:-1].replace(", ", "," + pad)
        else:
            body = ("," + pad).join(_encode(x, level + 1, sort_keys)
                                    for x in o)
        return "[" + pad + body + pad[:-1] + "]"
    return json.dumps(o)


def _key(k):
    """A dict key as the stdlib writes it: non-string keys as their JSON
    scalar text, quoted."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(k).__name__}")
        k = json.dumps(k)
    return json.dumps(k)


def rows_text(fmt, columns):
    """``fmt % row`` for every row of the stacked columns, concatenated:
    one ``%`` call for the whole block."""
    return (fmt * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


def write_csv(path, header, columns):
    """``np.savetxt(path, np.column_stack(columns), delimiter=",",
    header=header, comments="")``: a header line, then ``%.18e`` rows."""
    fmt = ",".join(["%.18e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(rows_text(fmt, columns))
