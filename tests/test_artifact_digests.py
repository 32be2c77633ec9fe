"""The byte contract of the CLI: every file that `bourgen demo` and
`bourgen family` write keeps the sha256 recorded in artifact_digests.json.

The digests hold for the toolchain that the data file names; on another
Python or numpy the test is skipped, since float formatting and numpy's
rounding may differ there.  To record digests after a deliberate change of
the bytes, run this file as a script from the repository root
(``PYTHONPATH=src python tests/test_artifact_digests.py``) and replace the
``digests`` entry with what it prints.
"""
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bourgen.cli import DEMOS, main

DATA = Path(__file__).with_name("artifact_digests.json")

# one two-member family config per space kind
FAMILIES = {
    "helicoidal": {
        "space": {"kind": "euclidean_helicoidal", "a": 1.0},
        "generatrix": "sqrt(s^2+2)", "m_values": [1.2, 2.0],
        "s_range": [0.5, 2.0], "step": 0.002, "theta0": 0.1,
        "grid": {"s_count": 41, "t_count": 41, "t_range": [-0.2, 0.8]}},
    "bcv": {
        "space": {"kind": "bcv_helicoidal", "a": 1.0, "kappa": 1.0, "tau": 1.0},
        "generatrix": "sqrt(s^2+4)", "m_values": [0.9, 1.1],
        "s_range": [0.0, 1.0], "step": 0.005, "theta0": -0.3,
        "grid": {"s_count": 41, "t_count": 41, "t_range": [0.3, 1.3]}},
    "rotational": {
        "space": {"kind": "euclidean_rotational", "a": 0.0},
        "generatrix": "sqrt(s^2+1)", "m_values": [0.8, 1.0],
        "s_range": [-2.0, 2.0], "step": 0.01, "anchor": 0.0, "theta0": 0.2,
        "grid": {"s_count": 41, "t_count": 41, "t_range": [-0.5, 0.5]}},
}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, argv


def digests(tmp):
    """Run the three demos and the family configs into the directory tmp;
    the sha256 of every file written, by path relative to tmp."""
    tmp = Path(tmp)
    for name in sorted(DEMOS):
        _run(["demo", name, "--out", str(tmp / f"demo_{name}"), "--strict"])
    for kind, cfg in FAMILIES.items():
        path = tmp / f"{kind}.json"
        path.write_text(json.dumps(cfg))
        _run(["family", "--config", str(path), "--out",
              str(tmp / f"family_{kind}"), "--strict"])
    return {p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp.glob("*/*")) if p.is_file()}


def _toolchain():
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_artifacts_keep_their_digests(tmp_path):
    data = json.loads(DATA.read_text())
    if data["toolchain"] != _toolchain():
        pytest.skip(f"digests recorded with {data['toolchain']}, "
                    f"running {_toolchain()}")
    got = digests(tmp_path)
    assert got.keys() == data["digests"].keys()
    changed = sorted(k for k in got if got[k] != data["digests"][k])
    assert not changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump({"toolchain": _toolchain(), "digests": digests(tmp)},
                  sys.stdout, indent=1, sort_keys=True)
    print()
