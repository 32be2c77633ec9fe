"""Every name that perfbench's tracer patches still resolves in bourgen,
so that removing or renaming one cannot silently break
``perfbench/run.py --trace 1``."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import bourgen as bg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(tracer):
    for module, path, name in tracer.TRACED:
        owner_path, _, attr = path.rpartition(".")
        owner = importlib.import_module(f"bourgen.{module}")
        if owner_path:
            owner = getattr(owner, owner_path)
        # the tracer patches what the owner itself defines, as vars() has it
        assert callable(getattr(owner, attr, None)), name
        assert attr in vars(owner), name


def test_frame_fields_resolve(tracer):
    for spec in (bg.SpaceSpec("euclidean_rotational"),
                 bg.SpaceSpec("euclidean_helicoidal", a=1.0),
                 bg.SpaceSpec("bcv_helicoidal", a=1.0, kappa=1.0, tau=1.0)):
        frame = bg.builtin_frame(spec)
        for field in tracer.FRAME_FIELDS:
            assert callable(getattr(frame, field, None)), (spec.kind, field)
