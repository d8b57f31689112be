"""The benchmark tracer (perfbench/tracer.py) still binds the library's names.

The tracer wraps methods it finds in a class's own body and module functions
by name; a refactor that moves or renames one of them makes ``install()``
raise. This test installs and uninstalls it without running an operation.
"""

import importlib.util
import pathlib

import elglm.glm as glm
import elglm.sampling as sampling

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_originals():
    value = glm.ExactObjective.__dict__["value"]
    potential = sampling.make_potential
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert glm.ExactObjective.__dict__["value"] is not value
        assert sampling.make_potential is not potential
    finally:
        tracer.uninstall()
    assert glm.ExactObjective.__dict__["value"] is value
    assert sampling.make_potential is potential
