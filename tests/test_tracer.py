"""The benchmark tracer (perfbench/tracer.py) still binds the library's names.

The tracer wraps methods it finds in a class's own body and module functions
by name; a refactor that moves or renames one of them makes ``install()``
raise. This test installs and uninstalls it without running an operation, and
checks the names the benchmark runner reads from the library.
"""

import importlib.util
import pathlib

import numpy as np

import elglm._cd as cd
import elglm.cli as cli
import elglm.estimators as estimators
import elglm.glm as glm
import elglm.sampling as sampling
from elglm.families import Poisson

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_originals():
    # the run environment records it (perfbench/run.py)
    assert isinstance(cli.CD_BACKEND, str)
    value = glm.ExactObjective.__dict__["value"]
    chain = sampling.hmc_chain
    kernel = cd.cd_quadratic_l1
    assert estimators.cd_quadratic_l1 is kernel
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert glm.ExactObjective.__dict__["value"] is not value
        assert sampling.hmc_chain is not chain
        # the CD counters come from both bindings of the kernel
        assert cd.cd_quadratic_l1 is not kernel
        assert estimators.cd_quadratic_l1 is not kernel
    finally:
        tracer.uninstall()
    assert glm.ExactObjective.__dict__["value"] is value
    assert sampling.hmc_chain is chain
    assert cd.cd_quadratic_l1 is kernel
    assert estimators.cd_quadratic_l1 is kernel


def test_traced_chain_records_its_acceptance():
    """A chain run through the tracer's wrapper returns its draws and leaves
    its target's acceptance in the tracer's counters."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    data = glm.GlmDataset(X, rng.poisson(0.5, size=50).astype(float), Poisson())
    obj = glm.ExactObjective(data, fit_offset=True)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        x = np.array([-0.7, 0.0, 0.0, 0.0])
        chain = sampling.hmc_chain(
            lambda z: -obj.value(z), lambda z: -obj.grad(z), x, step=0.05, n_leapfrog=3, draws=3, seed=1
        )
    finally:
        tracer.uninstall()
    assert chain.samples.shape == (3, 4) and np.all(np.isfinite(chain.samples))
    assert tracer.counters[(-1, "sampling.acceptance.exact")] == chain.acceptance_rate
