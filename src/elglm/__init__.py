"""Expected log-likelihood (EL) toolkit for canonical GLMs.

Fast estimators (MELE / MPELE, L1 paths, a MAP refined from them by truncated
Newton), approximate marginal likelihood for ridge selection, posterior
sampling, risk theory, and simulators, all built around the sufficient
statistics (X'r, sum r) and the stimulus covariance so that likelihood
evaluations cost O(p), not O(Np).
"""

__version__ = "0.1.0"

from .structured import (
    Banded,
    Circulant,
    Dense,
    Diagonal,
    Kronecker,
    ScaledIdentity,
    StructuredMatrix,
    add_structured,
    from_config,
)
from .families import Bernoulli, CanonicalFamily, Gaussian, Poisson, nonlinearity_eval
from .glm import (
    ExactObjective,
    GlmDataset,
    GlmParams,
    exact_loglik,
    load_dataset,
    load_dataset_csv,
    save_dataset,
    simulate_responses,
)
from .el import (
    AnalyticExponential,
    AnalyticQuadratic,
    ELObjective,
    Elliptic1D,
    GaussianCLT,
    build_clt_engine,
    build_elliptic_table,
    el_loglik,
)
from .estimators import (
    FitResult,
    default_lambda_path,
    fit_exact,
    fit_exact_l1,
    mele,
    mpele_l1_general,
    mpele_l1_path,
    mpele_l1_path_diagonal,
)
from .selection import (
    el_logF_scalar,
    gaussian_evidence,
    laplace_evidence,
    rhat_analytic,
    rhat_analytic_shared,
    rhat_fixed_point,
)
from .sampling import (
    Chain,
    chain_summary,
    hmc_chain,
    laplace_gaussian_chain,
    lnp_el_profile_gaussian,
    make_potential,
    surrogate_hmc_chain,
)
from .risk import (
    crossover_rho,
    mc_mse,
    mp_density,
    mse_asymptotic,
    mse_closed_form,
    optimal_ridge,
)
from .population import (
    CoupledFilterSet,
    HistoryBasis,
    PopulationDataset,
    bits_per_second,
    build_population_design,
    history_uncertainty,
    stagewise_population_fit,
)
from .simulate import StimulusSpec, gen_coupled_population, gen_stimuli
