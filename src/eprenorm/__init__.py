"""Exceptional points of a linearized optomechanical system whose mechanics
damps into a structured (Lorentzian-cutoff) bath, treated exactly through an
auxiliary-mode embedding.

The package locates the memory-renormalized exceptional point of the
three-mode drift matrix, quantifies mode nonorthogonality through Petermann
factors, computes the cavity reflection spectrum, and cross-validates the
embedding by direct integration of the memory convolution.
"""

__version__ = "0.1.0"

from .charpoly import schur_effective_block
from .config import load_config
from .embedcheck import compare_embeddings, convergence_order
from .epsolver import certify_order_two, markovian_ep, mech_renorm, perturbative_ep, solve_exact_ep
from .model import DriveParams, SystemParams, drift_markovian, drift_nonmarkovian
from .response import Spectrum, cooperativity, dip_metrics, reflection, spectrum
from .spectral import Sweep, eigensystem, petermann_at, sweep_eigs, sweep_petermann

# README's "Library use", one line per step; every other public name is
# imported from its own module.
__all__ = [
    "__version__",
    "SystemParams", "DriveParams", "load_config",  # inputs
    "drift_markovian", "drift_nonmarkovian", "schur_effective_block", "mech_renorm",  # model
    "markovian_ep", "perturbative_ep", "solve_exact_ep", "certify_order_two",  # the EP shift
    "eigensystem", "petermann_at", "sweep_eigs", "sweep_petermann", "Sweep",  # Petermann factors
    "spectrum", "reflection", "Spectrum", "dip_metrics", "cooperativity",  # the OMIT dip
    "compare_embeddings", "convergence_order",  # the embedding self-check
]
