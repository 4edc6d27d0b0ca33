"""Tempered operator-scaling random fields.

Matrix functional calculus, anisotropic polar geometry, tempered kernel
families, exact Gaussian covariances of the isotropic instances, field
synthesis and sample-path estimators, with oracle cross-checks between
the moving-average and harmonizable representations.
"""

__version__ = "0.1.0"

from .aniso import EHomogeneousFn, PolarPoint, norm0, phi_extrema, polar_decompose
from .covariance import CovarianceModel, IsotropicGaussianSpec
from .kernels import (FieldSpec, MeasureSpec, existence_check, h_kernel,
                      ma_kernel, mab_kernel, tfsm_kernel)
from .matfun import (MatrixExponent, StemFunction, matrix_bessel_k,
                     matrix_power, primary_matrix_fn, spectral_bounds)
from .simulate import (GridSpec, Realization, gaussian_exact, ma_synthesis,
                       sas_sample, spectral_synthesis, tfsm_synthesis)
from .specfun import bessel_j, bessel_k, beta_fn, gamma_fn, hyp2f1
