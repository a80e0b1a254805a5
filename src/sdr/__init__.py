"""Supervised linear dimension reduction for regression.

Nine methods under a uniform fit/reduce contract (classic PCA plus eight
response-aware variants), a downstream least-squares stage, and benchmark
protocols for synthetic and real data.
"""

from .data import (CenteringTransform, Dataset, FittedReducer, IngestError,
                   Moments, center_dataset, fit_centering, load_csv, reduce,
                   reducer_from_json, reducer_to_json)
from .intrinsic import (LspcaSolution, SppcaState, fit_barshan_extended,
                        fit_lspca, fit_lspca_grid, fit_pls_extended,
                        fit_pls_grid, fit_sppca, fit_sppca_model,
                        predict_sppca)
from .linalg import (DegenerateDirectionError, EigenPairs,
                     IterationLimitError, RankDeficientError, orthonormalize,
                     stiefel_step, sym_eig_top1, sym_eig_topk)
from .methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, METHODS, Method,
                      MethodFit, fit_method, fit_sweep)
from .regression import RegressionModel, mse, ols_fit
from .simulation import (BenchConfig, BenchReport, SpectrumSpec, SweepConfig,
                         TrialSpec, gamma_sweep, generate_trial,
                         random_orthogonal, run_benchmark)
from .wrappers import fit_bair, fit_pcps, fit_pv, score_variables

__all__ = [name for name in dir() if not name.startswith("_")]
