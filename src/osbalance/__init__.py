"""Sparse matrix balancing by iterative diagonal similarity scaling."""

__version__ = "0.1.0"

from .core import (BalancingError, ImbalanceCertificate, NotBalanceableError,
                   ScalingOverflowError, SparseNonnegMatrix, build_matrix,
                   gradient, imbalance, potential, row_col_sums_at,
                   scaled_matrix, verify_balance)
from .instances import (CycleBound, InstanceStats, gen_kalantari,
                        gen_random_sparse, gen_salient, lp_reduce,
                        scc_decompose, stats, theoretical_cycle_bound)
from .lowbit import (FixedContext, LowbitConfig, LowbitState,
                     inexact_terminate_check, log_sum_exp, lowbit_update,
                     run_lowbit)
from .mmio import (ParseError, read_matrix_market, read_scaling,
                   write_matrix_market, write_scaling)
from .parallel import (Coloring, ImproperColoringError, greedy_color,
                       run_parallel, validate_coloring)
from .solver import (BalanceReport, GreedyState, SolverConfig, Strategy,
                     TrajectorySample, WeightedState, greedy_index,
                     osborne_update, run, weighted_sample)

__all__ = [name for name in dir() if not name.startswith("_")]
