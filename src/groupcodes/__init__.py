"""Exact duality and dynamics toolkit for abelian group codes over Z_M.

The layers, bottom up:

* ``residues``       Howell-canonical subgroups of (Z_M)^n and their algebra
* ``spaces``         time axes, symbol blocks, time-subset bookkeeping
* ``codes``          group codes: duals, restrictions, subcodes, conditioning
* ``dynamics``       state spaces, granules, memory tests and indices, chains
* ``machines``       state observer, observer-form encoder, syndrome-former
* ``convolutional``  windowed time-invariant codes and interior reports
* ``oracle``         brute-force enumeration ground truth
* ``verify``         randomized theorem harness
* ``cli``            command-line front end
"""

from .codes import (GroupCode, code_equal, code_intersect, code_sum,
                    conditioned, dual, restricted_subcode, restriction,
                    shorten)
from .convolutional import ConvSpec, WindowedCode, central_report, window
from .residues import (Subgroup, format_group, intersect, invariants,
                       orthogonal, quotient_invariants)
from .spaces import Interval, SymbolLayout
from .verify import run_trials

span = Subgroup.span

__all__ = [
    "ConvSpec", "GroupCode", "Interval", "Subgroup",
    "SymbolLayout", "WindowedCode", "central_report", "code_equal",
    "code_intersect", "code_sum", "conditioned", "dual", "format_group",
    "intersect", "invariants", "orthogonal", "quotient_invariants",
    "restricted_subcode", "restriction", "run_trials", "shorten", "span",
    "window",
]
