"""Modular-symbol statistics for rational elliptic curves of squarefree
conductor: exact path decompositions, a certified period table, scan
statistics with their closed-form limits, and a CLI tying it together.
"""

from .eigenform import (
    CacheFormatError,
    ConductorError,
    CurveSpec,
    Eigenform,
    TruncationError,
    build_eigenform,
    lfun1,
    load_or_build_eigenform,
)
from .exactmath import (
    P1Table,
    cf_decompose,
    divisors_squarefree,
    p1_table,
    squarefree_factors,
)
from .periods import (
    PeriodTable,
    SymbolValue,
    build_period_table,
    direct_symbol_oracle,
    hecke_residual,
    period_sum,
    read_table_cache,
    symbol,
    write_table_cache,
)
from .scanstats import (
    AggregateRow,
    DistributionReport,
    FitResult,
    ScanSpec,
    SymbolStore,
    contiguous_avg,
    distribution_report,
    scan,
    variance_fit,
    weyl_report,
)
from .theory import (
    TheoryConstants,
    build_theory,
    ghat,
    load_lvalue_fixture,
    petersson_quadrature,
    shift_coefficients,
    shift_value,
    slope_from_L,
    sym2_l_from_petersson,
    volume,
)

__version__ = "0.1.0"
