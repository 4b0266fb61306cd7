"""Exact-symbolic and certified-numeric normalization toolkit.

Two pipelines around the same normalization equation phi o f = z^alpha o phi:

* a truncated exact calculus for logarithmic transseries (keys in Q x Z^k,
  lex order, exactness frontiers) with Bottcher-operator fixed-point
  normalization, canonical prenormalization and support control;
* certified numerics for analytic maps f(zeta) = alpha zeta + o((log^ok)^-eps)
  on admissible complex domains (Koenigs iteration with tail bounds and a
  Schroder-type homological solver), bridged through Dulac series in both
  charts.

The functions `compose` and `normalize` are re-exported under the names of
their modules, so `import bottcher.compose as C` binds the function, not
the module, and so does `import bottcher.normalize as N`;
`importlib.import_module("bottcher.compose")` returns the module.
"""

from .coeffs import EXACT, FLOAT, Exact
from .errors import (
    BottcherError,
    CertificationError,
    DepthOverflowError,
    DomainError,
    EmptySeriesError,
    ModeError,
    ParseError,
    ShapeError,
)
from .keys import Key, ell_key, zero_key
from .series import (
    TransSeries,
    TruncationGrid,
    add,
    identity_series,
    leading_term,
    make_series,
    monomial,
    mul,
    ord_z,
    pow_rational,
    series_inverse,
    sub,
)
from . import blocks  # noqa: F401  (empty; bench/tracer.py looks it up by name)
from .compose import (
    Composer,
    HyperbolicShape,
    compose,
    compose_power,
    invert,
    reduce_alpha,
    reduce_lambda,
    shape_of,
)
from .normalize import (
    NormalizationResult,
    SemigroupSpec,
    bottcher_R_op,
    bottcher_iterates,
    bottcher_op,
    bottcher_sequence,
    enumerate_semigroup,
    normalize,
    order_bound_check,
    prenormalize,
    semigroup_contains,
    solve_W,
    support_predict,
)
from .domains import (
    AsymptoticSpec,
    DomainSpec,
    invariant_threshold,
    lower_map_check,
    upper_map_check,
)
from .koenigs import (
    KoenigsResult,
    koenigs_normalize,
    koenigs_residual,
    solve_homological,
)
from .dulac import (
    DulacSeriesZ,
    DulacSeriesZeta,
    compare_formal_numeric,
    dulac_normalize_full,
    is_dulac,
    partial_normalizations,
    to_z_chart,
    to_zeta_chart,
)
from .parser import parse
from .printer import format_series
from types import ModuleType as _ModuleType

__all__ = sorted(n for n, v in globals().items() if not (n[0] == "_" or isinstance(v, _ModuleType)))
__version__ = "0.1.0"
