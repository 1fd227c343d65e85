"""Exact symbolic engine and verifier for a conformal operator algebra.

The package builds the fifteen-generator algebra of relativistic symmetry
transformations over an exact coefficient field (rational functions of the
four momentum components extended by a square root of the mass-squared
polynomial), derives localisation, spin, and canonical observables inside
it, and mechanically verifies the identity catalogue shipped under
catalog/. All arithmetic is exact; every check has residual zero or fails.
"""

from .conformal import GENERATORS, build_algebra, gen_expr, gen_name
from .dsl import ast_pretty, elaborate, parse
from .errors import (
    ArityError,
    ConfalgError,
    ConsistencyFailure,
    ConstructionFailure,
    DivisionByZero,
    DslSyntaxError,
    IndexRangeError,
    NonCoefficientDivisor,
    NotInvertible,
    RewriteBudgetExceeded,
    UnboundIndex,
    UnknownIdentity,
    UnknownSymbol,
)
from .field import FieldElem, RationalFunction
from .nc import DEFAULT_BUDGET, Algebra, NCExpr
from .observables import Observables
from .poly import Polynomial
from .suites import (
    SUITE_TAGS,
    Identity,
    IdentityResult,
    SuiteReport,
    catalog_by_suite,
    find_identity,
    get_context,
    load_catalog,
    report_json,
    report_text,
    report_to_dict,
    reports_to_dict,
    run_all,
    run_identity,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATORS", "build_algebra", "gen_expr", "gen_name",
    "ast_pretty", "elaborate", "parse",
    "ConfalgError", "DivisionByZero", "NotInvertible",
    "RewriteBudgetExceeded", "ConsistencyFailure",
    "ConstructionFailure", "DslSyntaxError", "UnknownSymbol", "ArityError",
    "UnboundIndex", "IndexRangeError", "NonCoefficientDivisor",
    "UnknownIdentity",
    "FieldElem", "RationalFunction", "Polynomial",
    "DEFAULT_BUDGET", "Algebra", "NCExpr",
    "Observables",
    "SUITE_TAGS", "Identity", "IdentityResult", "SuiteReport",
    "catalog_by_suite", "find_identity", "get_context", "load_catalog",
    "report_json", "report_text", "report_to_dict", "reports_to_dict",
    "run_all", "run_identity", "run_suite",
    "__version__",
]
