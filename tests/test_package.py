"""Public API surface stays importable from the package root."""

import invseries


def test_public_names_resolve():
    for name in (
        "Context", "MPVector", "MPMatrix", "scalar_from_decimal", "lu_invert",
        "norm_inf", "format_scalar", "TaylorPoly", "jet_var", "jet_mul",
        "jet_recip", "jet_compose_univariate", "jet_partial",
        "parse_problem", "eval_scalar", "eval_jet",
        "Problem", "SeriesMatrix", "jacobian", "jacobian_series",
        "series_matrix_inverse", "build_terms", "apply_update",
        "SolveConfig", "IterationTrace", "Status", "solve",
        "OrderEstimate", "estimate_order_known_root", "estimate_order_successive",
        "error_constant_check", "render_table", "BUILTIN_NAMES", "builtin_problem",
        "InvseriesError", "SingularMatrixError", "ParseError",
    ):
        assert hasattr(invseries, name), name


def test_version():
    assert invseries.__version__
