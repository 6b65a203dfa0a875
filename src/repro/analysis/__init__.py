"""Analysis: turning measurements into the paper's tables and figures."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "figures": ("Figure2Series", "Figure5Series", "figure2_plan",
                "figure2_series", "figure2_sweep", "figure5_attempts",
                "figure5_plan", "figure5_series", "render_figure2",
                "render_figure5"),
    "render": ("format_ms", "format_percent", "render_family_strip",
               "render_mark", "render_table"),
    "stats": ("StreamingCDF", "Summary", "cad_summary", "outlier_fraction",
              "rd_summary", "stall_summary", "summarize", "summarize_metric"),
    "tables": ("RESOLVER_DELAY_GRID", "Table2Row", "Table3Row", "Table4Row",
               "evaluate_client_features", "render_table2", "render_table3",
               "render_table4", "table1_parameters", "table2_features",
               "table2_plan", "table3_plan", "table3_resolvers",
               "table4_inventory", "table5_matrix"),
})
