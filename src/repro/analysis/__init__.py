"""Measurement and comparison utilities used by tests and benchmarks."""

from repro._lazy import lazy_exports

#: submodule -> the public names it defines, imported on first use
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "equivalence": (
            "EquivalenceReport check_css_compactness "
            "check_css_equals_union_of_dss check_dss_subset_of_css "
            "compare_protocols final_documents_agree"
        ),
        "latency": (
            "LatencyStats percentile propagation_stats "
            "staleness_per_operation summarise"
        ),
        "metrics": "ClusterMetrics collect_metrics",
        "render": "render_behavior render_documents render_nary_space to_dot",
    },
)
