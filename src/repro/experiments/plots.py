"""Terminal charts for experiment results (the CLI's ``--plot`` flag).

Each supported experiment id maps to a renderer turning its raw data
into ASCII charts; unsupported experiments simply render no chart.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..analysis.ascii_plot import bar_chart, line_plot, log_bar_chart
from .common import ExperimentResult

__all__ = ["render_plots"]


def _plot_fig02(result: ExperimentResult) -> str:
    series = {
        platform: [
            (float(size), row[platform] * 1e3)
            for size, row in sorted(result.data["series"].items())
        ]
        for platform in ("PyG-GPU", "AWB-GCN")
    }
    return line_plot(series, title="latency per pair (ms) vs graph size")


def _plot_fig04(result: ExperimentResult) -> str:
    series = {
        dataset: list(
            zip(
                [float(i) for i in range(len(row["cdf"]))],
                [float(v) for v in row["cdf"]],
            )
        )
        for dataset, row in result.data.items()
    }
    return line_plot(series, title="reuse-distance CDF (x = log2 distance)")


def _plot_fig16(result: ExperimentResult) -> str:
    gains = {
        platform: value
        for platform, value in result.data["cegma_mean_gain"].items()
        if platform != "CEGMA"
    }
    return log_bar_chart(gains, title="mean CEGMA speedup over each platform")


def _plot_fig18(result: ExperimentResult) -> str:
    removed = {
        dataset: 100.0
        * (1 - sum(row.values()) / len(row))
        for dataset, row in result.data.items()
    }
    return bar_chart(removed, title="matching removed by EMF (%)")


def _plot_fig25(result: ExperimentResult) -> str:
    series = {
        platform: [
            (float(size), row[platform])
            for size, row in sorted(result.data.items())
        ]
        for platform in ("HyGCN", "AWB-GCN")
    }
    return line_plot(series, title="CEGMA speedup vs graph size")


def _plot_fig21(result: ExperimentResult) -> str:
    return bar_chart(
        result.data["mean_speedup"],
        title="mean ablation speedup over AWB-GCN",
    )


_RENDERERS: Dict[str, Callable[[ExperimentResult], str]] = {
    "fig02": _plot_fig02,
    "fig04": _plot_fig04,
    "fig20": _plot_fig04,  # same CDF structure per dataset
    "fig16": _plot_fig16,
    "fig18": _plot_fig18,
    "fig21": _plot_fig21,
    "fig25": _plot_fig25,
}


def render_plots(result: ExperimentResult) -> str:
    """Charts for a result, or an empty string when none are defined."""
    renderer = _RENDERERS.get(result.name)
    if renderer is None:
        return ""
    return renderer(result)
