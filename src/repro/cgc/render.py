"""Human-readable renderings of window schedules (Fig. 8/12 style).

The paper explains its window schemes through step tables ("Input
Nodes", "Edges", "Matching", "Total Miss Count") and annotated
adjacency matrices. This module renders both from a
:class:`~repro.cgc.window.WindowSchedule`, for documentation, debugging,
and the walkthrough example.
"""

from __future__ import annotations

from typing import List, Optional

from ..graphs.pairs import GraphPair
from .window import WindowSchedule, _pair_edges

__all__ = [
    "schedule_table",
    "node_name",
    "schedule_summary",
    "adjacency_step_matrix",
    "render_step_matrix",
]


def node_name(node: int, num_target_nodes: int) -> str:
    """Paper-style node labels: targets 1..n, queries a, b, c, ...

    Query graphs larger than 26 nodes extend to a1, b1, ... suffixes.
    """
    if node < num_target_nodes:
        return str(node + 1)
    query_index = node - num_target_nodes
    letter = chr(ord("a") + query_index % 26)
    suffix = query_index // 26
    return letter if suffix == 0 else f"{letter}{suffix}"


def schedule_table(
    schedule: WindowSchedule,
    pair: Optional[GraphPair] = None,
    max_steps: Optional[int] = None,
) -> str:
    """Render a schedule as the paper's step table.

    With a ``pair``, nodes are labelled in the paper's style (numbers
    for the target graph, letters for the query graph); otherwise raw
    global indices are shown.
    """
    num_target = pair.target.num_nodes if pair is not None else None

    def label(node: int) -> str:
        if num_target is None:
            return str(node)
        return node_name(node, num_target)

    rows: List[List[str]] = []
    running_misses = 0
    steps = schedule.steps if max_steps is None else schedule.steps[:max_steps]
    for index, step in enumerate(steps, start=1):
        running_misses += step.misses
        nodes = ",".join(label(n) for n in sorted(step.input_nodes))
        rows.append(
            [
                str(index),
                nodes,
                str(step.num_edges) if step.num_edges else "-",
                str(step.num_matchings) if step.num_matchings else "-",
                str(running_misses),
                step.kind,
            ]
        )
    headers = ["step", "input nodes", "edges", "matchings", "total misses", "kind"]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    if max_steps is not None and len(schedule.steps) > max_steps:
        lines.append(f"... ({len(schedule.steps) - max_steps} more steps)")
    return "\n".join(lines)


def schedule_summary(schedule: WindowSchedule) -> str:
    """One-line summary: scheme, steps, misses, covered work."""
    return (
        f"{schedule.scheme}: {schedule.num_steps} steps, "
        f"{schedule.total_misses} misses, "
        f"{schedule.total_matchings} matchings, "
        f"{schedule.total_edges} edges"
    )


def adjacency_step_matrix(
    schedule: WindowSchedule, pair: GraphPair
) -> List[List[str]]:
    """Fig. 8/12-style annotated global adjacency matrix.

    Returns a grid (list of rows of cell strings) over the pair's global
    adjacency: each intra-graph edge cell and cross-graph matching cell
    is labelled with the 1-based step index at which the schedule
    processes it; untouched cells are blank. The header row/column carry
    the paper-style node names.
    """
    n_t = pair.target.num_nodes
    total = pair.total_nodes
    cells = [["" for _ in range(total)] for _ in range(total)]

    remaining_edges = set(_pair_edges(pair))
    matched = set()

    for index, step in enumerate(schedule.steps, start=1):
        nodes = step.input_nodes
        for u, v in sorted(remaining_edges):
            if u in nodes and v in nodes:
                cells[u][v] = str(index)
        remaining_edges = {
            (u, v)
            for u, v in remaining_edges
            if not (u in nodes and v in nodes)
        }
        if step.num_matchings:
            for t_node in sorted(node for node in nodes if node < n_t):
                for q_node in sorted(node for node in nodes if node >= n_t):
                    if (t_node, q_node) not in matched:
                        cells[t_node][q_node] = str(index)
                        matched.add((t_node, q_node))

    header = [""] + [node_name(i, n_t) for i in range(total)]
    grid = [header]
    for row_index in range(total):
        grid.append(
            [node_name(row_index, n_t)] + cells[row_index]
        )
    return grid


def render_step_matrix(schedule: WindowSchedule, pair: GraphPair) -> str:
    """The step matrix as aligned text (the paper's Fig. 12 panels)."""
    grid = adjacency_step_matrix(schedule, pair)
    widths = [
        max(len(grid[r][c]) for r in range(len(grid)))
        for c in range(len(grid[0]))
    ]
    lines = []
    for row in grid:
        lines.append(
            " ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
