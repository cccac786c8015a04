"""GMN-Li: Graph Matching Networks (Li et al., ICML'19).

Table I configuration: 5 propagation layers of
``(MGNN[64,64,64], MATCHING[64,64], MLP(64*3,64,64))`` with euclidean
similarity, plus ``READOUT[64,128,128]``.

Per layer, each node receives (i) intra-graph messages produced by an
edge MLP over concatenated endpoint features (the paper calls this GNN
variant "MGNN"), and (ii) a cross-graph message: the attention-weighted
difference between the node and the other graph's nodes, where attention
weights come from the euclidean similarity matrix (Eq. 2). A node-update
MLP combines ``[x, m_intra, m_cross]`` (hence the 64*3 input width).

GMN-Li matches in *every* layer, so it is the model where CEGMA's
matching-stage optimizations pay off the most (Section V-B).

One forward serves every caller. It runs a batch of pairs the way GMN-Li's
reference implementation (and CEGMA's global adjacency, Fig. 15) does:
each pair's two graphs are row segments of one stacked node matrix, so
the encoder, edge MLP, update MLP and readout each run as one GEMM for
the whole batch. Each pair's outputs are bit-identical to running it
alone; ``docs/architecture.md`` (Models) records why each step is exact,
and the ``models.batched_vs_pair`` check holds it to that.
:meth:`GMNLi.forward_pair` is that forward over a batch of one with the
trace observer on; :meth:`GMNLi.score_pairs` is the trace-free form.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..emf.filter import MatchingPlan
from ..graphs.pairs import GraphPair
from ..trace.events import LayerTrace
from .base import GMNModel
from .layers import MLP, FlopCounter, Linear, sigmoid
from .similarity import (
    attention_flops,
    cross_graph_attention,
    cross_graph_attention_unique,
    matching_flops,
    similarity_matrix,
)

__all__ = ["GMNLi"]

GRAPH_EMBED_DIM = 128

#: Stacked edge rows per trace-free forward call; a pair with more runs
#: alone. Past about this many rows the edge MLP's input (128 doubles a
#: row) outgrows the core's L2 and stacking turns from a gain into a
#: loss: in a sweep on one core, AIDS pairs cost the same per pair from
#: 512 to 2048 rows, while COLLAB, GITHUB and RD-B pairs ran 15-45%
#: slower batched at 2048-4096 rows than alone.
_ROW_BUDGET = 1024


def _segments(sizes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Row offsets of stacked segments of the given sizes (one more than
    segments), and the row of every one-row segment."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts, starts[:-1][sizes == 1]


def _segment_forward(layer, rows: np.ndarray, single_rows: np.ndarray) -> np.ndarray:
    """``layer.forward`` over stacked row segments, bit-identical to one
    call per segment.

    One GEMM covers every segment; a GEMM's rows do not depend on how
    many rows it has. numpy hands a *one-row* operand to gemv instead,
    which rounds differently, so the rows of one-row segments are
    recomputed one row at a time, as a lone segment would be.
    """
    out = layer.forward(rows)
    for row in single_rows:
        out[row : row + 1] = layer.forward(rows[row : row + 1])
    return out


def _in_edge_ranks(dst: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Edges grouped by rank among their destination's in-edges.

    Entry ``k`` holds ``(edges, destinations)`` of every destination's
    ``k``-th in-edge in edge order, so no destination repeats within an
    entry.
    """
    if not len(dst):
        return []
    order = np.argsort(dst, kind="stable")
    ordered = dst[order]
    rank = np.empty_like(dst)
    rank[order] = np.arange(len(dst)) - np.searchsorted(ordered, ordered)
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank))[:-1]
    return [(edges, dst[edges]) for edges in np.split(by_rank, bounds)]


def _scatter_sum(
    num_rows: int,
    ranks: List[Tuple[np.ndarray, np.ndarray]],
    messages: np.ndarray,
) -> np.ndarray:
    """Sum edge messages into their destination rows.

    Adds one in-edge rank at a time, so every destination sums its
    in-edges in edge order starting from zero, exactly as
    ``np.add.at`` on a zero matrix does for a lone graph. A segmented
    reduction such as ``np.add.reduceat`` sums in another order.
    """
    summed = np.zeros((num_rows, messages.shape[1]))
    for edges, destinations in ranks:
        summed[destinations] += messages[edges]
    return summed


def _row_chunks(pairs: Sequence[GraphPair]) -> Iterator[List[GraphPair]]:
    """Consecutive runs of pairs within the stacked edge-row budget."""
    chunk: List[GraphPair] = []
    rows = 0
    for pair in pairs:
        edges = pair.target.num_edges + pair.query.num_edges
        if chunk and rows + edges > _ROW_BUDGET:
            yield chunk
            chunk, rows = [], 0
        chunk.append(pair)
        rows += edges
    if chunk:
        yield chunk


class GMNLi(GMNModel):
    """Graph Matching Network with layer-wise euclidean matching."""

    def __init__(
        self,
        input_dim: int = 1,
        hidden_dim: int = 64,
        num_layers: int = 5,
        seed: int = 0,
        use_emf: bool = False,
    ) -> None:
        super().__init__(
            name="GMN-Li",
            similarity="euclidean",
            matching_mode="layer-wise",
            num_layers=num_layers,
            hidden_dim=hidden_dim,
            seed=seed,
            matching_usage="in-layer",
            use_emf=use_emf,
        )
        self.input_dim = input_dim
        rng = self._rng
        self.encoder = Linear(input_dim, hidden_dim, rng)
        # One (edge MLP, update MLP) pair per propagation layer. Weights
        # are shared between the target and query graphs, as in GMN-Li.
        self.edge_mlps = [
            MLP([2 * hidden_dim, hidden_dim, hidden_dim], rng)
            for _ in range(num_layers)
        ]
        self.update_mlps = [
            MLP([3 * hidden_dim, hidden_dim, hidden_dim], rng)
            for _ in range(num_layers)
        ]
        # READOUT[64,128,128]: gated sum into a 128-d graph vector.
        self.readout_gate = Linear(hidden_dim, GRAPH_EMBED_DIM, rng)
        self.readout_transform = Linear(hidden_dim, GRAPH_EMBED_DIM, rng)
        self.readout_final = Linear(GRAPH_EMBED_DIM, GRAPH_EMBED_DIM, rng)

    # ------------------------------------------------------------------
    def forward_pair(self, pair: GraphPair):
        return self._forward([pair], trace=True)[0]

    def score_pairs(self, pairs: Sequence[GraphPair]):
        outputs = []
        for chunk in _row_chunks(pairs):
            outputs += self._forward(chunk, trace=False)
        return outputs

    def _filtered_attention(self, x, y, flops):
        """EMF-filtered cross-graph messages of one pair.

        Similarity and attention both run in unique-node space;
        duplicates receive broadcast copies. Exact w.r.t. the dense path
        (duplicate query columns enter the softmax via their
        multiplicities).
        """
        plan = MatchingPlan.from_features(x, y)
        unique_x = x[plan.target_filter.unique_indices]
        unique_y = y[plan.query_filter.unique_indices]
        unique_similarity = similarity_matrix(unique_x, unique_y, "euclidean", flops)
        mu_target = plan.target_filter.expand_rows(
            cross_graph_attention_unique(
                unique_x,
                unique_y,
                unique_similarity,
                plan.query_filter.multiplicities(),
                flops,
            )
        )
        mu_query = plan.query_filter.expand_rows(
            cross_graph_attention_unique(
                unique_y,
                unique_x,
                unique_similarity.T,
                plan.target_filter.multiplicities(),
                flops,
            )
        )
        return mu_target, mu_query

    def _forward(self, pairs: Sequence[GraphPair], trace: bool) -> list:
        """One forward pass over a batch of pairs.

        Returns one ``(score, head features)`` per pair, or with
        ``trace`` one :class:`~repro.trace.events.PairTrace` per pair
        (per-layer input features and per-phase FLOPs). Pair ``p``'s
        target and query are stacked segments ``2p`` and ``2p + 1``.
        """
        for pair in pairs:
            if (
                pair.target.feature_dim != self.input_dim
                or pair.query.feature_dim != self.input_dim
            ):
                raise ValueError(
                    f"{self.name} was built for input dim {self.input_dim}, got "
                    f"{pair.target.feature_dim}/{pair.query.feature_dim}"
                )
        graphs = [graph for pair in pairs for graph in (pair.target, pair.query)]
        nodes = [graph.num_nodes for graph in graphs]
        edges = [graph.num_edges for graph in graphs]
        starts, single_nodes = _segments(nodes)
        _, single_edges = _segments(edges)
        src = np.concatenate(
            [graph.src + start for graph, start in zip(graphs, starts)]
        )
        dst = np.concatenate(
            [graph.dst + start for graph, start in zip(graphs, starts)]
        )
        ranks = _in_edge_ranks(dst)
        segment = [slice(starts[s], starts[s + 1]) for s in range(len(graphs))]
        # Matching runs per group of equal-shape pairs, on 3-D stacks:
        # padding to a common shape would change the GEMMs' K and the
        # sums' blocking. A pair with an empty side keeps mu = x.
        shapes: Dict[Tuple[int, int], List[int]] = {}
        for p in range(len(pairs)):
            n, m = nodes[2 * p], nodes[2 * p + 1]
            if n and m:
                shapes.setdefault((n, m), []).append(p)
        groups = [
            (
                starts[2 * np.array(members)][:, None] + np.arange(n),
                starts[2 * np.array(members) + 1][:, None] + np.arange(m),
            )
            for (n, m), members in shapes.items()
        ]

        x = _segment_forward(
            self.encoder,
            np.concatenate([graph.node_features for graph in graphs]),
            single_nodes,
        )
        layer_traces: List[List[LayerTrace]] = [[] for _ in pairs]
        for layer in range(self.num_layers):
            if trace:
                # The features entering this layer: exactly the X^l / Y^l
                # the matching stage of this layer consumes.
                inputs = [x[rows].copy() for rows in segment]
            messages = _scatter_sum(
                len(x),
                ranks,
                _segment_forward(
                    self.edge_mlps[layer],
                    np.concatenate([x[src], x[dst]], axis=1),
                    single_edges,
                ),
            )
            flops = [FlopCounter() for _ in pairs] if trace else None
            if self.use_emf:
                mu = np.empty_like(x)
                for p in range(len(pairs)):
                    target, query = segment[2 * p], segment[2 * p + 1]
                    mu[target], mu[query] = self._filtered_attention(
                        x[target], x[query], flops[p] if trace else None
                    )
            else:
                mu = x.copy()
                for target_rows, query_rows in groups:
                    xt, xq = x[target_rows], x[query_rows]
                    similarity = similarity_matrix(xt, xq, "euclidean")
                    mu[target_rows] = cross_graph_attention(xt, xq, similarity)
                    mu[query_rows] = cross_graph_attention(
                        xq, xt, np.swapaxes(similarity, -1, -2)
                    )
            x = _segment_forward(
                self.update_mlps[layer],
                np.concatenate([x, messages, mu], axis=1),
                single_nodes,
            )
            if not trace:
                continue
            for p, counter in enumerate(flops):
                n, m = nodes[2 * p], nodes[2 * p + 1]
                pair_edges = edges[2 * p] + edges[2 * p + 1]
                # The edge MLP is a dense GEMM over gathered endpoint
                # features (combination-class work on any platform);
                # only the per-edge scatter-sum is aggregation.
                counter.add(
                    "combine",
                    self.edge_mlps[layer].flop_count(pair_edges)
                    + self.update_mlps[layer].flop_count(n + m),
                )
                counter.add("aggregate", pair_edges * self.hidden_dim)
                if not self.use_emf:
                    counter.add(
                        "match",
                        matching_flops(n, m, self.hidden_dim, "euclidean")
                        + attention_flops(n, m, self.hidden_dim)
                        + attention_flops(m, n, self.hidden_dim),
                    )
                layer_traces[p].append(
                    LayerTrace(
                        layer_index=layer,
                        target_features=inputs[2 * p],
                        query_features=inputs[2 * p + 1],
                        in_dim=self.hidden_dim,
                        out_dim=self.hidden_dim,
                        has_matching=True,
                        similarity="euclidean",
                        flops=counter,
                    )
                )

        # READOUT: gated sum per graph, then the final transform.
        gated = sigmoid(
            _segment_forward(self.readout_gate, x, single_nodes)
        ) * _segment_forward(self.readout_transform, x, single_nodes)
        vectors = [
            self.readout_final.forward(gated[rows].sum(axis=0)) for rows in segment
        ]
        outputs = []
        for p, pair in enumerate(pairs):
            h_target, h_query = vectors[2 * p], vectors[2 * p + 1]
            # Similarity score: negative euclidean distance between the
            # graph vectors, squashed to (0, 1) for comparability across
            # models.
            distance = float(np.linalg.norm(h_target - h_query))
            score = 1.0 / (1.0 + distance)
            # Pairwise interaction features for trainable scoring heads.
            head_features = np.concatenate(
                [np.abs(h_target - h_query), h_target * h_query]
            )
            if not trace:
                outputs.append((score, head_features))
                continue
            n = nodes[2 * p] + nodes[2 * p + 1]
            readout_flops = FlopCounter()
            readout_flops.add("combine", self.encoder.flop_count(n))
            readout_flops.add(
                "other",
                self.readout_gate.flop_count(n)
                + self.readout_transform.flop_count(n)
                + 2 * n * self.hidden_dim
                + 2 * self.readout_final.flop_count(1),
            )
            outputs.append(
                self._make_trace(
                    pair,
                    layer_traces[p],
                    readout_flops,
                    score,
                    head_features=head_features,
                )
            )
        return outputs
