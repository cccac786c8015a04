"""Lightweight trainable scoring heads.

The reproduction focuses on inference *performance*, which is
independent of weight values — but the paper's premise is that GMNs are
*accurate* similarity predictors, and CEGMA's correctness claim is that
EMF filtering changes nothing about the prediction. This module makes
both claims checkable: it trains a logistic-regression head on the
features each model's backbone extracts (GraphSim's pooled CNN features,
SimGNN's NTN+histogram vector, GMN-Li's graph-vector interactions) for
the paper's similar/dissimilar classification task, entirely in numpy.

Even with a random backbone, these interaction features are informative
(the similar counterpart differs by 1 substituted edge, the dissimilar
one by 4), so trained heads score well above chance — and identically
whether the backbone ran dense or EMF-filtered matching.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.pairs import GraphPair
from .base import GMNModel
from .layers import sigmoid

__all__ = ["LogisticHead", "extract_features", "train_scorer", "evaluate_scorer"]


class LogisticHead:
    """Logistic regression trained with full-batch gradient descent."""

    def __init__(self, weights: np.ndarray, bias: float, mean: np.ndarray, scale: np.ndarray) -> None:
        self.weights = weights
        self.bias = bias
        self.mean = mean
        self.scale = scale

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 300,
        learning_rate: float = 0.5,
        l2: float = 1e-3,
    ) -> "LogisticHead":
        """Fit on standardized features; deterministic (zero init)."""
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("one label per feature row required")
        if features.shape[0] < 2:
            raise ValueError("need at least two training examples")
        mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale < 1e-12] = 1.0
        standardized = (features - mean) / scale
        n, d = standardized.shape
        weights = np.zeros(d)
        bias = 0.0
        for _ in range(epochs):
            logits = standardized @ weights + bias
            probabilities = sigmoid(logits)
            error = probabilities - labels
            weights -= learning_rate * (
                standardized.T @ error / n + l2 * weights
            )
            bias -= learning_rate * float(error.mean())
        return cls(weights, bias, mean, scale)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        standardized = (features - self.mean) / self.scale
        return sigmoid(standardized @ self.weights + self.bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(int)


def extract_features(
    model: GMNModel, pairs: Sequence[GraphPair]
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the backbone and collect (head features, labels)."""
    if any(pair.label is None for pair in pairs):
        raise ValueError("training requires labeled pairs")
    features: List[np.ndarray] = []
    labels: List[int] = []
    for pair, (_, head_features) in zip(pairs, model.score_pairs(pairs)):
        if head_features is None:
            raise ValueError(f"{model.name} does not expose head features")
        features.append(head_features)
        labels.append(pair.label)
    return np.vstack(features), np.asarray(labels, dtype=float)


def train_scorer(
    model: GMNModel,
    train_pairs: Sequence[GraphPair],
    epochs: int = 300,
) -> LogisticHead:
    """Train a similarity classifier head for the given backbone."""
    features, labels = extract_features(model, train_pairs)
    return LogisticHead.fit(features, labels, epochs=epochs)


def evaluate_scorer(
    model: GMNModel,
    head: LogisticHead,
    test_pairs: Sequence[GraphPair],
) -> float:
    """Classification accuracy on labeled test pairs."""
    features, labels = extract_features(model, test_pairs)
    predictions = head.predict(features)
    return float((predictions == labels).mean())
