"""Model-agnostic explanations over the shared Predictor interface.

Four methods, all read-only over the model and the data:

  - permutation importance: AUC drop after shuffling one feature column
  - partial dependence: dataset-average prediction along one feature grid
  - ceteris paribus: single-instance what-if profile along one feature
  - break down: ordered additive attribution of one prediction

Partial dependence at a grid point is literally the mean of the ceteris
paribus values of all background rows at that point; both run through the
same substitution code so the identity holds to float roundoff.

The substitutions of one explainer step go to the model in one
`Predictor.predict_variants` call, as runs: one column set and many values
for it. A permutation importance step is one run of every permutation of
one feature, a profile one run of its grid, and a break-down step one run
per candidate feature set. By default the model stacks the substituted
copies into one `predict_proba` call, which relies on its row-wise
contract: a row's score does not depend on the other rows in the call, so
for a model that keeps it stacking changes no value. Tree models score the
runs on their compiled trees instead, matching the columns a run leaves
alone once per row, to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, UnknownColumn
from .metrics import auc


def _grid_from_spec(values: np.ndarray, grid_spec) -> np.ndarray:
    """Evaluation grid: explicit points, or n de-duplicated quantiles.

    Quantile grids use observed order statistics (no interpolation), so
    every grid point is a value the feature actually takes.
    """
    if np.ndim(grid_spec) > 0:
        grid = np.asarray(grid_spec, dtype=float)
        if grid.size == 0:
            raise BadParameter("grid_spec lists no grid points")
        return np.unique(grid)
    n_points = int(grid_spec)
    if n_points < 1:
        raise BadParameter("grid_spec must ask for at least one grid point, got %r" % grid_spec)
    qs = np.linspace(0.0, 1.0, n_points)
    return np.unique(np.quantile(values, qs, method="inverted_cdf"))


DEFAULT_GRID_POINTS = 21  # every 5th percentile


def _feature_index(model, feature: str) -> int:
    try:
        return model.feature_names.index(feature)
    except ValueError:
        raise UnknownColumn("model has no feature %r" % feature) from None


@dataclass
class PfiResult:
    """AUC drops per feature after seeded permutations of that column."""

    baseline_auc: float
    features: list[str]
    drops: np.ndarray          # (n_features, n_repeats) baseline - permuted
    n_repeats: int
    seed: int

    @property
    def mean_drop(self) -> np.ndarray:
        return self.drops.mean(axis=1)

    def ranking(self) -> list[tuple[str, float]]:
        means = self.mean_drop
        order = np.argsort(-means, kind="stable")
        return [(self.features[i], float(means[i])) for i in order]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "permutation_importance",
            "baseline_auc": self.baseline_auc,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
            "features": [
                {
                    "feature": name,
                    "mean_drop": float(self.mean_drop[i]),
                    "drops": [float(v) for v in self.drops[i]],
                }
                for i, name in enumerate(self.features)
            ],
        }


def permutation_importance(model, X, y, n_repeats: int = 10, seed: int = 0,
                           features=None) -> PfiResult:
    """Mean AUC drop per feature over n_repeats seeded shuffles.

    Each (feature, repeat) pair gets its own RNG stream, so results do
    not depend on evaluation order. X is never mutated; negative drops
    are reported as-is.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if n_repeats < 1:
        raise BadParameter("n_repeats must be >= 1, got %r" % n_repeats)
    names = list(model.feature_names) if features is None else list(features)
    baseline = auc(model.predict_proba(X), y)
    drops = np.empty((len(names), n_repeats))
    for i, name in enumerate(names):
        j = _feature_index(model, name)
        perms = np.array([X[np.random.default_rng((seed, j, r)).permutation(X.shape[0]), j]
                          for r in range(n_repeats)])
        for r, preds in enumerate(model.predict_variants(X, [([j], perms[:, :, None])])):
            drops[i, r] = baseline - auc(preds, y)
    return PfiResult(baseline_auc=baseline, features=names, drops=drops,
                     n_repeats=n_repeats, seed=seed)


@dataclass
class PdpProfile:
    """Dataset-average prediction along one feature's grid."""

    feature: str
    grid: np.ndarray
    mean_prediction: np.ndarray
    n_background: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "partial_dependence",
            "feature": self.feature,
            "grid": [float(v) for v in self.grid],
            "mean_prediction": [float(v) for v in self.mean_prediction],
            "n_background": self.n_background,
        }


def _profile_matrix(model, X, columns: list[int], grid: np.ndarray) -> np.ndarray:
    """Predictions of every background row at every grid point of `columns`.

    grid is (n_grid, len(columns)). Returns (n_rows, n_grid) in C order;
    column g is the model on X with `columns` forced to grid[g]. Callers
    reduce it with `.mean(axis=0)`, whose summation order depends on this
    layout, so the layout is kept.
    """
    preds = model.predict_variants(X, [(columns, grid[:, None, :])])
    return np.ascontiguousarray(preds.T)


def partial_dependence(model, X, feature: str,
                       grid_spec=DEFAULT_GRID_POINTS) -> PdpProfile:
    """Average prediction over all background rows as one feature sweeps
    its grid (n quantile points by default, de-duplicated)."""
    X = np.asarray(X, dtype=float)
    j = _feature_index(model, feature)
    grid = _grid_from_spec(X[:, j], grid_spec)
    profile = _profile_matrix(model, X, [j], grid[:, None])
    return PdpProfile(feature=feature, grid=grid,
                      mean_prediction=profile.mean(axis=0),
                      n_background=X.shape[0])


@dataclass
class PdpSurface:
    """Two-feature interaction surface of average predictions."""

    features: tuple[str, str]
    grids: tuple[np.ndarray, np.ndarray]
    mean_prediction: np.ndarray  # (len(grid_a), len(grid_b))
    n_background: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "partial_dependence_2d",
            "features": list(self.features),
            "grid_a": [float(v) for v in self.grids[0]],
            "grid_b": [float(v) for v in self.grids[1]],
            "mean_prediction": [[float(v) for v in row] for row in self.mean_prediction],
            "n_background": self.n_background,
        }


def partial_dependence_2d(model, X, feature_a: str, feature_b: str,
                          grid_spec=DEFAULT_GRID_POINTS) -> PdpSurface:
    """Grid x grid average predictions for a pair of features."""
    X = np.asarray(X, dtype=float)
    ja = _feature_index(model, feature_a)
    jb = _feature_index(model, feature_b)
    grid_a = _grid_from_spec(X[:, ja], grid_spec)
    grid_b = _grid_from_spec(X[:, jb], grid_spec)
    surface = np.empty((len(grid_a), len(grid_b)))
    for ga, za in enumerate(grid_a):
        pairs = np.column_stack([np.full(len(grid_b), za), grid_b])
        surface[ga] = _profile_matrix(model, X, [ja, jb], pairs).mean(axis=0)
    return PdpSurface(features=(feature_a, feature_b), grids=(grid_a, grid_b),
                      mean_prediction=surface, n_background=X.shape[0])


@dataclass
class CpProfile:
    """What-if profile of a single instance along one feature."""

    instance_id: int | None
    feature: str
    grid: np.ndarray
    prediction: np.ndarray
    anchor_value: float
    anchor: float  # model prediction at the instance's actual value

    def at(self, z: float) -> float:
        idx = np.nonzero(self.grid == z)[0]
        if len(idx) == 0:
            raise KeyError("grid point %r not in profile" % z)
        return float(self.prediction[idx[0]])

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "ceteris_paribus",
            "instance_id": self.instance_id,
            "feature": self.feature,
            "grid": [float(v) for v in self.grid],
            "prediction": [float(v) for v in self.prediction],
            "anchor_value": self.anchor_value,
            "anchor": self.anchor,
        }


def ceteris_paribus(model, instance, feature: str,
                    grid_spec=None, background=None,
                    instance_id=None) -> CpProfile:
    """Predictions for one row as a single feature sweeps a grid.

    The grid always includes the instance's actual value, whose
    prediction is also recorded as the anchor. With grid_spec=None the
    grid comes from background quantiles (the instance alone has no
    distribution to take quantiles of).
    """
    instance = np.asarray(instance, dtype=float).ravel()
    j = _feature_index(model, feature)
    if grid_spec is None:
        if background is None:
            raise ValueError("need grid_spec or background rows for the grid")
        grid = _grid_from_spec(np.asarray(background, dtype=float)[:, j],
                               DEFAULT_GRID_POINTS)
    else:
        grid = _grid_from_spec(instance[[j]], grid_spec)
    grid = np.unique(np.append(grid, instance[j]))

    prediction = _profile_matrix(model, instance[None], [j], grid[:, None])[0]
    anchor = float(model.predict_proba(instance.reshape(1, -1))[0])
    return CpProfile(instance_id=instance_id, feature=feature, grid=grid,
                     prediction=prediction, anchor_value=float(instance[j]),
                     anchor=anchor)


@dataclass
class BreakDownResult:
    """Ordered additive decomposition of one prediction.

    intercept is the mean background prediction; contributions walk,
    feature by feature, from the intercept to the model's prediction on
    the instance. The telescoping sum closes by construction.
    """

    intercept: float
    contributions: list[tuple[str, float]]
    final_prediction: float
    order: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "break_down",
            "intercept": self.intercept,
            "contributions": [
                {"feature": name, "delta": float(delta)}
                for name, delta in self.contributions
            ],
            "final_prediction": self.final_prediction,
        }


def break_down(model, background, instance, ordering="greedy") -> BreakDownResult:
    """Attribute a prediction to features by sequential substitution.

    v(S) = mean prediction over background rows with the features in S
    overwritten by the instance's values; delta_k = v(first k) -
    v(first k-1). The greedy ordering fixes, at each step, the feature
    with the largest |marginal change| (ties by name); alternatively pass
    an explicit feature list. v(all features) is the model's prediction
    on the instance itself (every substituted row coincides with it), so
    intercept + sum(deltas) = final exactly.
    """
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise BadParameter("background must be a 2-D array with at least one row, got shape %s"
                           % (background.shape,))
    instance = np.asarray(instance, dtype=float).ravel()
    names = list(model.feature_names)
    p = len(names)

    final = float(model.predict_proba(instance.reshape(1, -1))[0])
    intercept = float(np.mean(model.predict_proba(background)))

    def values_of(subsets: list[list[int]]) -> list[float]:
        """v(S) for every S, in one stacked step; v(all features) is final."""
        partial = [S for S in subsets if len(S) < p]
        preds = model.predict_variants(background,
                                       [(S, instance[S][None, None]) for S in partial])
        means = iter([float(np.mean(row)) for row in preds])
        return [final if len(S) == p else next(means) for S in subsets]

    if ordering == "greedy":
        chosen: list[int] = []
        # ties by feature name: scan in name order
        remaining = sorted(range(p), key=lambda k: names[k])
        current = intercept
        deltas: list[tuple[str, float]] = []
        while remaining:
            best_j = None
            best_value = None
            best_gap = -1.0
            values = values_of([chosen + [j] for j in remaining])
            for j, v in zip(remaining, values):
                gap = abs(v - current)
                if gap > best_gap:
                    best_gap, best_j, best_value = gap, j, v
            deltas.append((names[best_j], best_value - current))
            current = best_value
            chosen.append(best_j)
            remaining.remove(best_j)
        order = [name for name, _ in deltas]
    else:
        order = list(ordering)
        if sorted(order) != sorted(names):
            raise ValueError("ordering must list every model feature exactly once")
        fixed = [names.index(name) for name in order]
        values = values_of([fixed[:k + 1] for k in range(p)])
        current = intercept
        deltas = []
        for name, v in zip(order, values):
            deltas.append((name, v - current))
            current = v

    return BreakDownResult(intercept=intercept, contributions=deltas,
                           final_prediction=final, order=order)
