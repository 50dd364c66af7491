"""Logistic regression fitted by Newton / iteratively reweighted least squares."""

from __future__ import annotations

import numpy as np

from ..errors import SingularHessian
from .base import Predictor, check_params, sigmoid


class LogisticModel(Predictor):
    model_kind = "logistic"

    def __init__(self, coefficients, intercept, feature_names, converged=False, n_iter=0):
        super().__init__(feature_names)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.intercept = float(intercept)
        self.converged = converged
        self.n_iter = n_iter

    def decision_function(self, X) -> np.ndarray:
        X = self._as_matrix(X)
        return self.intercept + X @ self.coefficients

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))


def train_logistic(X, y, tol: float = 1e-8, max_iter: int = 100,
                   ridge: float = 1e-8, feature_names=None) -> LogisticModel:
    """Maximize the ridge-stabilized log-likelihood by IRLS.

    The tiny ridge penalty (on weights, not the intercept) keeps the
    Hessian invertible under collinearity and bounds the weights when the
    classes are perfectly separable; in that case the fit stops at
    max_iter with converged=False and finite weights. Convergence is
    declared when no coefficient moves by more than `tol`.
    """
    check_params("logistic", tol=tol, max_iter=max_iter, ridge=ridge)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("design matrix contains missing or infinite values")
    if len(np.unique(y)) < 2:
        raise ValueError("need both classes to fit a logistic model")
    n, p = X.shape
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    Xd = np.column_stack([np.ones(n), X])
    beta = np.zeros(p + 1)
    penalty = np.full(p + 1, ridge)
    penalty[0] = 0.0  # intercept unpenalized

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = Xd @ beta
        prob = sigmoid(eta)
        w = prob * (1.0 - prob)
        grad = Xd.T @ (y - prob) - penalty * beta
        hess = (Xd * w[:, None]).T @ Xd
        hess[np.diag_indices_from(hess)] += penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SingularHessian(
                "Hessian singular at iteration %d despite ridge=%g" % (it, ridge)
            ) from None
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            converged = True
            break

    return LogisticModel(beta[1:], beta[0], feature_names,
                         converged=converged, n_iter=it)
