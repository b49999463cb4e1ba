"""The logistic kernel that ``fairthresh.estimators._sigmoid``, ``_logistic_loss`` and
``logistic_descent`` replaced, used only by the tests.

The sigmoid took four boolean fancy-index passes, and each Newton step
recomputed the accepted candidate's logits, the penalty matrix and the Armijo
steps.  The lean kernel must give the same weights, intercept, convergence
flag and loss list, and the same sigmoid bits, on every input.  Tests import
this module as they import conftest.
"""

import numpy as np

from fairthresh.estimators import ARMIJO, BACKTRACK, LogisticConfig


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss(w, X1, y, lam):
    z = X1 @ w
    # mean of log(1 + e^z) - y*z, computed stably
    loss = np.mean(np.logaddexp(0.0, z) - y * z)
    return loss + 0.5 * lam * float(w @ w)


def logistic_descent(X: np.ndarray, y: np.ndarray, cfg: LogisticConfig):
    """Minimize mean log-loss + (lambda/2)||w||^2 by damped Newton (IRLS) steps.

    Each step solves (X1' diag(p(1-p)) X1 / n + lambda I) delta = -grad and
    backtracks on delta by the Armijo rule.  When the solve fails or delta is
    not a descent direction (lambda = 0 on separable data, say) the step falls
    back to -grad.  Returns (weights, intercept, converged, losses); the loss
    sequence is non-increasing and len(losses) - 1 is the iteration count.
    """
    X1 = np.hstack([np.ones((X.shape[0], 1)), X])
    w = np.zeros(X1.shape[1])
    losses = [_logistic_loss(w, X1, y, cfg.l2_lambda)]
    while True:
        p = _sigmoid(X1 @ w)
        grad = X1.T @ (p - y) / len(y) + cfg.l2_lambda * w
        converged = float(np.linalg.norm(grad)) <= cfg.grad_tolerance
        if converged or len(losses) > cfg.max_iters:
            return w[1:], float(w[0]), converged, losses
        hess = (X1.T * (p * (1.0 - p))) @ X1 / len(y) + cfg.l2_lambda * np.eye(w.size)
        try:
            delta = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = -grad
        slope = float(grad @ delta)
        if not (np.isfinite(slope) and slope < 0.0):  # also a NaN or inf from a near-singular solve
            delta, slope = -grad, -float(grad @ grad)
        for step in BACKTRACK ** np.arange(54):  # steps 1 down to 0.5 ** 53 ~ 1e-16
            val = _logistic_loss(w + step * delta, X1, y, cfg.l2_lambda)
            if val <= losses[-1] + ARMIJO * step * slope:
                break
        else:  # no step lowers the loss at working precision
            return w[1:], float(w[0]), False, losses
        w = w + step * delta
        losses.append(val)
