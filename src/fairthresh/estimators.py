"""Conditional-probability estimators with a vanishing score floor.

Two built-in estimator families are provided: regularized logistic regression
fitted by damped Newton steps (IRLS), with one logit product per line-search
candidate, and a k-nearest-neighbour positive-rate estimator.  Every model
fits one estimator per slot of _slots: group 0, group 1 and, in blind mode, a
pooled (marginal) estimator on every row.

Every score is clamped from below by the floor c = N^(-1/4) (clipped to
[1e-6, 0.49]) so that group mean scores stay bounded away from zero no matter
how extreme the raw estimates are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, json_number, json_numbers
from .errors import ConfigError, GroupCoverageError, SchemaError

FLOOR_MIN = 1e-6
FLOOR_MAX = 0.49
JITTER_MAX = 0.5  # largest amplitude of the tie-breaking jitter
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
BACKTRACK = 0.5  # step shrink factor of the line search


def floor_value(N: int) -> float:
    """Score floor c = N^(-1/4) for N calibration rows, clipped to [1e-6, 0.49]."""
    if N < 1:
        raise ConfigError(f"unlabeled sample size must be >= 1, got {N}")
    return float(min(max(N ** -0.25, FLOOR_MIN), FLOOR_MAX))


@dataclass(frozen=True)
class LogisticConfig:
    """Settings for the damped Newton (IRLS) logistic solver.

    The L2 penalty covers all coefficients including the intercept, so
    l2_lambda -> inf drives every raw score to 0.5.
    """

    l2_lambda: float = 0.0
    max_iters: int = 1000
    grad_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.l2_lambda < np.inf:
            raise ConfigError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be positive, got {self.max_iters}")
        if self.grad_tolerance <= 0:
            raise ConfigError(f"grad_tolerance must be > 0, got {self.grad_tolerance}")


@dataclass(frozen=True)
class KnnConfig:
    """k-nearest-neighbour settings; distances are Euclidean."""

    k: int = 11

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # exp(-z) for z >= 0 and exp(z) below: the form that cannot overflow on either side
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logistic_loss(w, X1, y, lam):
    z = X1 @ w  # returned with the loss, for the next step's p
    return np.sum(np.logaddexp(0.0, z) - y * z) / z.size + 0.5 * lam * float(w @ w), z  # sum / n is np.mean


def logistic_descent(X: np.ndarray, y: np.ndarray, cfg: LogisticConfig):
    """Minimize mean log-loss + (lambda/2)||w||^2 by damped Newton (IRLS) steps.

    Each step solves (X1' diag(p(1-p)) X1 / n + lambda I) delta = -grad,
    backtracks on delta by the Armijo rule and keeps the accepted candidate's
    logits for the next p.  When the solve fails on a singular Hessian
    (equal columns at lambda = 0, say), by raising or by returning a delta
    that is not finite or leaves ||H delta + grad|| > 1e-8 ||grad||, the
    Armijo search runs on both the minimum-norm least-squares step and
    -grad, and the step whose accepted loss is lower wins (the least-squares
    one on a tie).  A delta that is not a descent direction is replaced by
    -grad.  Returns (weights, intercept, converged, losses); the loss
    sequence is non-increasing and len(losses) - 1 is the iteration count.
    """
    X1 = np.hstack([np.ones((X.shape[0], 1)), X])
    lam, w = cfg.l2_lambda, np.zeros(X1.shape[1])
    penalty, steps = lam * np.eye(w.size), BACKTRACK ** np.arange(54)  # steps 1 down to 0.5 ** 53 ~ 1e-16
    loss, z = _logistic_loss(w, X1, y, lam)
    losses = [loss]
    while True:
        p = _sigmoid(z)
        grad = X1.T @ (p - y) / len(y) + lam * w
        norm = float(np.sqrt(grad @ grad))  # np.linalg.norm of a 1-D float vector
        converged = norm <= cfg.grad_tolerance
        if converged or len(losses) > cfg.max_iters:
            return w[1:], float(w[0]), converged, losses
        hess = (X1.T * (p * (1.0 - p))) @ X1 / len(y) + penalty
        try:  # a solve on a Hessian singular only at working precision returns, and its delta is no solution
            delta = -np.linalg.solve(hess, grad)
            solved = np.isfinite(delta).all() and np.linalg.norm(hess @ delta + grad) <= 1e-8 * norm
        except np.linalg.LinAlgError:
            solved = False
        accepted = []  # (loss, weights, logits) of each direction's accepted step
        for delta in [delta] if solved else [-np.linalg.lstsq(hess, grad)[0], -grad]:
            slope = float(grad @ delta)
            if not (np.isfinite(slope) and slope < 0.0):  # also a NaN or inf
                delta, slope = -grad, -float(grad @ grad)
            for step in steps:
                val, z_try = _logistic_loss(w_try := w + step * delta, X1, y, lam)
                if val <= losses[-1] + ARMIJO * step * slope:
                    accepted.append((val, w_try, z_try))
                    break
        if not accepted:  # no step lowers the loss at working precision
            return w[1:], float(w[0]), False, losses
        val, w, z = min(accepted, key=lambda candidate: candidate[0])  # the first of equal losses
        losses.append(val)


def _as_matrix(X) -> np.ndarray:
    """Feature rows as a float64 matrix; a 1-D array is one feature column."""
    X = np.asarray(X, dtype=np.float64)
    return X[:, None] if X.ndim == 1 else X


def _row_hash_fractions(X: np.ndarray, salt: int) -> np.ndarray:
    # deterministic per-row value in [-1, 1] from a digest of the row bytes
    import hashlib  # imported here: a few ms, and only the jitter hashes rows

    out = np.empty(X.shape[0])
    for i, row in enumerate(np.ascontiguousarray(X, dtype=np.float64)):
        digest = hashlib.blake2b(row.tobytes(), digest_size=8, salt=salt.to_bytes(8, "little"))
        v = int.from_bytes(digest.digest(), "little") / float(2**64)
        out[i] = 2.0 * v - 1.0
    return out


@dataclass(frozen=True)
class ScoreModel:
    """A fitted score estimator plus the floor/jitter post-processing.

    params holds the parameters of each slot's estimator in slot order:
    group 0, group 1 and, blind models only, the marginal one (None for
    every slot of an external model), so mode is the slot count.  Scoring is
    deterministic, including the optional jitter, a pure function of the row bytes.
    """

    kind: str  # "logistic" | "knn" | "external"
    params: tuple
    floor: float = FLOOR_MIN
    jitter_amplitude: float = 0.0
    converged: bool = True
    mode = property(lambda self: "blind" if len(self.params) == 3 else "aware")

    def _raw(self, X: np.ndarray, params) -> np.ndarray:
        if self.kind == "external":
            raise SchemaError("external score models cannot score rows; supply a scores file")
        d = params[0].shape[-1]  # weight vector (logistic) or training features (k-NN)
        if X.shape[1] != d:
            raise SchemaError(f"model expects {d} feature columns, data has {X.shape[1]}")
        if self.kind == "logistic":
            w, b = params
            return _sigmoid(X @ w + b)
        feats, labels, k = params
        return _knn_label_sums(X, feats, labels, k) / k  # an array of k (a path model) scores one column per k

    def _finish(self, raw: np.ndarray, X: np.ndarray, salt: int) -> np.ndarray:
        if self.jitter_amplitude > 0.0:
            raw = raw + self.jitter_amplitude * _row_hash_fractions(X, salt)
            raw = np.clip(raw, 0.0, 1.0)
        return np.maximum(raw, self.floor)

    def _score(self, X, slot: int) -> np.ndarray:
        X = _as_matrix(X)
        return self._finish(self._raw(X, self.params[slot]), X, slot)

    def score_group(self, X, s: int) -> np.ndarray:
        """Floored score eta_hat(x, s) for every row of X."""
        return self._score(X, s)

    def score_rowwise(self, X, S) -> np.ndarray:
        """Floored score eta_hat(x_i, s_i) using each row's own group."""
        X, S = _as_matrix(X), np.asarray(S)
        masks = (S == 0, S == 1)
        # any other group value would leave its rows unscored
        if S.shape != (X.shape[0],) or not (masks[0] | masks[1]).all():
            raise SchemaError("group-aware scoring needs a sensitive value of 0 or 1 for every feature row")
        scores = [self.score_group(X[mask], s) for s, mask in enumerate(masks)]
        out = np.empty(X.shape[:1] + scores[0].shape[1:])
        for mask, group_scores in zip(masks, scores):
            out[mask] = group_scores
        return out

    def score_marginal(self, X) -> np.ndarray:
        """Floored marginal score eta_hat(x); blind-mode models only."""
        if self.mode != "blind":
            raise SchemaError("model has no marginal estimator; refit with mode='blind'")
        return self._score(X, 2)

    def to_json(self) -> dict:
        def pack(params):
            if params is None:
                return None
            if self.kind == "logistic":
                w, b = params
                return {"weights": [float(v) for v in w], "intercept": float(b)}
            feats, labels, k = params
            return {"k": int(k), "features": feats.tolist(), "labels": labels.tolist()}

        return {
            "kind": self.kind,
            "mode": self.mode,
            "floor": self.floor,
            "jitter_amplitude": self.jitter_amplitude,
            "converged": self.converged,
            "groups": [pack(p) for p in self.params[:2]],
            "marginal": pack(self.params[2]) if len(self.params) > 2 else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "ScoreModel":
        kind, mode, groups = obj["kind"], obj["mode"], obj["groups"]
        if not isinstance(groups, list):
            raise SchemaError(f"score model groups must be a list, got {type(groups).__name__}")
        if kind not in ("logistic", "knn", "external") or mode not in ("aware", "blind") or len(groups) != 2:
            raise SchemaError(f"bad score model: kind {kind!r}, mode {mode!r}, {len(groups)} groups")
        slots = [*groups, obj.get("marginal")] if mode == "blind" else groups
        if kind == "external" and any(p is not None for p in slots):
            raise SchemaError("an external score model holds no parameters: its groups and marginal must be null")
        if (kind != "external" and None in slots) or (mode == "aware" and obj.get("marginal") is not None):
            raise SchemaError(f"a {kind!r} score model in mode {mode!r} must hold the parameters of groups 0 and 1 and "
                              + ("of the marginal" if mode == "blind" else "no marginal"))

        def unpack(payload, slot):
            if payload is None:
                return None
            if not isinstance(payload, dict):
                raise SchemaError(f"score model {slot} must be a JSON object or null, got {type(payload).__name__}")
            if kind == "logistic":
                w = json_numbers(payload["weights"], "logistic weights")
                b = json_number(payload["intercept"], "logistic intercept")
                if not (np.isfinite(w).all() and np.isfinite(b)):
                    raise SchemaError("logistic weights and intercept must be finite")
                return w, b
            feats = json_numbers(payload["features"], "k-NN features", 2)
            labels, k = payload["labels"], payload["k"]
            if feats.ndim != 2 or feats.shape[1] < 1 or not np.isfinite(feats).all():
                raise SchemaError(f"k-NN features must be a finite 2-D array with >= 1 column, got shape {feats.shape}")
            if not isinstance(labels, list) or not all(v in (0, 1) and not isinstance(v, bool) for v in labels):
                raise SchemaError("k-NN labels must be a list of 0s and 1s")
            if not isinstance(k, int) or isinstance(k, bool):
                raise SchemaError(f"k-NN k must be an integer, got {k!r}")
            labels = np.asarray(labels, dtype=np.int64)
            if not 1 <= k <= labels.shape[0] == feats.shape[0]:
                raise SchemaError(f"k-NN model needs 1 <= k <= its row count and one label per row, got k={k}")
            return feats, labels, k

        floor = json_number(obj["floor"], "floor")
        if not FLOOR_MIN <= floor <= FLOOR_MAX:
            raise SchemaError(f"floor must lie in [{FLOOR_MIN}, {FLOOR_MAX}], got {floor!r}")
        jitter = json_number(obj.get("jitter_amplitude", 0.0), "jitter_amplitude")
        converged = obj.get("converged", True)
        if not 0.0 <= jitter <= JITTER_MAX:
            raise SchemaError(f"jitter_amplitude must lie in [0, {JITTER_MAX}], got {jitter!r}")
        if not isinstance(converged, bool):
            raise SchemaError(f"converged must be true or false, got {converged!r}")
        return ScoreModel(
            kind=kind,
            params=tuple(unpack(p, slot) for p, slot in zip(slots, ("groups[0]", "groups[1]", "marginal"))),
            floor=floor,
            jitter_amplitude=jitter,
            converged=converged,
        )


def external_score_model(floor: float = FLOOR_MIN, mode: str = "aware") -> ScoreModel:
    """Placeholder model for calibrations built from precomputed score files: one None per slot of mode."""
    return ScoreModel(kind="external", params=(None, None, None) if mode == "blind" else (None, None), floor=floor)


def _knn_path(models) -> ScoreModel:
    """One model scoring the k-NN models (fitted on the same rows) at once, one score column per model."""
    ks = np.array([m.params[0][2] for m in models])
    return replace(models[0], params=tuple((feats, labels, ks) for feats, labels, _ in models[0].params))


def _knn_blocks(queries: np.ndarray, feats: np.ndarray, depth: int):
    """Training row indices of the depth nearest neighbours of each query, nearest first: yields (rows, table)
    per block of queries, table[i] the order of queries[rows][i].

    Neighbours are ordered by (distance, training row index), so a distance tie
    goes to the smaller row index.  One uint64 key per (query, training row):
    the bits of the squared distance (>= 0, so ordered like its bits) with the
    low b bits replaced by the row index.  The keys all differ, so a partition
    and a sort of them give one order whatever the sort algorithm.  The bits
    dropped matter only between distances that share the high bits: a query
    whose first key left out shares them with its last key kept keeps the
    rows nearer than its depth-th distance and, of those at it, the smallest
    indices; kept distances out of order are sorted again, stably, as equal
    distances already stand in index order.
    """
    T, d = feats.shape
    if d == 0:  # every distance would be 0 and the neighbours the first rows in file order
        raise ConfigError("k-NN needs at least one feature column")
    b = max(1, (T - 1).bit_length())
    low = np.uint64(2**b - 1)
    cut = min(depth + 1, T)  # the keys sorted: the kept ones and, below T, the first one left out
    # a block holds < 2**13 (query, training row) entries, so its distance and key buffers take < 128 KiB
    # together: glibc keeps that much at the top of its heap when it trims, so they are reused, call after call,
    # without page faults, and stay in cache; from 2**13 training rows on, one query's row alone passes that,
    # and a block holds about 2**16 (query, training row, feature) entries
    block = (2**13 - 1) // T or max(1, 2**16 // (T * d))
    d2_buf, keys = np.empty((block, T)), np.empty((block, T), np.uint64)
    scratch, index, cols = keys.view(np.float64), np.arange(T, dtype=np.uint64), np.ascontiguousarray(feats.T)
    # numpy's sum adds fewer than 8 terms one by one, so below 8 features the squared distances are summed
    # feature by feature in that order and keep its bits; from 8 on, numpy's sum takes step queries at a time,
    # in a (step, T, d) difference temporary of about 2**16 entries
    step = max(1, 2**16 // (T * d))
    ranks = np.arange(block)[:, None]
    for start in range(0, queries.shape[0], block):
        q = queries[start : start + block]
        n = q.shape[0]
        d2, k = d2_buf[:n], keys[:n]
        if d < 8:
            for j in range(d):  # feature j's squared difference, added to the distances
                term = scratch[:n] if j else d2
                np.subtract(q[:, j, None], cols[j], out=term)
                np.square(term, out=term)
                if j:
                    d2 += term
        else:
            for i in range(0, n, step):
                ((q[i : i + step, None, :] - feats[None, :, :]) ** 2).sum(axis=2, out=d2[i : i + step])
        np.bitwise_and(d2.view(np.uint64), ~low, out=k)
        k |= index
        k.partition(cut - 1, axis=1)
        k[:, :cut].sort(axis=1)
        order = (k[:, :depth] & low).astype(np.intp)
        if depth < T:
            near = np.flatnonzero((k[:, depth - 1] ^ k[:, depth]) <= low)
            if near.size:
                d2_near = d2[near]
                kth = np.partition(d2_near, depth - 1, axis=1)[:, depth - 1 : depth]
                less, at = d2_near < kth, d2_near == kth
                keep = less | (at & (np.cumsum(at, axis=1) <= depth - less.sum(axis=1, keepdims=True)))
                order[near] = np.nonzero(keep)[1].reshape(near.size, depth)  # depth rows each, in index order
        kept = d2[ranks[:n], order]
        unsorted = np.flatnonzero((kept[:, 1:] < kept[:, :-1]).any(axis=1))
        if unsorted.size:
            by_distance = np.argsort(kept[unsorted], axis=1, kind="stable")
            order[unsorted] = np.take_along_axis(order[unsorted], by_distance, axis=1)
        yield slice(start, start + n), order


def _knn_order(queries: np.ndarray, feats: np.ndarray, depth: int) -> np.ndarray:
    """The (queries, depth) table of _knn_blocks: each query's depth nearest training rows, nearest first."""
    out = np.empty((queries.shape[0], depth), dtype=np.intp)
    for rows, order in _knn_blocks(queries, feats, depth):
        out[rows] = order
    return out


def _knn_window_sums(queries: np.ndarray, feats: np.ndarray, labels: np.ndarray, ks, out: np.ndarray) -> np.ndarray:
    """_knn_label_sums on one feature column from windows of the sorted training values; returns the rows of
    the queries it leaves to _knn_blocks.  Along either side of a query, (q - f)**2 never decreases, so the k
    nearest training rows are one window of k values in sorted order, whose label sum is a difference of two
    prefix sums, wherever the k-th and (k+1)-th distances differ; queries where they are equal for some k are
    left to _knn_blocks, which breaks the tie by row index."""
    T, order = feats.shape[0], np.argsort(feats[:, 0], kind="stable")
    # values[i + 1] is the i-th sorted value, between sentinels at an infinite distance
    values = np.concatenate(([-np.inf], feats[order, 0], [np.inf]))
    csum = np.concatenate(([0], labels[order].cumsum(dtype=np.int64)))
    q, k = queries[:, 0], ks.reshape(-1, 1)  # (k, query) arrays: numpy's loops run along the queries
    p = np.searchsorted(values[1:-1], q)  # training values below each query, so its window starts in [p - k, p]
    start, last = np.maximum(p - k, 0), np.minimum(p, T - k)
    for step in 1 << np.arange(int(k.max()).bit_length())[::-1]:  # bisection on each (k, query) window's start
        c = np.minimum(start + step, last)
        # the value before a window starting at c lies farther than the last one in it: the window starts at c or later
        start = np.where(q - values[c] > values[c + k] - q, c, start)
    kth = np.maximum(np.square(q - values[start + 1]), np.square(q - values[start + k]))
    out[...] = (csum[start + k] - csum[start]).T.reshape(out.shape)
    tied = ~(kth < np.minimum(np.square(q - values[start]), np.square(q - values[start + k + 1])))
    return np.flatnonzero(tied.any(axis=0))


def _knn_label_sums(queries: np.ndarray, feats: np.ndarray, labels: np.ndarray, ks) -> np.ndarray:
    """Label sums over the k nearest training rows of each query, one column per entry of ks (a scalar k gives
    one value per query): an int64 table whose scores are table / ks.  On one feature column a query's sums
    come from windows of the sorted training values (_knn_window_sums); queries whose k-th and (k+1)-th
    distances tie, and every query on two or more features, go through _knn_blocks, each block reduced to these
    columns, so no (queries, max k) table is built."""
    ks = np.asarray(ks)
    out = np.empty(queries.shape[:1] + ks.shape, dtype=np.int64)
    todo = _knn_window_sums(queries, feats, labels, ks, out) if feats.shape[1] == 1 else np.arange(out.shape[0])
    for rows, order in _knn_blocks(queries[todo], feats, int(ks.max())):
        out[todo[rows]] = labels[order].cumsum(axis=1, dtype=np.int64)[:, ks - 1]
    return out


def _slots(sensitive: np.ndarray, mode: str) -> list[np.ndarray]:
    """Row masks of the model slots, in slot order: group 0, group 1 and, blind, every row (the marginal model)."""
    masks = [sensitive == 0, sensitive == 1]
    return masks + [np.ones(sensitive.shape[0], bool)] if mode == "blind" else masks


def _fit_slots(train: LabeledDataset, mode: str, fit) -> list:
    """fit(features, labels, slot) on each slot's rows, in slot order; a slot is checked for rows just before."""
    params = []
    for s, mask in enumerate(_slots(train.sensitive, mode)):
        if not mask.any():
            raise GroupCoverageError(f"cannot fit group {s}: no rows")
        params.append(fit(train.features[mask], train.labels[mask], s))
    return params


def fit_logistic(train: LabeledDataset, cfg: LogisticConfig = LogisticConfig(), mode: str = "aware") -> ScoreModel:
    """Fit one logistic score per model slot (_slots)."""
    fits = _fit_slots(train, mode, lambda X, y, s: logistic_descent(X, y.astype(np.float64), cfg))
    params, converged = tuple((w, b) for w, b, _, _ in fits), all(ok for _, _, ok, _ in fits)
    return ScoreModel(kind="logistic", params=params, converged=converged)


def fit_knn(train: LabeledDataset, cfg: KnnConfig = KnnConfig(), mode: str = "aware") -> ScoreModel:
    """Fit one k-NN positive-rate score per model slot (_slots)."""

    def fit(X, y, s):
        if cfg.k > y.size:
            raise ConfigError(f"k={cfg.k} exceeds group {s} size {y.size}")
        return X, y, cfg.k

    return ScoreModel(kind="knn", params=tuple(_fit_slots(train, mode, fit)))
