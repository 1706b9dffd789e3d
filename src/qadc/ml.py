"""From-scratch dense networks: denoising autoencoder and phase regressor.

Plain numpy forward/backward passes with a hand-rolled Adam optimizer; no ML
runtime.  Training is single-threaded and seed-deterministic end to end (the
reproducibility contract outranks speed at these sizes).

All parameters of a `Network` live in one contiguous float64 vector,
``net.params``: layer by layer, the row-major ``[out, in]`` weight matrix and
then the bias.  ``net.weights[i]`` and ``net.biases[i]`` are views into it, so
an in-place edit of either changes the network, and the optimizer updates the
whole vector with a handful of array operations per step.  Training writes
each batch's gradient into one vector with the same layout.

Adam zeroes its subnormal moments every 64 steps.  Dead ReLU units leave
moments that decay into the subnormal range and stay there, and arithmetic on
subnormals is slow enough to dominate late DAE training.  The flush does not
change the trained bits unless a parameter is exactly 0 (or about as small)
while its first moment is subnormal: a subnormal moment moves any larger
parameter by less than half an ulp, and a subnormal ``v`` is swamped by
``eps``.

The denoising autoencoder maps noise-corrupted rows p(m | phi) of the 128
records to clean ones (encoder 64/32, bottleneck 16, decoder 32/64).  The
phase regressor maps the 8 informative-bit probabilities at phi and at a fixed
shift phi + 0.44 rad (16 inputs) through three 52-neuron hidden layers to a
single linear output, removing the quantization bias of the raw digital
estimate and resolving boundary ambiguities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from qadc.analysis import B_OUTCOMES, M_OUTCOMES, bit_chain_probabilities
from qadc.linop import TWO_PI
from qadc.protocol import _B_FROM_M, grid_phases

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")

ESTIMATOR_PHASE_SHIFT = 0.44  # rad, fixed second input row

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Adam zeroes its subnormal moments once every this many steps (see `_Adam`).
_FLUSH_EVERY = 64
_TINY = np.finfo(float).tiny


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths (input included) and one activation per affine layer."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.widths) < 2:
            raise ValueError("need an input and at least one layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if len(self.activations) != len(self.widths) - 1:
            raise ValueError("need one activation per affine layer")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")

    @property
    def n_parameters(self) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.widths, self.widths[1:]))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4000
    batch_size: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class TrainingSet:
    """Training inputs and their targets, one row per sample."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have matching sample counts")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply activation ``name`` to the fresh array ``z`` in place; returns ``z``."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)
    elif name == "sigmoid":  # 1 / (1 + exp(-z)), in that order
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    return z


def _layer(h: np.ndarray, w: np.ndarray, b: np.ndarray, act: str) -> np.ndarray:
    """One affine layer and its activation, computed in one new array."""
    z = h @ w.T
    z += b
    return _activate(act, z)


def _times_derivative(name: str, post: np.ndarray, delta: np.ndarray) -> None:
    """Multiply ``delta`` in place by the activation's derivative, taken from
    the layer output ``post``.  For ReLU, ``post > 0`` is the mask
    ``pre > 0``: the output is positive exactly where the input is."""
    if name == "relu":
        delta *= post > 0
    elif name == "tanh":
        delta *= 1.0 - post**2
    elif name == "sigmoid":
        delta *= post * (1.0 - post)


def _as_batch(a) -> np.ndarray:
    """``a`` as a 2-D float64 array, without a copy when it already is one."""
    if isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64:
        return a
    return np.atleast_2d(np.asarray(a, dtype=float))


def _layer_views(spec: NetworkSpec, flat: np.ndarray) -> tuple[list, list]:
    """Per-layer ``[out, in]`` weight and bias views into a flat parameter vector."""
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(spec.widths, spec.widths[1:]):
        stop = start + n_out * n_in
        weights.append(flat[start:stop].reshape(n_out, n_in))
        biases.append(flat[stop : stop + n_out])
        start = stop + n_out
    return weights, biases


class Network:
    """Dense network whose parameters live in one flat float64 vector.

    ``params`` holds, layer by layer, the row-major ``[out, in]`` weight matrix
    and then the bias.  ``weights[i]`` and ``biases[i]`` are views into it:
    an in-place edit such as ``net.weights[0][0, 1] = 0.5`` or
    ``net.biases[1][:] = 0`` changes the network, while rebinding
    ``net.weights[i]`` to another array detaches it from ``params``.  The
    constructor copies the given arrays into a new vector.
    """

    def __init__(self, spec: NetworkSpec, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        n_layers = len(spec.widths) - 1
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(
                f"{n_layers} layers need {n_layers} weight and bias arrays, "
                f"got {len(weights)} and {len(biases)}"
            )
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (spec.widths[i + 1], spec.widths[i]):
                raise ValueError(f"layer {i}: weight shape {w.shape}")
            if b.shape != (spec.widths[i + 1],):
                raise ValueError(f"layer {i}: bias shape {b.shape}")
        self.spec = spec
        self.params = np.empty(spec.n_parameters)
        self.weights, self.biases = _layer_views(spec, self.params)
        for view, value in zip(self.weights + self.biases, weights + biases):
            view[...] = value

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng: np.random.Generator) -> "Network":
        """Uniform init scaled by 1/sqrt(fan_in), biases zero."""
        weights, biases = [], []
        for i in range(len(spec.widths) - 1):
            fan_in = spec.widths[i]
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(spec.widths[i + 1], fan_in)))
            biases.append(np.zeros(spec.widths[i + 1]))
        return cls(spec, weights, biases)

    @property
    def n_parameters(self) -> int:
        return self.params.size

    def to_json_dict(self, train_config: TrainConfig | None = None, seed: int | None = None) -> dict:
        doc = {
            "spec": {
                "widths": list(self.spec.widths),
                "activations": list(self.spec.activations),
            },
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        if train_config is not None:
            doc["train_config"] = {
                "epochs": train_config.epochs,
                "batch_size": train_config.batch_size,
                "learning_rate": train_config.learning_rate,
                "beta1": ADAM_BETA1,
                "beta2": ADAM_BETA2,
                "eps": ADAM_EPS,
                "seed": train_config.seed,
            }
        if seed is not None:
            doc["seed"] = seed
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Network":
        """The network stored by `to_json_dict`; ValueError on a malformed document
        or on a weight or bias that is not finite."""
        try:
            spec = NetworkSpec(
                tuple(doc["spec"]["widths"]), tuple(doc["spec"]["activations"])
            )
            weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
            for i, (n_in, n_out) in enumerate(zip(spec.widths, spec.widths[1:])):
                if i < len(weights):
                    weights[i] = weights[i].reshape(n_out, n_in)
            biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        except KeyError as exc:
            raise ValueError(f"model document lacks {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed model document: {exc}") from None
        net = cls(spec, weights, biases)
        if not np.isfinite(net.params).all():
            raise ValueError("model weights and biases must be finite")
        return net


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Affine + activation composition; accepts a vector or a batch."""
    h = _as_batch(x)
    if h.shape[1] != net.spec.widths[0]:
        raise ValueError(f"input width {h.shape[1]}, expected {net.spec.widths[0]}")
    for w, b, act in zip(net.weights, net.biases, net.spec.activations):
        h = _layer(h, w, b, act)
    return h[0] if np.ndim(x) == 1 else h


def gradients(net: Network, x: np.ndarray, y: np.ndarray, out=None):
    """Backprop of the mean-squared error; returns (dW list, db list, loss).

    The gradients are written into ``out``, a ``(dW list, db list)`` pair
    shaped like ``net.weights`` and ``net.biases`` (`train` passes views of
    one flat vector laid out like ``net.params``), or into new arrays when
    ``out`` is None.
    """
    x = _as_batch(x)
    y = _as_batch(y)
    if out is None:
        out = _layer_views(net.spec, np.empty(net.n_parameters))
    d_weights, d_biases = out
    posts = [x]
    for w, b, act in zip(net.weights, net.biases, net.spec.activations):
        posts.append(_layer(posts[-1], w, b, act))
    h = posts[-1]
    if y.shape != h.shape:
        raise ValueError(f"target shape {y.shape}, expected {h.shape}")
    delta = h - y
    # the reduction np.mean runs, without its Python wrapper
    loss = float(np.add.reduce(delta * delta, axis=None)) / delta.size
    delta *= 2.0
    delta /= h.size
    for i in reversed(range(len(net.weights))):
        _times_derivative(net.spec.activations[i], posts[i + 1], delta)
        np.matmul(delta.T, posts[i], out=d_weights[i])
        delta.sum(axis=0, out=d_biases[i])
        if i:
            delta = delta @ net.weights[i]
    return d_weights, d_biases, loss


class _Adam:
    """Adam on one flat parameter vector, in place, with preallocated scratch.

    Every element goes through the same operations in the same order as the
    per-tensor textbook form: the bias corrections divide ``m`` and ``v``
    separately, and are not folded into one step size, because folding
    changes the rounding and with it the trained model.  A correction
    ``1 - beta**t`` that has rounded to exactly 1.0 is not divided by at all,
    which is exact because ``x / 1.0 == x`` in IEEE-754: at the default
    rates ``1 - beta1**t`` is 1.0 from t = 356 on and ``1 - beta2**t`` from
    t = 37,412 on.  Only the exact value is tested, since skipping a
    correction merely close to 1 would change the rounding.

    Every `_FLUSH_EVERY` steps, entries of ``m`` and ``v`` below the smallest
    normal float are set to zero.  Parameters whose gradient is exactly 0
    (dead ReLU units) otherwise keep subnormal moments for good, since
    ``0.9 * 5e-324`` rounds back to ``5e-324``, and every array operation on
    a subnormal takes the slow path.  The flush leaves the trained bits
    unchanged in practice: a subnormal ``m`` moves a parameter by at most
    ``learning_rate * 2.2e-308 / eps``, about 2e-303 at the defaults, which
    is less than half an ulp of any parameter larger than about 2e-287 in
    magnitude; ``beta1 * m + (1 - beta1) * g`` rounds to the same
    value with or without it unless ``|g|`` is itself below about 1e-291;
    and a subnormal ``v`` is swamped by ``eps`` in the denominator.  The one
    case it can change is a parameter that is exactly 0 (or about as small)
    while its first moment is subnormal.
    """

    def __init__(self, params: np.ndarray, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._step = np.empty_like(params)
        self._denom = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        m, v, step, denom = self.m, self.v, self._step, self._denom
        # m = b1*m + (1-b1)*g
        m *= ADAM_BETA1
        np.multiply(grad, 1 - ADAM_BETA1, out=step)
        m += step
        # v = b2*v + (1-b2)*g**2
        v *= ADAM_BETA2
        np.square(grad, out=step)
        step *= 1 - ADAM_BETA2
        v += step
        # p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps), leaving
        # out a division by a correction that has rounded to 1.0
        correction1 = 1 - ADAM_BETA1**self.t
        if correction1 == 1.0:
            np.multiply(m, self.cfg.learning_rate, out=step)
        else:
            np.divide(m, correction1, out=step)
            step *= self.cfg.learning_rate
        correction2 = 1 - ADAM_BETA2**self.t
        if correction2 == 1.0:
            np.sqrt(v, out=denom)
        else:
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        params -= step
        if self.t % _FLUSH_EVERY == 0:
            self._flush_subnormals()

    def _flush_subnormals(self) -> None:
        """Set the subnormal entries of ``m`` and ``v`` to zero."""
        for moment in (self.m, self.v):
            np.abs(moment, out=self._denom)
            moment[self._denom < _TINY] = 0.0


def train(net: Network, dataset: TrainingSet, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam on MSE, in place; returns the per-epoch loss trace."""
    x = np.atleast_2d(np.asarray(dataset.inputs, dtype=float))
    y = np.asarray(dataset.targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[1] != net.spec.widths[0] or y.shape[1] != net.spec.widths[-1]:
        raise ValueError("training set shapes do not match the network")
    rng = np.random.default_rng(cfg.seed)
    grad = np.empty_like(net.params)
    grad_views = _layer_views(net.spec, grad)
    opt = _Adam(net.params, cfg)
    n = x.shape[0]
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, _, loss = gradients(net, x[idx], y[idx], grad_views)
            if not math.isfinite(loss):
                raise TrainingDivergence(
                    f"non-finite loss {loss} at epoch {epoch}, batch {n_batches}"
                )
            opt.step(net.params, grad)
            epoch_loss += loss
            n_batches += 1
        trace.append(epoch_loss / n_batches)
    return trace


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------


def build_dae() -> NetworkSpec:
    """Denoising autoencoder: [128, 64, 32, 16, 32, 64, 128], ReLU hidden."""
    widths = (M_OUTCOMES, 64, 32, 16, 32, 64, M_OUTCOMES)
    return NetworkSpec(widths, ("relu",) * 5 + ("linear",))


def build_estimator() -> NetworkSpec:
    """Phase regressor: [16, 52, 52, 52, 1], sigmoid then tanh, linear output."""
    return NetworkSpec((2 * B_OUTCOMES, 52, 52, 52, 1), ("sigmoid", "tanh", "tanh", "linear"))


# ---------------------------------------------------------------------------
# Probability-row utilities
# ---------------------------------------------------------------------------


def renormalize_rows(rows: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and rescale rows to unit sum.

    All-zero rows fall back to the uniform distribution with a warning.
    """
    rows = np.maximum(np.asarray(rows, dtype=float), 0.0)
    totals = rows.sum(axis=1)
    dead = totals <= 0
    if np.any(dead):
        warnings.warn(f"{int(dead.sum())} all-zero rows replaced by uniform")
        rows[dead] = 1.0 / rows.shape[1]
        totals = rows.sum(axis=1)
    return rows / totals[:, None]


def corrupt_rows(rows: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian corruption of probability rows, clipped and renormalized."""
    noisy = np.asarray(rows, dtype=float) + rng.normal(0.0, sigma, size=np.shape(rows))
    return renormalize_rows(noisy)


def dae_denoise(net: Network, rows: np.ndarray) -> np.ndarray:
    """Denoise probability rows; outputs are valid distributions."""
    return renormalize_rows(forward(net, _as_batch(rows)))


def ideal_full_rows(phases: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """Ideal 128-outcome rows: informative-bit chain times uniform junk bits."""
    rows = bit_chain_probabilities(phases, delta)[:, _B_FROM_M]
    rows /= 16.0  # in place: one [n, 128] array at a time
    return rows


def dae_training_set(
    n_samples: int,
    sigma: float,
    rng: np.random.Generator,
    delta: float = 1.0,
) -> TrainingSet:
    """Corrupted ideal 128-outcome rows with clean targets, random phases."""
    phases = rng.uniform(0.0, TWO_PI, size=n_samples)
    clean = ideal_full_rows(phases, delta)
    noisy = corrupt_rows(clean, sigma, rng)
    return TrainingSet(noisy, clean)


# ---------------------------------------------------------------------------
# Phase regressor data and evaluation
# ---------------------------------------------------------------------------


def shifted_rows(phases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows at phi + `ESTIMATOR_PHASE_SHIFT` by circular linear interpolation on the grid.

    The shift is generally not a multiple of the grid spacing, so the two
    nearest grid rows are blended and renormalized.
    """
    phases = np.asarray(phases, dtype=float)
    rows = np.asarray(rows, dtype=float)
    n = len(phases)
    if n < 2:
        raise ValueError("need at least two grid rows to interpolate")
    spacing = TWO_PI / n
    pos = ((phases + ESTIMATOR_PHASE_SHIFT) % TWO_PI) / spacing
    lo = np.floor(pos).astype(int) % n
    frac = pos - np.floor(pos)
    hi = (lo + 1) % n
    blended = (1.0 - frac)[:, None] * rows[lo] + frac[:, None] * rows[hi]
    return renormalize_rows(blended)


def estimator_inputs_from_rows(phases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """[n_phases, 16] regressor inputs from a grid of 8-outcome rows."""
    return np.concatenate([rows, shifted_rows(phases, rows)], axis=1)


def estimator_training_set(
    n_phases: int,
    sigma: float,
    rng: np.random.Generator,
    replicas: int = 4,
    delta: float = 1.0,
) -> TrainingSet:
    """Simulated-model regressor data: noisy (p(b|phi), p(b|phi+shift)) pairs.

    The shifted row is evaluated analytically (no interpolation error in
    training); corruption is applied independently to both rows.
    """
    grid = grid_phases(n_phases)
    inputs, targets = [], []
    for _ in range(replicas):
        jitter = rng.uniform(0.0, TWO_PI / n_phases)
        phases = (grid + jitter) % TWO_PI
        clean_a = bit_chain_probabilities(phases, delta)
        clean_b = bit_chain_probabilities((phases + ESTIMATOR_PHASE_SHIFT) % TWO_PI, delta)
        noisy_a = corrupt_rows(clean_a, sigma, rng) if sigma > 0 else clean_a
        noisy_b = corrupt_rows(clean_b, sigma, rng) if sigma > 0 else clean_b
        inputs.append(np.concatenate([noisy_a, noisy_b], axis=1))
        targets.append(phases)
    return TrainingSet(np.concatenate(inputs, axis=0), np.concatenate(targets, axis=0))


def circular_errors(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Signed circular errors predicted - truth in (-pi, pi], elementwise."""
    d = np.mod(np.asarray(predicted, dtype=float) - np.asarray(truth, dtype=float), TWO_PI)
    return np.where(d > math.pi, d - TWO_PI, d)


def circular_rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square circular error for phase-valued estimates."""
    return float(np.sqrt(np.mean(np.square(circular_errors(predicted, truth)))))


def evaluate_estimator(net: Network, phases: np.ndarray, inputs: np.ndarray) -> dict:
    """Prediction metrics on a held-out grid.

    ``rmse`` is circular (phase-valued target); ``rmse_raw`` ignores the wrap;
    ``branch_accuracy`` is the fraction of phases in (pi, 2*pi) recovered with
    circular error below pi/2, probing the 2*pi disambiguation.
    """
    predicted = forward(net, inputs)[:, 0] % TWO_PI
    phases = np.asarray(phases, dtype=float)
    rmse = circular_rmse(predicted, phases)
    rmse_raw = float(np.sqrt(np.mean((predicted - phases) ** 2)))
    upper = (phases > math.pi) & (phases < TWO_PI)
    if upper.any():
        errs = np.abs(circular_errors(predicted[upper], phases[upper]))
        branch = float(np.mean(errs < math.pi / 2))
    else:
        branch = float("nan")
    return {"rmse": rmse, "rmse_raw": rmse_raw, "branch_accuracy": branch}


def train_and_eval_estimator(
    cfg: TrainConfig,
    n_train_phases: int = 160,
    noise_sigma: float = 0.01,
    replicas: int = 4,
    delta: float = 1.0,
) -> tuple[Network, list[float], dict]:
    """Train the regressor on simulated data and report held-out metrics.

    The held-out grid of 99 phases is offset from the training grids; inputs
    are clean analytic rows (the denoised-probability use case).
    """
    rng = np.random.default_rng(cfg.seed)
    dataset = estimator_training_set(n_train_phases, noise_sigma, rng, replicas, delta)
    net = Network.initialize(build_estimator(), rng)
    trace = train(net, dataset, cfg)
    grid = (grid_phases(99) + 0.013) % TWO_PI
    clean_a = bit_chain_probabilities(grid, delta)
    clean_b = bit_chain_probabilities((grid + ESTIMATOR_PHASE_SHIFT) % TWO_PI, delta)
    inputs = np.concatenate([clean_a, clean_b], axis=1)
    return net, trace, evaluate_estimator(net, grid, inputs)
