"""Feature-specific spatial diffusion of the risk tensor.

Each week and channel is smoothed independently over the normalized
adjacency with the convex update x <- (1-alpha) x + alpha A_norm x, repeated
a channel-specific number of iterations, then blended with the original
values by a fusion weight beta. Channels get their own (alpha, iterations)
because safety, infrastructure, and environmental risk propagate over
different spatial ranges; the named presets span no smoothing through
deliberate over-smoothing for the ablation runner.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .features import RiskTensor
from .graph import EdgeTable


@dataclass(frozen=True)
class DiffusionConfig:
    name: str = "Differentiated_B"
    alpha: tuple[float, float, float] = (0.25, 0.15, 0.3)
    iters: tuple[int, int, int] = (1, 1, 2)
    beta: float = 0.7

    def __post_init__(self):
        if any(not (0.0 <= a <= 1.0) for a in self.alpha):
            raise ConfigError(f"diffusion alphas must lie in [0,1]: {self.alpha}")
        if any(i < 0 for i in self.iters):
            raise ConfigError(f"diffusion iteration counts must be >= 0: {self.iters}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"fusion weight must lie in [0,1]: {self.beta}")


def _cfg(name, alpha, iters) -> DiffusionConfig:
    return DiffusionConfig(name=name, alpha=alpha, iters=iters)


# DiffusionConfig's defaults are the Differentiated_B preset
PRESETS = {
    c.name: c
    for c in (
        _cfg("No_Diffusion", (0.0, 0.0, 0.0), (0, 0, 0)),
        _cfg("Uniform_Weak", (0.1, 0.1, 0.1), (1, 1, 1)),
        _cfg("Uniform_Medium", (0.2, 0.2, 0.2), (1, 1, 1)),
        _cfg("Uniform_Strong", (0.3, 0.3, 0.3), (2, 2, 2)),
        _cfg("Differentiated_Current", (0.2, 0.2, 0.2), (1, 1, 1)),
        _cfg("Differentiated_A", (0.3, 0.1, 0.25), (2, 1, 2)),
        DiffusionConfig(),
        _cfg("Over_Diffusion", (0.5, 0.4, 0.4), (3, 3, 3)),
    )
}


def preset(name: str) -> DiffusionConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown diffusion preset {name!r}; known: {sorted(PRESETS)}"
        ) from None


def _product(a_norm: EdgeTable, x: np.ndarray) -> np.ndarray:
    """`A_norm @ x` for (N, m) x, bitwise what scipy's CSR product gives: each
    row's terms added one table slot after another from +0.0. Rows go by
    descending degree in blocks of 256, small enough that a block's sums stay
    in cache, and a slot updates only the leading rows that have it."""
    degree = (a_norm.neighbors >= 0).sum(axis=1)
    order = np.argsort(-degree, kind="stable")
    out = np.empty(x.shape)
    for lo in range(0, x.shape[0], 256):
        rows = order[lo : lo + 256]
        total = np.zeros((rows.size, x.shape[1]))
        for slot in range(degree[rows[0]]):
            have = rows[: np.count_nonzero(degree[rows] > slot)]
            total[: have.size] += a_norm.weights[have, slot, None] * x[a_norm.neighbors[have, slot]]
        out[rows] = total
    return out


def diffuse_feature(x: np.ndarray, a_norm: EdgeTable, alpha: float, iters: int) -> np.ndarray:
    """Apply x <- (1-alpha) x + alpha A_norm x `iters` times to the (N, m)
    float stack x, whose columns are smoothed together."""
    n = a_norm.neighbors.shape[0]
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeMismatchError(f"diffusion shapes disagree: x {x.shape}, A_norm over {n} nodes")
    out = np.ascontiguousarray(x)  # rows gather faster contiguous
    for _ in range(iters):
        out = (1.0 - alpha) * out + alpha * _product(a_norm, out)
    return out


def fuse(diffused: np.ndarray, original: np.ndarray, beta: float) -> np.ndarray:
    """beta * diffused + (1-beta) * original, elementwise."""
    diffused = np.asarray(diffused, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    if diffused.shape != original.shape:
        raise ShapeMismatchError(
            f"fuse shapes disagree: {diffused.shape} vs {original.shape}"
        )
    return beta * diffused + (1.0 - beta) * original


def apply_diffusion(
    tensor: RiskTensor,
    a_norm: EdgeTable,
    config: DiffusionConfig,
) -> RiskTensor:
    """Diffuse every week and channel independently, then fuse with the input.

    Output shape equals input shape; side-by-side channels stay concatenated
    in the shared (W, N, 3) layout.
    """
    w, n, _ = tensor.values.shape
    if a_norm.neighbors.shape[0] != n:
        raise ShapeMismatchError(
            f"tensor has {n} nodes but adjacency has {a_norm.neighbors.shape[0]}"
        )
    out = np.empty_like(tensor.values)
    for f in range(3):
        original = tensor.values[:, :, f].T  # (N, W): weeks smoothed as columns
        if config.alpha[f] == 0.0 or config.iters[f] == 0:
            # fusing an unmoved signal with itself must stay the exact identity
            out[:, :, f] = original.T
        else:
            diffused = diffuse_feature(
                original, a_norm, config.alpha[f], config.iters[f]
            )
            out[:, :, f] = fuse(diffused, original, config.beta).T
    meta = {**tensor.meta, "diffusion": asdict(config)}
    return RiskTensor(list(tensor.weeks), out, meta)


@dataclass
class MinMaxScaler:
    """Per-channel affine map to [0, 1], fit on the training weeks only.

    Fitting on the full series would leak test-period magnitudes into
    training, so the fit range is explicit. A constant channel maps to 0.
    """

    minima: np.ndarray | None = None
    maxima: np.ndarray | None = None

    def fit(self, tensor: RiskTensor, week_range: tuple[int, int]):
        lo, hi = week_range
        block = tensor.values[lo:hi]
        if block.size == 0:
            raise ShapeMismatchError("cannot fit a scaler on an empty week range")
        self.minima = block.min(axis=(0, 1))
        self.maxima = block.max(axis=(0, 1))
        return self

    def _check(self):
        if self.minima is None:
            raise ValueError("scaler not fitted")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check()
        span = self.maxima - self.minima
        out = values - self.minima  # then in place: full-size temporaries set diffuse's peak RSS
        out /= np.where(span == 0.0, 1.0, span)
        out[..., span == 0.0] = 0.0
        return out

    def inverse_channel(self, values: np.ndarray, channel: int) -> np.ndarray:
        self._check()
        span = self.maxima[channel] - self.minima[channel]
        return values * span + self.minima[channel]
