"""Temporal splitting, Adam training with a fine-tuning phase, checkpointing.

The processed weekly tensor is cut into contiguous train/validation/test
spans (the run config's `split_fractions`); sliding windows of t_in observed weeks plus
t_out target weeks never straddle a span boundary. Training minimizes the
mean absolute error of the predicted traffic-safety channel, runs a main
phase and then a fine-tuning phase at a tenth of the learning rate starting
from the best validation checkpoint, and keeps Adam's moment estimates
across the phase switch. Reported parameters are always the ones with the
lowest validation loss, never the final epoch.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .diffusion import DiffusionConfig, MinMaxScaler, apply_diffusion
from .errors import ConfigError, InsufficientHistoryError, NonFiniteLossError
from .features import RiskTensor
from .model import RiskForecaster, clone_params

TARGET_CHANNEL = 0  # traffic-safety risk is the forecast target


@dataclass(frozen=True)
class TrainConfig:
    epochs_main: int = 50
    epochs_finetune: int = 20
    lr_main: float = 1e-5
    lr_finetune: float | None = None  # None: lr_main / 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    batch: int | None = None  # windows per step; None = all windows

    def __post_init__(self):
        if self.epochs_main < 0 or self.epochs_finetune < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.lr_main < 0 or (self.lr_finetune is not None and self.lr_finetune < 0):
            raise ConfigError("learning rate must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"Adam betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.eps > 0:
            raise ConfigError(f"Adam eps must be > 0, got {self.eps}")
        if self.batch is not None and self.batch < 1:
            raise ConfigError(f"batch must be >= 1 window, got {self.batch}")

    @property
    def finetune_lr(self) -> float:
        return self.lr_main / 10.0 if self.lr_finetune is None else self.lr_finetune


@dataclass(frozen=True)
class TemporalSplits:
    train: tuple[int, int]       # [start, end) week indices
    validation: tuple[int, int]
    test: tuple[int, int]


def split_temporal(
    n_weeks: int,
    t_in: int,
    t_out: int,
    fractions: tuple[float, float, float],
) -> TemporalSplits:
    """Contiguous, ordered, floor-rounded spans; each must host a window."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1: {fractions}")
    train_end = math.floor(n_weeks * fractions[0])
    val_end = math.floor(n_weeks * (fractions[0] + fractions[1]))
    splits = TemporalSplits((0, train_end), (train_end, val_end), (val_end, n_weeks))
    window = t_in + t_out
    for name, (lo, hi) in (
        ("train", splits.train),
        ("validation", splits.validation),
        ("test", splits.test),
    ):
        if hi - lo < window:
            raise InsufficientHistoryError(
                f"{name} span holds {hi - lo} weeks; a window needs {window}"
            )
    return splits


def windows_in(span: tuple[int, int], t_in: int, t_out: int) -> list[int]:
    """Start indices of stride-1 windows fully inside [span_lo, span_hi)."""
    lo, hi = span
    return list(range(lo, hi - (t_in + t_out) + 1))


@dataclass
class TrainingData:
    """Model inputs and forecast targets, windowed over the split spans.

    Inputs are the diffused, scaled three-channel tensor; targets are the
    scaled raw safety channel, which keeps true zeros where a node saw no
    accidents (diffused values would turn every empty week into a tiny
    positive number and poison relative-error metrics).
    """

    inputs: RiskTensor            # (W, N, 3) processed input channels
    targets: np.ndarray           # (W, N) scaled raw safety channel
    t_in: int
    t_out: int
    splits: TemporalSplits
    channel_mask: tuple[int, int, int]

    def __post_init__(self):
        if self.channel_mask[TARGET_CHANNEL] != 1:
            raise ConfigError("the target channel cannot be masked out of the input")
        if self.targets.shape != (self.inputs.n_weeks, self.inputs.n_nodes):
            raise ConfigError(
                f"targets {self.targets.shape} do not match inputs "
                f"({self.inputs.n_weeks}, {self.inputs.n_nodes})"
            )

    def window(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, y): x is (nodes, t_in, 3) masked input, y is (nodes, t_out)."""
        x = self.inputs.values[start : start + self.t_in].transpose(1, 0, 2).copy()
        x *= np.asarray(self.channel_mask, dtype=float)
        y = self.targets[start + self.t_in : start + self.t_in + self.t_out].T.copy()
        return x, y

    def train_windows(self) -> list[int]:
        return windows_in(self.splits.train, self.t_in, self.t_out)

    def validation_windows(self) -> list[int]:
        return windows_in(self.splits.validation, self.t_in, self.t_out)

    def test_windows(self) -> list[int]:
        return windows_in(self.splits.test, self.t_in, self.t_out)

    def last_test_window(self) -> int:
        return self.test_windows()[-1]


def prepare_training_data(
    raw_tensor: RiskTensor,
    a_norm,
    diffusion_config: DiffusionConfig,
    t_in: int,
    t_out: int,
    fractions: tuple[float, float, float],
    channel_mask: tuple[int, int, int] = (1, 1, 1),
) -> tuple[TrainingData, MinMaxScaler, MinMaxScaler]:
    """Diffuse, scale, and window the raw risk tensor.

    Both scalers fit on the training span only. Returns the windowed data
    plus the input and the target scaler; the target scaler inverts
    predictions back to raw safety-risk units.
    """
    splits = split_temporal(raw_tensor.n_weeks, t_in, t_out, fractions)
    inputs = apply_diffusion(raw_tensor, a_norm, diffusion_config)
    input_scaler = MinMaxScaler().fit(inputs, week_range=splits.train)
    inputs.values = input_scaler.transform(inputs.values)
    scaler = MinMaxScaler().fit(raw_tensor, week_range=splits.train)
    # scale the target channel alone: a slice of all three scaled channels
    # would keep the whole scaled copy alive behind the targets
    target = MinMaxScaler(scaler.minima[TARGET_CHANNEL], scaler.maxima[TARGET_CHANNEL])
    targets = target.transform(raw_tensor.values[:, :, TARGET_CHANNEL])
    data = TrainingData(inputs, targets, t_in, t_out, splits, channel_mask)
    return data, input_scaler, scaler


class Adam:
    """Adam over a named parameter dict, moments kept across phase switches."""

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def zero_grad(self):
        for tensor in self.params.values():
            tensor.zero_grad()

    def step(self, lr: float):
        c = self.config
        self.t += 1
        bias1 = 1.0 - c.beta1**self.t
        bias2 = 1.0 - c.beta2**self.t
        for name, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            self.m[name] = c.beta1 * self.m[name] + (1.0 - c.beta1) * g
            self.v[name] = c.beta2 * self.v[name] + (1.0 - c.beta2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            tensor.data -= lr * m_hat / (np.sqrt(v_hat) + c.eps)


def _window_loss(model: RiskForecaster, data: TrainingData, start: int, training, rng) -> Tensor:
    x, y = data.window(start)
    pred = model.forward(x, training=training, rng=rng)
    return ad.mean_(ad.abs_(ad.sub(pred, y)))


def _halves(model: RiskForecaster, starts: list, training, rng):
    """The two (starts, rng) parts of a taped region-scale batch, which
    `ad.fork_join` runs on two threads, or None where the batch streams on
    this thread alone.

    Only a taped batch of two or more windows splits, and only where
    `edge_attention` recomputes its probabilities (t_in * n^2 beyond
    KEEP_ELEMENTS): at the fixture's 30 nodes the work is Python-bound and
    two halves measured slower. Half 0 takes the first ceil(b / 2) windows
    and the caller's generator; half 1 a copy advanced past half 0's draws,
    so every dropout mask is the loop's. Only PCG64 (`default_rng`) is known
    to advance by single draws; other generators, and an attention-capturing
    model, whose log must be the last window's, stay on this thread.
    """
    n = model.n_nodes
    if (
        len(starts) < 2
        or not ad.recording()
        or model.config.t_in * n * n <= ad.KEEP_ELEMENTS
        or model.capture_attention
    ):
        return None
    mid = (len(starts) + 1) // 2
    draws = mid * model.dropout_draws(training)
    later = rng
    if draws:
        if not isinstance(rng.bit_generator, np.random.PCG64):
            return None
        later = copy.deepcopy(rng)
        later.bit_generator.advance(draws)
    return (starts[:mid], rng), (starts[mid:], later)


def batch_loss(model: RiskForecaster, data: TrainingData, starts, training=False, rng=None) -> Tensor:
    """Mean L1 over the given windows: a loop over them when untaped.

    Taped, the windows stream through `ad.fork_join`, one window's graph
    per thread, and a region-scale batch runs in two halves on two threads
    (`_halves`). The loss, gradients, generator state and attention log
    equal those of the window loop on one tape bitwise.
    """
    starts = list(starts)
    if not ad.recording():
        total = None
        for start in starts:
            loss = _window_loss(model, data, start, training, rng)
            total = loss if total is None else ad.add(total, loss)
        return ad.scale(total, 1.0 / len(starts))
    halves = _halves(model, starts, training, rng) or [(starts, rng)]

    def window_loss(params, item):
        start, part_rng = item
        view = copy.copy(model)
        view.params = params
        loss = _window_loss(view, data, start, training, part_rng)
        if model.capture_attention:  # never split: the log is the last window's
            model.attention_log = view.attention_log
        return loss

    total = ad.fork_join(
        window_loss, model.params, [[(start, part_rng) for start in part] for part, part_rng in halves]
    )
    if rng is not None:  # the last part's generator made the last draws
        rng.bit_generator.state = halves[-1][1].bit_generator.state
    return total


def eval_loss(model: RiskForecaster, data: TrainingData, starts) -> float:
    with ad.no_grad():
        return batch_loss(model, data, starts, training=False).item()


@dataclass
class TrainResult:
    best_params: dict[str, Tensor]
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf


def train(model: RiskForecaster, data: TrainingData, config: TrainConfig) -> TrainResult:
    """Main phase then fine-tune from the best checkpoint; deterministic."""
    train_starts = data.train_windows()
    val_starts = data.validation_windows()
    optimizer = Adam(model.params, config)
    result = TrainResult(best_params=clone_params(model.params))
    result.best_val_loss = eval_loss(model, data, val_starts)
    epoch_counter = 0

    def run_phase(phase: str, epochs: int, lr: float):
        nonlocal epoch_counter
        for _ in range(epochs):
            epoch_counter += 1
            order_rng = np.random.default_rng((config.seed, epoch_counter, 1))
            dropout_rng = np.random.default_rng((config.seed, epoch_counter, 2))
            order = list(train_starts)
            order_rng.shuffle(order)
            batch = len(order) if config.batch is None else config.batch
            epoch_losses = []
            for b0 in range(0, len(order), batch):
                starts = order[b0 : b0 + batch]
                optimizer.zero_grad()
                with Tape() as tape:
                    loss = batch_loss(
                        model, data, starts, training=True, rng=dropout_rng
                    )
                    value = loss.item()
                    if not math.isfinite(value):
                        raise NonFiniteLossError(
                            f"non-finite loss at epoch {epoch_counter}, "
                            f"batch {b0 // batch}: {value}"
                        )
                    tape.backward(loss)
                optimizer.step(lr)
                epoch_losses.append(value)
            val_loss = eval_loss(model, data, val_starts)
            is_best = val_loss < result.best_val_loss
            if is_best:
                result.best_val_loss = val_loss
                result.best_epoch = epoch_counter
                result.best_params = clone_params(model.params)
            result.history.append(
                {
                    "epoch": epoch_counter,
                    "phase": phase,
                    "lr": lr,
                    "train_loss": float(np.mean(epoch_losses)),
                    "val_loss": val_loss,
                    "is_best": is_best,
                }
            )

    run_phase("main", config.epochs_main, config.lr_main)
    # fine-tune resumes from the best checkpoint; Adam moments carry over
    for name, tensor in model.params.items():
        tensor.data[:] = result.best_params[name].data
    run_phase("finetune", config.epochs_finetune, config.finetune_lr)
    for name, tensor in model.params.items():
        tensor.data[:] = result.best_params[name].data
    return result
