"""Attention encoder-decoder graph network for weekly risk forecasting.

The forecaster maps an observed window of the three risk channels on every
graph node to a single risk score per node for each future week. Each layer
interleaves two mechanisms with pre-norm residuals:

* temporal multi-head attention whose query/key/value stem is a 1-D
  convolution over weeks (causal padding on the decoder side), and
* a spatial graph convolution where three channel-specific attention maps,
  one per risk pattern, are multiplied elementwise into the normalized
  adjacency, so attention can only re-weight existing edges; the three
  attended messages are averaged.

The decoder runs its output positions in parallel from a learned start token
plus sinusoidal position encoding: masked self-attention over output weeks,
cross-attention into the encoded history, then the spatial convolution. A
linear head maps hidden width to one score per node and week.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .artifacts import read_json, reading, write_json
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeMismatchError


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    heads: int = 4
    layers: int = 1
    t_in: int = 12
    t_out: int = 12
    conv_kernel: int = 3
    dropout: float = 0.1
    spatial_attention: bool = True  # False: plain graph convolution (no attention mask)

    def __post_init__(self):
        if self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"width {self.d} not divisible by {self.heads} heads")
        if self.t_in < 1 or self.t_out < 1:
            raise ConfigError("window lengths must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")
        if self.conv_kernel < 1:
            raise ConfigError("conv kernel must be >= 1")


N_CHANNELS = 3
N_PATTERNS = 3  # one spatial attention pattern per risk channel


def sinusoidal_encoding(t: int, d: int) -> np.ndarray:
    pos = np.arange(t)[:, None]
    idx = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), ad.MASK_VALUE), k=1)


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Glorot-uniform weights, zero biases, unit layer-norm gains; seeded."""
    rng = np.random.default_rng(seed)
    d, k = config.d, config.conv_kernel
    params: dict[str, Tensor] = {}

    def glorot(shape, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)

    def linear(name, n_in, n_out):
        params[name] = glorot((n_in, n_out), n_in, n_out)

    def norm(name):
        params[f"{name}.gain"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{name}.bias"] = Tensor(np.zeros(d), requires_grad=True)

    def attention(name, with_conv):
        if with_conv:
            params[f"{name}.conv.w"] = glorot((k, d, d), k * d, d)
            params[f"{name}.conv.b"] = Tensor(np.zeros(d), requires_grad=True)
        for proj in ("wq", "wk", "wv", "wo"):
            linear(f"{name}.{proj}", d, d)

    def gcn(name):
        for f in range(N_PATTERNS):
            linear(f"{name}.p{f}.wq", d, d)
            linear(f"{name}.p{f}.wk", d, d)
            linear(f"{name}.p{f}.theta", d, d)

    linear("embed.w", N_CHANNELS, d)
    params["embed.b"] = Tensor(np.zeros(d), requires_grad=True)
    params["start_token"] = Tensor(rng.normal(0.0, 0.02, d), requires_grad=True)
    for layer in range(config.layers):
        enc = f"enc{layer}"
        norm(f"{enc}.ln1")
        attention(f"{enc}.attn", with_conv=True)
        norm(f"{enc}.ln2")
        gcn(f"{enc}.gcn")
        dec = f"dec{layer}"
        norm(f"{dec}.ln1")
        attention(f"{dec}.self", with_conv=True)
        norm(f"{dec}.ln2")
        attention(f"{dec}.cross", with_conv=False)
        norm(f"{dec}.ln3")
        gcn(f"{dec}.gcn")
    linear("head.w", d, 1)
    params["head.b"] = Tensor(np.zeros(1), requires_grad=True)
    return params


def clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {
        name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
        for name, t in params.items()
    }


def save_checkpoint(
    params: dict[str, Tensor], manifest_path, bin_path, extra: dict | None = None
) -> None:
    """JSON manifest (names, shapes, offsets) + flat little-endian float64 blob."""
    manifest, offset = [], 0
    with open(bin_path, "wb") as fh:
        for name, tensor in params.items():
            blob = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
            fh.write(blob)
            manifest.append(
                {"name": name, "shape": list(tensor.data.shape), "offset": offset}
            )
            offset += tensor.data.size
    write_json(manifest_path, {**(extra or {}), "dtype": "<f8", "parameters": manifest})


def load_checkpoint(manifest_path, bin_path) -> dict[str, Tensor]:
    """Read a `save_checkpoint` pair; DataError if the manifest is not a JSON
    object with a dtype and parameter entries, or the blob length disagrees
    with the extent the manifest describes."""
    manifest = read_json(manifest_path, "train")
    blob = Path(bin_path).read_bytes()
    with reading(manifest_path, "train"):
        dtype = np.dtype(manifest["dtype"])
        entries = [
            (entry, int(np.prod(entry["shape"]))) for entry in manifest["parameters"]
        ]
        expected = max((entry["offset"] + size for entry, size in entries), default=0)
        if len(blob) != expected * dtype.itemsize:
            raise DataError(
                f"checkpoint {bin_path} holds {len(blob)} bytes but its manifest "
                f"describes {expected * dtype.itemsize}; run `train` again"
            )
        flat = np.frombuffer(blob, dtype=dtype)
        params = {}
        for entry, size in entries:
            chunk = flat[entry["offset"] : entry["offset"] + size]
            params[entry["name"]] = Tensor(
                chunk.reshape(entry["shape"]).astype(np.float64), requires_grad=True
            )
    return params


class RiskForecaster:
    """Forward pass over a fixed graph; parameters live in a flat dict.

    `attention_log` is refilled on every forward with the softmax outputs of
    each attention site, for row-stochasticity checks and inspection. The
    entries are the output arrays themselves, not copies: no op writes its
    output in place, only parameters are updated in place.
    """

    def __init__(
        self,
        config: ModelConfig,
        adjacency_norm: np.ndarray,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
    ):
        self.config = config
        self.a_norm = np.asarray(
            adjacency_norm.toarray()
            if hasattr(adjacency_norm, "toarray")
            else adjacency_norm,
            dtype=np.float64,
        )
        if self.a_norm.ndim != 2 or self.a_norm.shape[0] != self.a_norm.shape[1]:
            raise ShapeMismatchError("adjacency must be square")
        self._neighbors = ad.neighbor_table(self.a_norm)
        self.params = params if params is not None else init_params(config, seed)
        self.attention_log: list[dict] = []
        self._pe_enc = sinusoidal_encoding(config.t_in, config.d)
        self._pe_dec = sinusoidal_encoding(config.t_out, config.d)

    @property
    def n_nodes(self) -> int:
        return self.a_norm.shape[0]

    def _log_attention(self, site: str, attn: Tensor, mask: np.ndarray | None):
        self.attention_log.append(
            {"site": site, "weights": attn.data, "mask": mask}
        )

    def _heads_split(self, x: Tensor, n: int, t: int) -> Tensor:
        h, dk = self.config.heads, self.config.d // self.config.heads
        return ad.transpose(ad.reshape(x, (n, t, h, dk)), (0, 2, 1, 3))

    def _heads_join(self, x: Tensor, n: int, t: int) -> Tensor:
        return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (n, t, self.config.d))

    def _self_attention(self, h: Tensor, prefix: str, causal: bool) -> Tensor:
        p = self.params
        stem = ad.conv1d(h, p[f"{prefix}.conv.w"], p[f"{prefix}.conv.b"], causal=causal)
        return self._attention(stem, stem, prefix, causal_mask(h.shape[1]) if causal else None)

    def _attention(
        self, queries: Tensor, memory: Tensor, prefix: str, mask: np.ndarray | None
    ) -> Tensor:
        """Multi-head attention from each node's query weeks to its memory weeks."""
        p = self.params
        n, t_q, d = queries.shape
        t_m = memory.shape[1]
        dk = d // self.config.heads
        q = self._heads_split(ad.matmul(queries, p[f"{prefix}.wq"]), n, t_q)
        k = self._heads_split(ad.matmul(memory, p[f"{prefix}.wk"]), n, t_m)
        v = self._heads_split(ad.matmul(memory, p[f"{prefix}.wv"]), n, t_m)
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
        attn = ad.softmax_rows(scores, mask=mask)
        self._log_attention(prefix, attn, mask)
        mixed = self._heads_join(ad.matmul(attn, v), n, t_q)
        return ad.matmul(mixed, p[f"{prefix}.wo"])

    def _spatial_gcn(self, h: Tensor, prefix: str) -> Tensor:
        """Per-week graph convolution with channel-pattern attention.

        Attention is multiplied elementwise into the normalized adjacency, so
        messages flow only along existing edges and are gathered from each
        node's neighbors; a node with no neighbors receives a zero message
        and keeps its value via the outer residual.
        """
        p = self.params
        d = h.shape[2]
        ht = ad.transpose(h, (1, 0, 2))  # (weeks, nodes, d)
        parts = []
        for f in range(N_PATTERNS):
            s = None
            if self.config.spatial_attention:
                q = ad.matmul(ht, p[f"{prefix}.p{f}.wq"])
                k = ad.matmul(ht, p[f"{prefix}.p{f}.wk"])
                s = ad.softmax_rows(
                    ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d))
                )
                self._log_attention(f"{prefix}.p{f}", s, None)
            message = ad.edge_matmul_sorted(s, self.a_norm, self._neighbors, ht)
            parts.append(ad.relu(ad.matmul(message, p[f"{prefix}.p{f}.theta"])))
        combined = ad.add(ad.add(parts[0], parts[1]), parts[2])
        return ad.transpose(ad.scale(combined, 1.0 / N_PATTERNS), (1, 0, 2))

    def _sublayer(self, h, fn, norm_name, training, rng):
        p = self.params
        normed = ad.layer_norm(h, p[f"{norm_name}.gain"], p[f"{norm_name}.bias"])
        out = fn(normed)
        if training and self.config.dropout > 0.0:
            out = ad.dropout(out, self.config.dropout, rng, training=True)
        return ad.add(h, out)

    def embed(self, x) -> Tensor:
        x = ad.as_tensor(x)
        if x.ndim != 3 or x.shape[2] != N_CHANNELS:
            raise ShapeMismatchError(
                f"expected (nodes, weeks, {N_CHANNELS}) input, got {x.shape}"
            )
        return ad.add(ad.matmul(x, self.params["embed.w"]), self.params["embed.b"])

    def encode(self, x, training: bool = False, rng=None) -> Tensor:
        x = ad.as_tensor(x)
        if x.shape[0] != self.n_nodes:
            raise ShapeMismatchError(
                f"input has {x.shape[0]} nodes, graph has {self.n_nodes}"
            )
        if x.shape[1] != self.config.t_in:
            raise ShapeMismatchError(
                f"input window {x.shape[1]} != configured {self.config.t_in}"
            )
        h = ad.add(self.embed(x), self._pe_enc)
        for layer in range(self.config.layers):
            enc = f"enc{layer}"
            h = self._sublayer(
                h,
                lambda z: self._self_attention(z, f"{enc}.attn", causal=False),
                f"{enc}.ln1",
                training,
                rng,
            )
            h = self._sublayer(
                h, lambda z: self._spatial_gcn(z, f"{enc}.gcn"), f"{enc}.ln2", training, rng
            )
        return h

    def decoder_start(self, n_nodes: int) -> Tensor:
        base = Tensor(np.zeros((n_nodes, self.config.t_out, self.config.d)))
        return ad.add(ad.add(base, self.params["start_token"]), self._pe_dec)

    def decode(self, dec_in: Tensor, enc_out: Tensor, training: bool = False, rng=None) -> Tensor:
        h = ad.as_tensor(dec_in)
        for layer in range(self.config.layers):
            dec = f"dec{layer}"
            h = self._sublayer(
                h,
                lambda z: self._self_attention(z, f"{dec}.self", causal=True),
                f"{dec}.ln1",
                training,
                rng,
            )
            h = self._sublayer(
                h,
                lambda z: self._attention(z, enc_out, f"{dec}.cross", None),
                f"{dec}.ln2",
                training,
                rng,
            )
            h = self._sublayer(
                h, lambda z: self._spatial_gcn(z, f"{dec}.gcn"), f"{dec}.ln3", training, rng
            )
        return h

    def head(self, dec_out: Tensor) -> Tensor:
        n, t, d = dec_out.shape
        flat = ad.reshape(dec_out, (n * t, d))
        y = ad.add(ad.matmul(flat, self.params["head.w"]), self.params["head.b"])
        return ad.reshape(y, (n, t))

    def forward(self, x, training: bool = False, rng=None) -> Tensor:
        """x: (nodes, t_in, 3) scaled risk values -> (nodes, t_out) scores."""
        self.attention_log = []
        enc_out = self.encode(x, training, rng)
        dec_out = self.decode(
            self.decoder_start(self.n_nodes), enc_out, training, rng
        )
        return self.head(dec_out)

    def predict(self, x) -> np.ndarray:
        """Deterministic evaluation-mode forward, no gradient graph."""
        with ad.no_grad():
            return self.forward(x, training=False).data.copy()
