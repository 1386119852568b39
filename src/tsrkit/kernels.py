"""Desk-scale numerical kernels: depthwise/separable convolution, the
multi-branch spatial attention block, deformable convolution, and a
finite-difference gradient checker.

Tensors are float64 numpy arrays of shape (C, H, W). Convolutions follow the
machine-learning convention (no kernel flip) with zero padding that preserves
H x W. These implementations exist to pin the mechanisms down exactly, not
for throughput: channel counts stay <= 8 and spatial extents <= 32.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def _check_chw(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{name} must have shape (C, H, W), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


def _check_kernel(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim != 3 or kernels.shape[0] != x.shape[0]:
        raise ValueError(
            f"kernel shape {kernels.shape} does not match {x.shape[0]} channels"
        )
    if kernels.shape[1] % 2 == 0 or kernels.shape[2] % 2 == 0:
        raise ValueError(f"kernel dimensions must be odd, got {kernels.shape[1:]}")
    return kernels


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw))
    padded[:, ph : ph + h, pw : pw + w] = x
    return padded


def conv2d_depthwise(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel 2-D convolution, zero 'same' padding; kernels are (C, kh, kw)."""
    x = _check_chw(x)
    kernels = _check_kernel(x, kernels)
    _, h, w = x.shape
    kh, kw = kernels.shape[1:]
    padded = _pad(x, kh // 2, kw // 2)
    out = np.zeros_like(x)
    for dy in range(kh):
        for dx in range(kw):
            out += kernels[:, dy, dx][:, None, None] * padded[:, dy : dy + h, dx : dx + w]
    return out


def conv2d_depthwise_vjp(x, kernels, grad_out):
    """Gradients of conv2d_depthwise w.r.t. input and kernels."""
    x = _check_chw(x)
    kernels = _check_kernel(x, kernels)
    _, h, w = x.shape
    kh, kw = kernels.shape[1:]
    ph, pw = kh // 2, kw // 2
    padded = _pad(x, ph, pw)
    d_padded = np.zeros_like(padded)
    d_kernels = np.zeros_like(kernels)
    for dy in range(kh):
        for dx in range(kw):
            d_padded[:, dy : dy + h, dx : dx + w] += (
                kernels[:, dy, dx][:, None, None] * grad_out
            )
            d_kernels[:, dy, dx] = (grad_out * padded[:, dy : dy + h, dx : dx + w]).sum(
                axis=(1, 2)
            )
    return d_padded[:, ph : ph + h, pw : pw + w], d_kernels


@dataclass(frozen=True)
class SeparableParams:
    """A spatially separable depthwise pair: k x 1 then 1 x k, per channel.

    ``vertical`` and ``horizontal`` both have shape (C, k).
    """

    vertical: np.ndarray
    horizontal: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertical, dtype=np.float64)
        h = np.asarray(self.horizontal, dtype=np.float64)
        if v.shape != h.shape or v.ndim != 2:
            raise ValueError(
                f"vertical {v.shape} and horizontal {h.shape} must both be (C, k)"
            )
        object.__setattr__(self, "vertical", v)
        object.__setattr__(self, "horizontal", h)

    @property
    def kernel_len(self) -> int:
        return self.vertical.shape[1]


def separable_pair(x: np.ndarray, params: SeparableParams) -> np.ndarray:
    """Depthwise k x 1 convolution followed by depthwise 1 x k, same padding."""
    mid = conv2d_depthwise(x, params.vertical[:, :, None])
    return conv2d_depthwise(mid, params.horizontal[:, None, :])


def separable_pair_vjp(x, params: SeparableParams, grad_out):
    mid = conv2d_depthwise(x, params.vertical[:, :, None])
    d_mid, d_horizontal = conv2d_depthwise_vjp(
        mid, params.horizontal[:, None, :], grad_out
    )
    d_x, d_vertical = conv2d_depthwise_vjp(x, params.vertical[:, :, None], d_mid)
    return d_x, d_vertical[:, :, 0], d_horizontal[:, 0, :]


def pointwise_projection(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """1 x 1 convolution: (C_in, H, W) x (C_out, C_in) -> (C_out, H, W)."""
    x = _check_chw(x)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ValueError(
            f"projection weights {weights.shape} do not consume {x.shape[0]} channels"
        )
    return np.einsum("oi,ihw->ohw", weights, x)


def pointwise_projection_vjp(x, weights, grad_out):
    d_x = np.einsum("oi,ohw->ihw", weights, grad_out)
    d_weights = np.einsum("ohw,ihw->oi", grad_out, x)
    return d_x, d_weights


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def multiply_vjp(a, b, grad_out):
    return grad_out * b, grad_out * a


BRANCH_KERNEL_LENGTHS = (7, 11, 21)


@dataclass(frozen=True)
class SpatialAttentionParams:
    """Three separable large-kernel branches plus the 3C -> C projection."""

    branch7: SeparableParams
    branch11: SeparableParams
    branch21: SeparableParams
    projection: np.ndarray

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.float64)
        c = proj.shape[0] if proj.ndim == 2 else -1
        if proj.ndim != 2 or proj.shape[1] != 3 * c:
            raise ValueError(
                f"projection must map 3C -> C channels, got shape {proj.shape}"
            )
        for params, expected in zip(self.branches, BRANCH_KERNEL_LENGTHS):
            if params.kernel_len != expected:
                raise ValueError(
                    f"branch kernel length {params.kernel_len}, expected {expected}"
                )
            if params.vertical.shape[0] != c:
                raise ValueError("branch channel count does not match projection")
        object.__setattr__(self, "projection", proj)

    @property
    def branches(self) -> tuple[SeparableParams, SeparableParams, SeparableParams]:
        return (self.branch7, self.branch11, self.branch21)

    @classmethod
    def random(cls, channels: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        def branch(k):
            return SeparableParams(
                0.3 * rng.standard_normal((channels, k)),
                0.3 * rng.standard_normal((channels, k)),
            )
        return cls(
            branch7=branch(7),
            branch11=branch(11),
            branch21=branch(21),
            projection=0.3 * rng.standard_normal((channels, 3 * channels)),
        )


def spatial_attention_forward(x: np.ndarray, params: SpatialAttentionParams) -> np.ndarray:
    """Attention map from the three branches gates the input element-wise.

    attention = projection(concat(branch7(x), branch11(x), branch21(x)));
    output = attention * x, so shapes are preserved and the block can sit
    between any two backbone stages.
    """
    x = _check_chw(x)
    if params.projection.shape[0] != x.shape[0]:
        raise ValueError(
            f"params built for {params.projection.shape[0]} channels, input has {x.shape[0]}"
        )
    stacked = np.concatenate([separable_pair(x, p) for p in params.branches], axis=0)
    attention = pointwise_projection(stacked, params.projection)
    return multiply(attention, x)


def spatial_attention_vjp(x, params: SpatialAttentionParams, grad_out):
    """Gradients w.r.t. the input and every parameter tensor of the block."""
    x = _check_chw(x)
    c = x.shape[0]
    branch_outs = [separable_pair(x, p) for p in params.branches]
    stacked = np.concatenate(branch_outs, axis=0)
    attention = pointwise_projection(stacked, params.projection)

    d_attention, d_x = multiply_vjp(attention, x, grad_out)
    d_stacked, d_projection = pointwise_projection_vjp(
        stacked, params.projection, d_attention
    )
    branch_grads = []
    for i, p in enumerate(params.branches):
        d_branch_out = d_stacked[i * c : (i + 1) * c]
        d_x_branch, d_vertical, d_horizontal = separable_pair_vjp(x, p, d_branch_out)
        d_x = d_x + d_x_branch
        branch_grads.append((d_vertical, d_horizontal))
    return d_x, branch_grads, d_projection


@dataclass(frozen=True)
class DeformableParams:
    """Per-channel k x k weights plus a per-location offset field.

    ``offsets`` has shape (2 k^2, H, W): channels 2n and 2n+1 hold the
    (dy, dx) displacement of kernel tap n, taps enumerated row-major.
    """

    weights: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        o = np.asarray(self.offsets, dtype=np.float64)
        if w.ndim != 3 or w.shape[1] != w.shape[2] or w.shape[1] % 2 == 0:
            raise ValueError(f"weights must be (C, k, k) with odd k, got {w.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", o)

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[1]


def _bilinear_sample(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear read of fractional positions; everything outside reads 0.

    Exact integer coordinates inside the grid reproduce the stored value
    exactly (the off-grid corners get weight 0).
    """
    h, w = plane.shape
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = ys - y0
    fx = xs - x0
    out = np.zeros(ys.shape)
    for yy, wy in ((y0, 1.0 - fy), (y0 + 1.0, fy)):
        for xx, wx in ((x0, 1.0 - fx), (x0 + 1.0, fx)):
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            iy = np.clip(yy, 0, h - 1).astype(np.intp)
            ix = np.clip(xx, 0, w - 1).astype(np.intp)
            out += np.where(inside, wy * wx * plane[iy, ix], 0.0)
    return out


def deformable_conv_forward(x: np.ndarray, params: DeformableParams) -> np.ndarray:
    """Depthwise convolution with per-tap sampling offsets.

    Output value at p0 sums w(p_n) * x(p0 + p_n + offset_n(p0)) over the
    regular grid taps p_n, sampling bilinearly; zero offsets reduce this to
    conv2d_depthwise exactly.
    """
    x = _check_chw(x)
    c, h, w = x.shape
    k = params.kernel_size
    if params.weights.shape[0] != c:
        raise ValueError(f"weights carry {params.weights.shape[0]} channels, input {c}")
    if params.offsets.shape != (2 * k * k, h, w):
        raise ValueError(
            f"offset shape {params.offsets.shape}, expected {(2 * k * k, h, w)}"
        )
    if not np.isfinite(params.offsets).all():
        raise ValueError("offsets contain non-finite values")

    r = k // 2
    base_y, base_x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out = np.zeros_like(x)
    taps = itertools.product(range(-r, r + 1), range(-r, r + 1))
    for n, (py, px) in enumerate(taps):
        ys = base_y + py + params.offsets[2 * n]
        xs = base_x + px + params.offsets[2 * n + 1]
        for ch in range(c):
            weight = params.weights[ch, py + r, px + r]
            out[ch] += weight * _bilinear_sample(x[ch], ys, xs)
    return out


def grad_check(forward, inputs, vjp, epsilon: float = 1e-5, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    ``forward(*inputs)`` produces the output tensor; ``vjp(*inputs, g)``
    returns one gradient array per input for the scalar loss <g, forward>.
    Returns the maximum relative error, with the scale floored at 1 so that
    near-zero gradients are compared absolutely.
    """
    inputs = [np.array(arr, dtype=np.float64) for arr in inputs]
    rng = np.random.default_rng(seed)
    reference = forward(*inputs)
    cotangent = rng.standard_normal(reference.shape)
    analytic = vjp(*inputs, cotangent)
    if len(analytic) != len(inputs):
        raise ValueError("vjp must return one gradient per input")

    def loss():
        return float((forward(*inputs) * cotangent).sum())

    max_err = 0.0
    for arr, grad in zip(inputs, analytic):
        grad = np.asarray(grad, dtype=np.float64)
        if not np.isfinite(grad).all():
            raise ArithmeticError("analytic gradient contains non-finite values")
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + epsilon
            upper = loss()
            flat[idx] = saved - epsilon
            lower = loss()
            flat[idx] = saved
            numeric = (upper - lower) / (2.0 * epsilon)
            if not np.isfinite(numeric):
                raise ArithmeticError("numeric gradient is non-finite")
            scale = max(1.0, abs(numeric), abs(grad_flat[idx]))
            max_err = max(max_err, abs(numeric - grad_flat[idx]) / scale)
    return max_err
