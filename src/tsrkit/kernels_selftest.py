"""Runnable invariant suite for the numerical kernels.

Each check pairs a kernel against an independent computation (shifted
inputs, rank-1 expansion, finite differences) and reports the measured
discrepancy against the pinned tolerance. The CLI front-end prints one
line per check and fails on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    DeformableParams,
    SeparableParams,
    SpatialAttentionParams,
    conv2d_depthwise,
    deformable_conv_forward,
    grad_check,
    pointwise_projection,
    pointwise_projection_vjp,
    separable_pair,
    spatial_attention_forward,
    spatial_attention_vjp,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.tolerance

    def format_line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.measured:.3e} <= {self.tolerance:.0e}"


def check_deformable_zero_offsets() -> CheckResult:
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 9, 11))
    weights = rng.standard_normal((3, 3, 3))
    offsets = np.zeros((18, 9, 11))
    plain = conv2d_depthwise(x, weights)
    deformed = deformable_conv_forward(x, DeformableParams(weights, offsets))
    return CheckResult(
        "deformable conv with zero offsets equals depthwise conv",
        float(np.abs(plain - deformed).max()),
        1e-12,
    )


def check_deformable_column_shift() -> CheckResult:
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 8, 10))
    weights = rng.standard_normal((2, 3, 3))
    offsets = np.zeros((18, 8, 10))
    offsets[1::2] = 1.0  # every tap reads one column to the right
    # shifting the sampling grid equals evaluating the convolution one column
    # later; widen the canvas so the seam sees the true zero extension
    widened = np.concatenate([x, np.zeros((2, 8, 1))], axis=2)
    expected = conv2d_depthwise(widened, weights)[:, :, 1:]
    deformed = deformable_conv_forward(x, DeformableParams(weights, offsets))
    return CheckResult(
        "deformable conv with unit column offsets equals shifted conv",
        float(np.abs(expected - deformed).max()),
        1e-12,
    )


def check_separable_rank1() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in (7, 11, 21):
        x = rng.standard_normal((2, 16, 16))
        params = SeparableParams(
            rng.standard_normal((2, k)), rng.standard_normal((2, k))
        )
        full = np.einsum("ci,cj->cij", params.vertical, params.horizontal)
        expected = conv2d_depthwise(x, full)
        got = separable_pair(x, params)
        worst = max(worst, float(np.abs(expected - got).max()))
    return CheckResult(
        "separable pair equals rank-1 full-kernel conv (k in 7/11/21)", worst, 1e-9
    )


def check_conv_linearity() -> CheckResult:
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 10, 10))
    y = rng.standard_normal((3, 10, 10))
    kernels = rng.standard_normal((3, 5, 5))
    a, b = 1.7, -0.4
    combined = conv2d_depthwise(a * x + b * y, kernels)
    separate = a * conv2d_depthwise(x, kernels) + b * conv2d_depthwise(y, kernels)
    return CheckResult(
        "depthwise conv is linear in its input", float(np.abs(combined - separate).max()), 1e-9
    )


def check_attention_shape_and_zero() -> CheckResult:
    rng = np.random.default_rng(15)
    worst = 0.0
    for channels, height, width in ((1, 8, 8), (2, 12, 7), (4, 5, 16)):
        params = SpatialAttentionParams.random(channels, seed=15 + channels)
        x = rng.standard_normal((channels, height, width))
        out = spatial_attention_forward(x, params)
        if out.shape != x.shape:
            return CheckResult("spatial attention preserves (C, H, W)", float("inf"), 0.0)
        zero_out = spatial_attention_forward(np.zeros_like(x), params)
        worst = max(worst, float(np.abs(zero_out).max()))
    return CheckResult(
        "spatial attention preserves shape and annihilates zero input", worst, 0.0
    )


def check_grad_pointwise() -> CheckResult:
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 5, 5))
    weights = rng.standard_normal((2, 6))
    err = grad_check(
        pointwise_projection,
        [x, weights],
        lambda x_, w_, g: pointwise_projection_vjp(x_, w_, g),
        epsilon=1e-5,
        seed=16,
    )
    return CheckResult("pointwise projection gradient (finite differences)", err, 1e-7)


def composite_attention_arrays(params: SpatialAttentionParams) -> list[np.ndarray]:
    arrays = []
    for branch in params.branches:
        arrays.extend([branch.vertical, branch.horizontal])
    arrays.append(params.projection)
    return arrays


def _attention_params(arrays) -> SpatialAttentionParams:
    """Undo ``composite_attention_arrays``."""
    return SpatialAttentionParams(
        branch7=SeparableParams(arrays[0], arrays[1]),
        branch11=SeparableParams(arrays[2], arrays[3]),
        branch21=SeparableParams(arrays[4], arrays[5]),
        projection=arrays[6],
    )


def composite_attention_forward(x, *arrays):
    return spatial_attention_forward(x, _attention_params(arrays))


def composite_attention_vjp(x, *arrays_and_grad):
    *arrays, grad = arrays_and_grad
    d_x, branch_grads, d_projection = spatial_attention_vjp(x, _attention_params(arrays), grad)
    flat = [d_x]
    for d_vertical, d_horizontal in branch_grads:
        flat.extend([d_vertical, d_horizontal])
    flat.append(d_projection)
    return flat


def check_grad_attention_composite() -> CheckResult:
    rng = np.random.default_rng(17)
    channels = 2
    x = rng.standard_normal((channels, 6, 6))
    params = SpatialAttentionParams.random(channels, seed=17)
    err = grad_check(
        composite_attention_forward,
        [x, *composite_attention_arrays(params)],
        composite_attention_vjp,
        epsilon=1e-5,
        seed=17,
    )
    return CheckResult("spatial attention composite gradient", err, 1e-4)


ALL_CHECKS = (
    check_deformable_zero_offsets,
    check_deformable_column_shift,
    check_separable_rank1,
    check_conv_linearity,
    check_attention_shape_and_zero,
    check_grad_pointwise,
    check_grad_attention_composite,
)


def run_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
