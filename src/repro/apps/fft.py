"""Radix-2 Stockham FFT (the paper's *fft*).

Paper configuration: complex vector of 16M elements; constructs:
``parallel``, ``for`` with implicit barriers (Table I).

The Stockham autosort formulation ping-pongs between two buffer pairs,
so every stage reads one array set and writes the other — no aliasing,
no bit-reversal pass, and a butterfly loop that flattens into a single
parallel iteration space per stage.  Real and imaginary parts live in
separate float arrays (the representation typed Cython would use).
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from repro.apps.base import AppSpec
from repro.apps.draws import as_arrays, as_lists, uniform
from repro.api import omp


def draw_signal(n: int, seed: int = 2718):
    """Real parts, then imaginary parts (see :mod:`repro.apps.draws`)."""
    if n & (n - 1):
        raise ValueError("fft size must be a power of two")
    draw = random.Random(seed).random
    yield "re", (n,), uniform(draw, -1.0, 1.0, n)
    yield "im", (n,), uniform(draw, -1.0, 1.0, n)


def make_input(n: int, seed: int = 2718) -> dict:
    return {**as_lists(draw_signal(n, seed)), "n": n}


def make_input_dt(n: int, seed: int = 2718) -> dict:
    return {**as_arrays(draw_signal(n, seed)), "n": n}


def sequential(re, im, n):
    """Recursive Cooley-Tukey reference."""
    values = [complex(r, i) for r, i in zip(re, im)]

    def fft(xs):
        size = len(xs)
        if size == 1:
            return xs
        evens = fft(xs[0::2])
        odds = fft(xs[1::2])
        half = size // 2
        out = [0j] * size
        for k in range(half):
            twiddle = cmath.exp(-2j * cmath.pi * k / size) * odds[k]
            out[k] = evens[k] + twiddle
            out[k + half] = evens[k] - twiddle
        return out

    result = fft(values)
    return [z.real for z in result], [z.imag for z in result]


def kernel(re, im, n, threads):
    import math
    work_re = [0.0] * n
    work_im = [0.0] * n
    src_re, src_im = re, im
    dst_re, dst_im = work_re, work_im
    length = n
    stride = 1
    while length > 1:
        half = length // 2
        theta = -2.0 * math.pi / length
        total = half * stride
        with omp("parallel for num_threads(threads)"):
            for t in range(total):
                p = t // stride
                q = t - p * stride
                wr = math.cos(theta * p)
                wi = math.sin(theta * p)
                ar = src_re[q + stride * p]
                ai = src_im[q + stride * p]
                br = src_re[q + stride * (p + half)]
                bi = src_im[q + stride * (p + half)]
                dst_re[q + stride * 2 * p] = ar + br
                dst_im[q + stride * 2 * p] = ai + bi
                tr = ar - br
                ti = ai - bi
                dst_re[q + stride * (2 * p + 1)] = tr * wr - ti * wi
                dst_im[q + stride * (2 * p + 1)] = tr * wi + ti * wr
        src_re, dst_re = dst_re, src_re
        src_im, dst_im = dst_im, src_im
        length = half
        stride = stride * 2
    return src_re, src_im


def kernel_dt(re, im, n, threads):
    import math
    work_re = np.zeros(n)
    work_im = np.zeros(n)
    src_re, src_im = re, im
    dst_re, dst_im = work_re, work_im
    length: int = n
    stride: int = 1
    while length > 1:
        half: int = length // 2
        theta: float = -2.0 * math.pi / length
        total: int = half * stride
        with omp("parallel for num_threads(threads)"):
            for t in range(total):
                p = t // stride
                q = t - p * stride
                wr = math.cos(theta * p)
                wi = math.sin(theta * p)
                ar = src_re[q + stride * p]
                ai = src_im[q + stride * p]
                br = src_re[q + stride * (p + half)]
                bi = src_im[q + stride * (p + half)]
                dst_re[q + stride * 2 * p] = ar + br
                dst_im[q + stride * 2 * p] = ai + bi
                tr = ar - br
                ti = ai - bi
                dst_re[q + stride * (2 * p + 1)] = tr * wr - ti * wi
                dst_im[q + stride * (2 * p + 1)] = tr * wi + ti * wr
        src_re, dst_re = dst_re, src_re
        src_im, dst_im = dst_im, src_im
        length = half
        stride = stride * 2
    return src_re, src_im


def pyomp_kernel(re, im, n, threads):
    import math
    work_re = np.zeros(n)
    work_im = np.zeros(n)
    src_re, src_im = re, im
    dst_re, dst_im = work_re, work_im
    length: int = n
    stride: int = 1
    while length > 1:
        half: int = length // 2
        theta: float = -2.0 * math.pi / length
        total: int = half * stride
        with openmp("parallel for num_threads(threads)"):  # noqa: F821
            for t in range(total):
                p = t // stride
                q = t - p * stride
                wr = math.cos(theta * p)
                wi = math.sin(theta * p)
                ar = src_re[q + stride * p]
                ai = src_im[q + stride * p]
                br = src_re[q + stride * (p + half)]
                bi = src_im[q + stride * (p + half)]
                dst_re[q + stride * 2 * p] = ar + br
                dst_im[q + stride * 2 * p] = ai + bi
                tr = ar - br
                ti = ai - bi
                dst_re[q + stride * (2 * p + 1)] = tr * wr - ti * wi
                dst_im[q + stride * (2 * p + 1)] = tr * wi + ti * wr
        src_re, dst_re = dst_re, src_re
        src_im, dst_im = dst_im, src_im
        length = half
        stride = stride * 2
    return src_re, src_im


def verify(result, reference) -> bool:
    got = np.asarray(result[0]) + 1j * np.asarray(result[1])
    expected = np.asarray(reference[0]) + 1j * np.asarray(reference[1])
    return bool(np.allclose(got, expected, atol=1e-6))


SPEC = AppSpec(
    name="fft",
    title="Fast Fourier Transform",
    make_input=make_input,
    make_input_dt=make_input_dt,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=pyomp_kernel,
    verify=verify,
    sizes={
        "test": {"n": 256},
        "default": {"n": 1 << 14},
        "paper": {"n": 1 << 24},
    },
    table1=("parallel, for", "Implicit barriers"),
)
