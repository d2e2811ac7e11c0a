"""Smoothing kernels for the smoothed welfare objective.

A kernel here is a smooth CDF-like weight k with k(-inf) = 0 and
k(+inf) = 1, together with its first two derivatives and the two moment
constants that drive the smoothed estimator's asymptotics:

    alpha1 = integral of zeta^2 * k'(zeta)   (bias moment)
    alpha2 = integral of k'(zeta)^2          (roughness)

and ``k2_sup``, a bound on sup |k''| that lets the SWM optimizer screen its
coarse grid with a binned approximation of provable accuracy.  The two rate
formulas built on these constants live here too: the regret-optimal
lambda* = alpha2 K / (4 A^2) and the bandwidth (lambda / n)^(1/5).

Every kernel has order 2, as in the paper: its bias constant, plug-in
bandwidth and regret law are the order-2 formulas.  The shipped kernel is
the standard normal CDF.

The library computes phi and Phi itself, so they have one value on every
host: phi from an exp built of rint, ldexp and + - * / only (fdlibm's
method, within 1 ulp of libm's), Phi as cephes's ``ndtr`` does from
Cody's erfc fits, within a few ulp of ``scipy.special.ndtr``.  Both live
in ``_kernels.c`` and, operation for operation, in numpy here:
``norm_cdf``, ``norm_pdf`` and k'' run compiled in ``tr_normal`` once it
has loaded, and in the numpy transcription otherwise, with the same bits
either way.  A kernel's weighted sums over the rows (:meth:`Kernel.sums`,
which the smoothed objective and the nuisance estimates take) run in row
order; the shipped kernel's run compiled in ``tr_smoothed``, or in their
numpy transcription, again with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import NumericError, ValidationError

__all__ = ["Kernel", "gaussian_cdf_kernel", "norm_cdf", "norm_pdf"]

# own_exp of _kernels.c: fdlibm's split of ln 2, its Remez coefficients and its
# bounds, past which exp is inf or 0
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_EXP_P = tuple(map(float.fromhex, ("0x1.555555555553ep-3", "-0x1.6c16c16bebd93p-9", "0x1.1566aaf25de2cp-14",
                                   "-0x1.bbd41c5d26bf1p-20", "0x1.6376972bea4d0p-25")))
_EXP_MAX = float.fromhex("0x1.62e42fefa39efp+9")
_EXP_MIN = float.fromhex("-0x1.74910d52d3051p+9")
_LOG_SQRT_2PI = float.fromhex("0x1.d67f1c864beb5p-1")
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = _EXP_MAX
# Cody's erf and erfc fits as _kernels.c holds them (NDTR_P .. NDTR_U)
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_CHUNK = 1 << 20  # elements of u held at once by the numpy sums


# The numpy transcriptions of _kernels.c's own_exp, normal_pdf and
# normal_cdf, operation for operation: every branch is computed and the C
# code's is selected, so each element gets the compiled function's bits.
# They run where the library does not load, and test it.


def _exp(x):
    with np.errstate(all="ignore"):
        nan = x != x
        xc = np.where(nan, 0.0, np.clip(x, _EXP_MIN, _EXP_MAX))
        k = np.rint(xc * _INV_LN2)
        hi = xc - k * _LN2_HI
        lo = k * _LN2_LO
        r = hi - lo
        t = r * r
        p1, p2, p3, p4, p5 = _EXP_P
        c = r - t * (p1 + t * (p2 + t * (p3 + t * (p4 + t * p5))))
        y = np.ldexp(1.0 - ((lo - (r * c) / (2.0 - c)) - hi), k.astype(np.int32))
        return np.where(nan, x, np.where(x > _EXP_MAX, np.inf, np.where(x < _EXP_MIN, 0.0, y)))


def _pdf(u):
    with np.errstate(over="ignore"):
        return _exp(-0.5 * (u * u) - _LOG_SQRT_2PI)


def _poly(x, c, leading_one=False):
    a = x + c[0] if leading_one else c[0]
    for ci in c[1:]:
        a = a * x + ci
    return a


def _erf_small(x):
    z = x * x
    return x * _poly(z, _NDTR_T) / _poly(z, _NDTR_U, True)


def _cdf(a):
    with np.errstate(all="ignore"):
        x = a * _SQRT1_2
        z = np.abs(x)
        ex = _exp((-z) * z)
        e = np.where(z < 1.0, 1.0 - _erf_small(z),
            np.where((-z) * z < -_MAXLOG, 0.0,
            np.where(z < 8.0, ex * _poly(z, _NDTR_P) / _poly(z, _NDTR_Q, True),
                     ex * _poly(z, _NDTR_R) / _poly(z, _NDTR_S, True))))
        y = 0.5 * e
        return np.where(z < _SQRT1_2, 0.5 + 0.5 * _erf_small(x), np.where(x > 0.0, 1.0 - y, y))


def _k2(u):
    return (-np.clip(u, -40.0, 40.0)) * _pdf(u)


def _row_sums(x, g, sigma, t, funcs):
    """For each f in ``funcs``, sum_i g_i f((x_i - t_j) / sigma) at each t_j, in row order from the first term."""
    out = np.empty((len(funcs), len(t)))
    rows = max(1, _CHUNK // len(x))
    with np.errstate(all="ignore"):
        for lo in range(0, len(t), rows):
            u = (x[None, :] - t[lo : lo + rows, None]) / sigma
            for values, f in zip(out, funcs):
                values[lo : lo + rows] = np.cumsum(g * f(u), axis=1)[:, -1]
    return out


_native = None  # the loader, imported on the first call of a kernel


def _kernel(name):
    global _native
    if _native is None:
        from . import _native
    return _native.kernel(name)


def _law(normal, z):
    """``tr_normal``'s Phi(z), phi(z) and k''(z), rows of one array; z a float64 array.

    One buffer holds z and the three results, so the call takes one address.
    """
    buf = np.empty((4,) + z.shape)
    buf[0] = z
    at = buf.ctypes.data
    normal(at, z.size, at + 8 * z.size)
    return buf[1:]


def _normal_law(z):
    """Phi(z), phi(z) and k''(z) = -z phi(z) elementwise, by ``tr_normal`` once it
    has loaded and passed its check (see ``_native``), else by the numpy
    transcriptions, which give the same bits."""
    z = np.asarray(z, dtype=float)
    normal = _kernel("tr_normal")
    if normal is None:
        return _cdf(z), _pdf(z), _k2(z)
    return _law(normal, z)


def norm_cdf(z):
    """Standard normal CDF Phi, elementwise: cephes's ``ndtr`` (Cody's erfc fits) with the library's own exp."""
    return _normal_law(z)[0][()]


def norm_pdf(z):
    """Standard normal density phi(z) = exp(-z^2 / 2 - log sqrt(2 pi)), elementwise, with the library's own exp."""
    return _normal_law(z)[1][()]


def _gaussian_k2(z):
    """k''(z) = -z phi(z), z clipped to +-40, where phi is already 0, so +-inf gives 0."""
    return _normal_law(z)[2][()]


# phi(0), the density's peak
PHI0 = float(_pdf(np.float64(0.0)))


def _sum_args(x, g, t, order):
    """x, g and t as C-contiguous float64 arrays, once x and g are rows of one
    length, at least 1, t a vector and order 0 or 1 (the compiled sums read
    len(x) values of g and trust the shapes)."""
    x, g, t = (np.ascontiguousarray(a, dtype=float) for a in (x, g, t))
    if x.ndim != 1 or g.shape != x.shape or t.ndim != 1 or not len(x):
        raise ValidationError(f"sums need x and g of one nonzero length and a vector t, "
                              f"got shapes {x.shape}, {g.shape} and {t.shape}")
    if order not in (0, 1):
        raise ValidationError(f"order must be 0 or 1, got {order}")
    return x, g, t


def _sums(smoothed, x, g, sigma, t, order):
    """``tr_smoothed``'s sums, rows of one array; x, g and t C-contiguous float64.

    The thresholds and the sums share one buffer, so the call takes three
    addresses (each costs about as much as a 500-row sum).
    """
    m = len(t)
    buf = np.empty((order + 2) * m)
    buf[:m] = t
    at = buf.ctypes.data
    smoothed(x.ctypes.data, g.ctypes.data, len(x), sigma, at, m, order, at + 8 * m)
    return buf[m:].reshape(order + 1, m)


def normal_sums(x, g, sigma, t, order):
    """The normal CDF kernel's :meth:`Kernel.sums`: ``tr_smoothed`` once it has
    loaded and passed its check (see ``_native``), else its numpy transcription,
    which gives the same bits."""
    x, g, t = _sum_args(x, g, t, order)
    smoothed = _kernel("tr_smoothed")
    if smoothed is None:
        return _row_sums(x, g, sigma, t, (_cdf,) if order == 0 else (_pdf, _k2))
    return _sums(smoothed, x, g, sigma, t, order)


@dataclass(frozen=True)
class Kernel:
    """CDF-like smoothing weight with derivatives and moment constants.

    ``k2_sup`` bounds sup |k''|; with a finite value the kernel must also be
    non-decreasing (a CDF), which the grid screen in :func:`fit_swm` relies
    on for its tail bounds.  The default ``inf`` disables the screen, so
    every coarse-grid point is evaluated exactly.
    """

    k: Callable[[np.ndarray], np.ndarray]
    k1: Callable[[np.ndarray], np.ndarray]
    k2: Callable[[np.ndarray], np.ndarray]
    alpha1: float
    alpha2: float
    k2_sup: float = math.inf
    h: ClassVar[int] = 2

    def optimal_lambda(self, K: float, A: float) -> float:
        """Regret-optimal rate constant lambda* = alpha2 K / (4 A^2).

        Raises NumericError unless lambda* is finite (A = 0 in particular).
        """
        try:
            lam = self.alpha2 * K / (4.0 * A**2)
        except (OverflowError, ZeroDivisionError):
            lam = math.inf
        if not math.isfinite(lam):
            raise NumericError(f"lambda* = alpha2 K / (4 A^2) is not finite at K={K}, A={A}")
        return lam

    def rate_bandwidth(self, lam: float, n: int) -> float:
        """Bandwidth sigma_n = (lambda / n)^(1/5) of a lambda-rate sequence."""
        return (lam / n) ** 0.2

    def sums(self, x, g, sigma, t, order=0):
        """[sum_i g_i k(u_i)] (order 0) or [sum_i g_i k'(u_i), sum_i g_i k''(u_i)]
        (order 1), one value per threshold t_j, u_i = (x_i - t_j) / sigma.

        Each sum runs in row order from its first term, so it has one value on
        every host.  x and g must be rows of one length, at least 1, and t a
        vector; ValidationError otherwise.
        """
        x, g, t = _sum_args(x, g, t, order)
        return _row_sums(x, g, sigma, t, (self.k,) if order == 0 else (self.k1, self.k2))


class _NormalCdfKernel(Kernel):
    """The shipped kernel, whose sums are the normal law's own, compiled
    (:func:`normal_sums`), with the bits of :meth:`Kernel.sums` over its
    functions.  ``dataclasses.replace`` keeps the class, and so these sums,
    whatever functions it is given; a kernel of other functions is a
    :class:`Kernel`."""

    def sums(self, x, g, sigma, t, order=0):
        return normal_sums(x, g, sigma, t, order)


def gaussian_cdf_kernel() -> Kernel:
    """Standard normal CDF kernel.

    k' is the normal density phi and k''(z) = -z phi(z); alpha1 = 1 (the
    second moment of phi), alpha2 = 1 / (2 sqrt(pi)) = 0.28209479... and
    sup |k''| = phi(1) = 0.24197072..., attained at z = +-1.
    """
    return _NormalCdfKernel(
        k=norm_cdf,
        k1=norm_pdf,
        k2=_gaussian_k2,
        alpha1=1.0,
        alpha2=1.0 / (2.0 * math.sqrt(math.pi)),
        k2_sup=math.exp(-0.5) / math.sqrt(2.0 * math.pi),
    )
