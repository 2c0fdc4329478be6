"""The array iteration core against a plain out-of-place reference.

The reference takes one relaxed primal-dual step the long way: it forms
x - Y sum_i L_i^* u_i, applies the primal resolvent (the data-fit solve
with the full complex FFT), reflects to 2p - x, applies each dual
resolvent through the Moreau decomposition and returns
(1 - lambda) z + lambda S z as a new array.  The core (``pd_resolvent``
inside ``km_iterate``) relaxes in a reused buffer and solves with the
real FFT, so the two agree to rounding: the tolerance is fixed from
float64 at 1e-12 * (1 + ||z||_inf) over 50 steps.
"""

import numpy as np

from pdsplit import (
    ImageGrid,
    Monitor,
    PDProblem,
    RelaxationSchedule,
    TVConfig,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    gradient_norm_sq,
    km_iterate,
    matrix_op,
    matrix_precond,
    monotone_linear,
    pd_resolvent,
)
from pdsplit.tv import gaussian_kernel

STEPS = 50
TOL = 1e-12


class _Iterates(Monitor):
    def __init__(self):
        self.values = []

    def observe(self, n, z, sz, z_next):
        self.values.append(z_next.copy())


def _core_iterates(problem, z0, lams):
    mon = _Iterates()
    km_iterate(lambda z: pd_resolvent(problem, z), z0,
               RelaxationSchedule.from_sequence(lams), None, STEPS,
               monitors=(mon,))
    return mon.values


def _assert_matches(core, z0, lams, ref_map):
    z = z0
    for n, got in enumerate(core):
        sz = ref_map(z)
        z = (1.0 - lams[n]) * z + lams[n] * sz
        gap = float(np.max(np.abs(got - z)))
        assert gap <= TOL * (1.0 + float(np.max(np.abs(z)))), (n, gap)
    assert len(core) == STEPS


# -- TV deblurring instances ------------------------------------------------

def _d1(x):
    g = np.zeros_like(x)
    g[:-1] = x[1:] - x[:-1]
    return g


def _d1_adj(y):
    d = np.zeros_like(y)
    d[:-1] -= y[:-1]
    d[1:] += y[:-1]
    return d


def _d2(x):
    return _d1(x.T).T


def _d2_adj(y):
    return _d1_adj(y.T).T


def _tv_reference_map(n1, n2, cfg, b, peak, size, std):
    pad = np.zeros((n1, n2))
    pad[:size, :size] = gaussian_kernel(size, std)
    pad = np.roll(pad, (-(size // 2), -(size // 2)), axis=(0, 1))
    symbol = np.fft.fft2(pad)
    rtb = np.fft.ifft2(np.conj(symbol) * np.fft.fft2(b)).real
    n = n1 * n2
    tau, alpha = cfg.tau, cfg.alpha
    sigmas = (cfg.sigma1, cfg.sigma2, cfg.sigma3)

    def dual_l1(w, sigma):
        v = w / sigma
        k = alpha / sigma
        return w - sigma * (np.sign(v) * np.maximum(np.abs(v) - k, 0.0))

    def dual_box(w, sigma):
        return w - sigma * np.clip(w / sigma, 0.0, peak)

    def step(z):
        x = z[:n].reshape(n1, n2)
        u1, u2, u3 = (z[n * (i + 1):n * (i + 2)].reshape(n1, n2)
                      for i in range(3))
        s = x - tau * (_d1_adj(u1) + _d2_adj(u2) + u3)
        rhs = s + tau * rtb
        p = np.fft.ifft2(np.fft.fft2(rhs)
                         / (1.0 + tau * np.abs(symbol) ** 2)).real
        t = 2.0 * p - x
        q1 = dual_l1(u1 + sigmas[0] * _d1(t), sigmas[0])
        q2 = dual_l1(u2 + sigmas[1] * _d2(t), sigmas[1])
        q3 = dual_box(u3 + sigmas[2] * t, sigmas[2])
        return np.concatenate([a.ravel() for a in (p, q1, q2, q3)])

    return step


def test_tv_core_matches_reference():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n1, n2 = (int(v) for v in rng.choice(np.arange(3, 10), 2,
                                             replace=False))
        size = 3
        std = float(rng.uniform(0.5, 2.0))
        peak = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(0.05, 2.0))
        sigmas = boundary_sigmas(tau, *rng.uniform(0.05, 0.95, 2),
                                 gradient_norm_sq(n1), gradient_norm_sq(n2))
        cfg = TVConfig(tau, *sigmas, alpha=float(rng.uniform(0.0, 0.2)))
        observed = ImageGrid(rng.uniform(0.0, peak, (n1, n2)), peak)
        problem = build_problem(cfg, observed,
                                build_gaussian_blur(n1, n2, size, std))
        n = n1 * n2
        z0 = np.concatenate([rng.uniform(0.0, peak, n),
                             rng.standard_normal(3 * n)])
        lams = rng.uniform(0.05, 1.95, STEPS)
        ref = _tv_reference_map(n1, n2, cfg, observed.pixels, peak, size,
                                std)
        _assert_matches(_core_iterates(problem, z0, lams), z0, lams, ref)


# -- dense monotone_linear instances ----------------------------------------

def _spd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T / d + 0.5 * np.eye(d)


def _psd_plus(rng, d):
    q = rng.standard_normal((d, d))
    return q @ q.T / d + 0.3 * np.eye(d) + 0.2 * (q - q.T)


def test_dense_core_matches_reference():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        n_blocks = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 6)) for _ in range(n_blocks)]
        ups = _spd(rng, n)
        sigs = [_spd(rng, m) for m in dims]
        ls = [rng.standard_normal((m, n)) for m in dims]
        scale = sum(np.linalg.norm(s, 2) * np.linalg.norm(l, 2) ** 2
                    for s, l in zip(sigs, ls)) * np.linalg.norm(ups, 2)
        ls = [l * np.sqrt(0.9 / scale) for l in ls]
        ma, ca = _psd_plus(rng, n), rng.standard_normal(n)
        mbs = [_psd_plus(rng, m) for m in dims]
        cbs = [rng.standard_normal(m) for m in dims]
        problem = PDProblem(
            A=monotone_linear(ma, offset=ca),
            blocks=tuple((monotone_linear(mb, offset=cb), matrix_op(l))
                         for mb, cb, l in zip(mbs, cbs, ls)),
            upsilon=matrix_precond(ups),
            sigmas=tuple(matrix_precond(s) for s in sigs),
        )
        sig_invs = [np.linalg.inv(s) for s in sigs]
        offs = np.cumsum([n] + dims)

        def ref(z):
            x = z[:n]
            us = [z[offs[i]:offs[i + 1]] for i in range(n_blocks)]
            s = x - ups @ sum(l.T @ u for l, u in zip(ls, us))
            p = np.linalg.solve(np.eye(n) + ups @ ma, s - ups @ ca)
            t = 2.0 * p - x
            qs = []
            for u, l, sg, si, mb, cb in zip(us, ls, sigs, sig_invs, mbs, cbs):
                w = u + sg @ (l @ t)
                j = np.linalg.solve(np.eye(len(u)) + si @ mb,
                                    si @ w - si @ cb)
                qs.append(w - sg @ j)
            return np.concatenate([p] + qs)

        z0 = rng.standard_normal(offs[-1])
        lams = rng.uniform(0.05, 1.95, STEPS)
        _assert_matches(_core_iterates(problem, z0, lams), z0, lams, ref)
