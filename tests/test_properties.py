"""Property tests of the paper's structural claims over random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import (
    ImageGrid,
    TVConfig,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    dense_range_diagnostics,
    gradient_norm_sq,
    pd_resolvent,
)

fraction = st.floats(0.05, 0.95)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(3, 8),
    n2=st.integers(3, 8),
    tau=st.floats(0.05, 3.0),
    gamma1=fraction,
    gamma2=fraction,
    seed=st.integers(0, 2**32 - 1),
)
def test_resolvent_ignores_kernel_at_critical_steps(n1, n2, tau, gamma1,
                                                    gamma2, seed):
    # at critical step sizes V has a kernel, and the primal-dual
    # resolvent depends on z only through V z
    rng = np.random.default_rng(seed)
    sigmas = boundary_sigmas(tau, gamma1, gamma2, gradient_norm_sq(n1),
                             gradient_norm_sq(n2))
    cfg = TVConfig(tau, *sigmas, alpha=0.05)
    observed = ImageGrid(rng.uniform(0.0, 1.0, (n1, n2)), peak=1.0)
    problem = build_problem(cfg, observed, build_gaussian_blur(n1, n2, 3, 1.0))
    v_op = problem.saddle_operator()
    kernel = dense_range_diagnostics(v_op).kernel_basis
    assert kernel.shape[1] >= 1

    n = n1 * n2
    z = np.concatenate([rng.uniform(0.0, 1.0, n)]
                       + [rng.standard_normal(n) for _ in range(3)])
    want = pd_resolvent(problem, z)
    for k in kernel.T:
        got = pd_resolvent(problem, z + np.linalg.norm(z) * k)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
