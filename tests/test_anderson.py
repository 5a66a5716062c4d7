import math
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

from blocksc.anderson import AndersonConfig, DivergenceError, \
    FixedPointReport, anderson_solve


def solve_scalar_affine(m, tol=1e-12, max_iters=100, beta=1.0):
    cfg = AndersonConfig(m=m, beta=beta, max_iters=max_iters, tol=tol)
    return anderson_solve(lambda g: 0.5 * g + 1.0, np.zeros(1), cfg)


class TestAffineScalar:
    def test_fixed_point_value(self):
        report = solve_scalar_affine(m=2)
        assert abs(report.solution[0] - 2.0) < 1e-12

    def test_acceleration_beats_plain(self):
        trail = []
        cfg = AndersonConfig(m=2, beta=1.0, max_iters=100, tol=1e-12,
                             ridge=1e-13)
        anderson_solve(lambda g: 0.5 * g + 1.0, np.zeros(1), cfg,
                       callback=lambda k, g: trail.append(abs(g[0] - 2.0)))
        assert min(trail[:3]) < 1e-12  # exact within 3 iterations
        plain = solve_scalar_affine(m=1)
        assert plain.iterations >= 35

    def test_identity_converges_immediately(self):
        cfg = AndersonConfig(m=3, max_iters=10, tol=1e-10)
        g0 = np.arange(4.0)
        report = anderson_solve(lambda g: g, g0, cfg)
        assert report.converged
        assert report.iterations == 1
        assert report.residuals == [0.0]
        assert np.array_equal(report.solution, g0)


def linear_contraction(dim, rho, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = rng.uniform(0.2, 1.0, size=dim)
    lam = lam / lam.max() * rho
    signs = rng.choice([-1.0, 1.0], size=dim)
    A = q @ np.diag(lam * signs) @ q.T
    c = rng.normal(size=dim)
    return A, c


class TestLinearContraction:
    def test_half_the_iterations_of_picard(self):
        A, c = linear_contraction(50, 0.9, seed=0)
        f = lambda g: A @ g + c
        tol = 1e-8
        plain = anderson_solve(f, np.zeros(50),
                               AndersonConfig(m=1, max_iters=1000, tol=tol))
        accel = anderson_solve(f, np.zeros(50),
                               AndersonConfig(m=5, beta=1.0, max_iters=1000,
                                              tol=tol))
        assert plain.converged and accel.converged
        assert accel.iterations <= plain.iterations / 2

    def test_full_memory_is_exact_on_affine_maps(self):
        dim = 12
        A, c = linear_contraction(dim, 0.95, seed=1)
        g_star = np.linalg.solve(np.eye(dim) - A, c)
        cfg = AndersonConfig(m=dim + 4, max_iters=dim + 1, tol=1e-13,
                             ridge=1e-13)
        report = anderson_solve(lambda g: A @ g + c, np.zeros(dim), cfg)
        assert report.iterations <= dim + 1
        err = np.linalg.norm(report.solution - g_star) / np.linalg.norm(g_star)
        assert err < 1e-6  # exact up to the ridge perturbation


class TestReportContract:
    def test_converged_iff_last_residual_below_tol(self):
        cfg = AndersonConfig(m=3, max_iters=5, tol=1e-15)
        report = anderson_solve(lambda g: 0.99 * g + 1.0, np.zeros(2), cfg)
        assert not report.converged
        assert report.residuals[-1] >= cfg.tol
        assert len(report.residuals) == report.iterations

    def test_divergence_error_carries_iteration(self):
        cfg = AndersonConfig(m=2, max_iters=10, tol=1e-10)
        with pytest.raises(DivergenceError) as exc:
            anderson_solve(lambda g: g * np.nan, np.ones(2), cfg)
        assert exc.value.iteration == 1

    def test_overflow_divergence(self):
        cfg = AndersonConfig(m=1, max_iters=50, tol=0.0)
        with pytest.raises(DivergenceError):
            anderson_solve(lambda g: g * 1e60, np.ones(3), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AndersonConfig(m=0)
        with pytest.raises(ValueError):
            AndersonConfig(beta=0.0)

    @pytest.mark.parametrize("name,value", [
        ("beta", math.nan), ("beta", math.inf), ("beta", -1.0),
        ("tol", math.nan), ("tol", -1e-6), ("tol", math.inf),
        ("ridge", math.nan), ("ridge", -1e-10), ("ridge", math.inf)])
    def test_rejects_bad_float_settings(self, name, value):
        with pytest.raises(ValueError, match=name):
            AndersonConfig(**{name: value})

    def test_zero_tol_and_ridge_accepted(self):
        cfg = AndersonConfig(tol=0.0, ridge=0.0)
        assert (cfg.tol, cfg.ridge) == (0.0, 0.0)

    def test_callback_sees_every_iterate(self):
        seen = []
        cfg = AndersonConfig(m=2, max_iters=6, tol=1e-14)
        # the callback gets the iterate in g0's shape, (1,): read its element
        report = anderson_solve(
            lambda g: 0.5 * g + 1.0, np.zeros(1), cfg,
            callback=lambda k, g: seen.append((k, float(g[0]))))
        assert [k for k, _ in seen] == list(range(1, len(seen) + 1))
        assert len(seen) >= 2
        assert seen[-1][1] == report.solution[0]


def rel_residual(prev, cur):
    """||cur - prev|| / max(||prev||, ||cur||, 1e-30), as the solver forms it."""
    num = np.linalg.norm(cur - prev)
    denom = max(np.linalg.norm(prev), np.linalg.norm(cur), 1e-30)
    return float(num / denom)


def deque_anderson(f, g0, cfg, callback=None):
    """The deque/np.stack solver the ring buffers replaced, as the oracle:
    it rebuilds U^T U from scratch and mixes (1-beta) X alpha + beta F alpha.
    """
    g = np.asarray(g0, dtype=np.float64)
    shape = g.shape
    iterates = deque(maxlen=cfg.m)
    values = deque(maxlen=cfg.m)
    residuals = []
    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        fg = np.asarray(f(g), dtype=np.float64)
        if not np.all(np.isfinite(fg)):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k)
        iterates.append(g.ravel().copy())
        values.append(fg.ravel())
        if len(iterates) == 1:
            g_next = fg
        else:
            X = np.stack(iterates, axis=1)
            F = np.stack(values, axis=1)
            U = F - X
            utu = U.T @ U
            scale = max(float(np.trace(utu)) / utu.shape[0], 1e-300)
            h = utu + cfg.ridge * scale * np.eye(U.shape[1])
            try:
                w = np.linalg.solve(h, np.ones(U.shape[1]))
            except np.linalg.LinAlgError:
                w = None
            if w is None or abs(w.sum()) < 1e-300:
                g_next = fg
            else:
                alpha = w / w.sum()
                mix = (1.0 - cfg.beta) * (X @ alpha) + cfg.beta * (F @ alpha)
                g_next = mix.reshape(shape)
        res = rel_residual(g, g_next)
        residuals.append(res)
        g = g_next
        if callback is not None:
            callback(k, g)
        if res < cfg.tol:
            converged = True
            break
    return FixedPointReport(g, k, residuals, converged)


def smooth_contraction(dim, seed):
    """A nonlinear contraction on (dim, 3) arrays: tanh of a linear map."""
    A, c = linear_contraction(dim, 0.9, seed)
    C = np.outer(c, [1.0, -0.5, 2.0])
    return lambda g: np.tanh(A @ g) + C


class TestRingBuffers:
    """The ring-buffer solver against the deque/np.stack oracle."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("tol,max_iters", [(1e-10, 200), (0.0, 25)])
    def test_matches_the_deque_oracle(self, m, beta, tol, max_iters):
        f = smooth_contraction(20, seed=m)
        cfg = AndersonConfig(m=m, beta=beta, max_iters=max_iters, tol=tol)
        g0 = np.zeros((20, 3))
        got = anderson_solve(f, g0, cfg)
        want = deque_anderson(f, g0, cfg)
        assert got.iterations > m  # the buffers wrapped around
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.solution.shape == g0.shape
        err = np.abs(got.solution - want.solution).max()
        assert err <= 1e-12 * np.abs(want.solution).max()

    def test_iterates_do_not_alias_the_buffers(self):
        f = smooth_contraction(6, seed=7)
        seen, copies = [], []

        def keep(k, g):
            seen.append(g)
            copies.append(g.copy())

        args = []

        def traced(g):
            args.append((g, g.copy()))
            return f(g)

        cfg = AndersonConfig(m=2, max_iters=12, tol=0.0)
        report = anderson_solve(traced, np.zeros((6, 3)), cfg, callback=keep)
        assert report.iterations == 12
        for g, snapshot in zip(seen, copies):
            assert np.array_equal(g, snapshot)
        for g, snapshot in args:
            assert np.array_equal(g, snapshot)
        assert report.solution is seen[-1]
        assert np.array_equal(report.solution, copies[-1])

    @pytest.mark.parametrize("m", [2, 5])
    def test_previous_map_value_is_dead_at_the_next_call(self, m):
        """From the third call on, f's previous output (a mixed step never
        takes it as the iterate) is released before f runs again."""
        f = smooth_contraction(6, seed=3)
        outputs, alive = [], []

        def traced(g):
            alive.append([ref() is not None for ref in outputs])
            out = f(g)
            outputs.append(weakref.ref(out))
            return out

        cfg = AndersonConfig(m=m, max_iters=10, tol=0.0)
        assert anderson_solve(traced, np.zeros((6, 3)), cfg).iterations == 10
        for k in range(3, 11):  # call k sees the outputs of calls 1..k-1
            assert not alive[k - 1][k - 2], k


class TestDivergenceContract:
    """Finiteness is read from the Gram diagonal u.u, and only a non-finite
    u.u scans f(g): the error names the iteration whose f(g) is non-finite,
    and nothing else raises."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [1, 2, 4])
    def test_non_finite_map_value_raises_at_its_iteration(self, bad, at):
        A, c = linear_contraction(5, 0.5, seed=1)
        calls = []

        def f(g):
            calls.append(g)
            out = A @ g + c
            if len(calls) == at:
                out[3] = bad  # one element of f(g) at call ``at``
            return out

        cfg = AndersonConfig(m=3, max_iters=10, tol=0.0)
        with pytest.raises(DivergenceError) as exc:
            anderson_solve(f, np.zeros(5), cfg)
        assert exc.value.iteration == at == len(calls)

    def test_overflowing_residual_square_is_not_divergence(self):
        """|u| ~ 1e200: u.u overflows to inf, but f(g) is finite (m = 1:
        no mix reads the overflowed Gram matrix)."""
        cfg = AndersonConfig(m=1, max_iters=5, tol=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            report = anderson_solve(lambda g: np.full_like(g, 1e200),
                                    np.zeros(4), cfg)
        assert report.converged
        assert np.array_equal(report.solution, np.full(4, 1e200))

    def test_non_finite_start_with_finite_map_value(self):
        g0 = np.array([math.inf, -math.inf, math.nan, 1.0])
        cfg = AndersonConfig(m=1, max_iters=5, tol=1e-12)
        with np.errstate(invalid="ignore"):
            report = anderson_solve(lambda g: np.ones_like(g), g0, cfg)
        assert report.converged and report.iterations == 2
        assert np.array_equal(report.solution, np.ones(4))


class TestMemoryContract:
    """What ``anderson_solve`` allocates beyond the caller's arrays (g0, f0
    and f's outputs), read by ``tracemalloc`` inside f."""

    def test_one_iterate_during_f_and_two_codes_between_calls(self):
        rng = np.random.default_rng(4)
        A = 0.05 * rng.normal(size=(64, 64))
        c = rng.normal(size=(64, 400))

        def f(g):  # allocates its output and nothing else
            out = A @ g
            out += c
            return out

        g0 = np.broadcast_to(0.0, c.shape)  # a zero start: one float
        f0 = f(g0)
        cfg = AndersonConfig(m=5, max_iters=12, tol=0.0)
        code = f0.nbytes
        own = 2 * cfg.m * code + cfg.m * cfg.m * 8  # the rings and the Gram
        seen = []

        def traced(g):
            seen.append(tracemalloc.get_traced_memory())
            out = f(g)
            tracemalloc.reset_peak()  # from here: the solver's own step
            return out

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert anderson_solve(traced, g0, cfg, f0=f0).iterations == 12
        finally:
            tracemalloc.stop()
        assert len(seen) == 11
        slack = code // 4  # the report's residuals, alpha, the Gram solve
        for current, peak in seen:
            # during f: the rings, the Gram matrix and the iterate f reads
            assert current - base <= own + code + slack
        for current, peak in seen[1:]:
            # between calls: f(g) beside the iterate, or the next iterate
            # beside its step; never more than two codes at once
            assert peak - base <= own + 2 * code + slack
