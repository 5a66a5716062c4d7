import os
import select
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blocksc import tensor as T


def fd_grad(loss, x, step=1e-6):
    """Central finite differences of a scalar loss w.r.t. array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (loss(xp) - loss(xm)) / (2 * step)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() / denom


class TestConv2d:
    def test_zero_weight(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4))
        out = T.conv2d(x, np.zeros((3, 2, 3, 3)), np.zeros(3))
        assert np.array_equal(out, np.zeros((3, 4, 4)))

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        assert np.allclose(T.conv2d(x, w, np.zeros(1)), x)

    def test_non_3x3_kernel(self):
        with pytest.raises(T.UnsupportedKernelError):
            T.conv2d(np.ones((1, 4, 4)), np.ones((1, 1, 5, 5)), np.zeros(1))

    def test_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        cot = rng.normal(size=(3, 5, 5))
        cx, cw, cb = T.conv2d_vjp(x, w, cot)
        fx = fd_grad(lambda v: float((T.conv2d(v, w, b) * cot).sum()), x)
        fw = fd_grad(lambda v: float((T.conv2d(x, v, b) * cot).sum()), w)
        fb = fd_grad(lambda v: float((T.conv2d(x, w, v) * cot).sum()), b)
        assert rel_err(cx, fx) < 1e-6
        assert rel_err(cw, fw) < 1e-6
        assert rel_err(cb, fb) < 1e-6


class TestConv2dTranspose:
    def test_equals_input_cotangent_of_vjp(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        cot = rng.normal(size=(3, 5, 4))
        cx, _, _ = T.conv2d_vjp(x, w, cot)
        assert np.array_equal(T.conv2d_transpose(w, cot), cx)

    def test_adjoint_identity(self):
        # <conv(x), y> = <x, conv^T(y)> for the bias-free conv
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 6, 6))
        w = rng.normal(size=(5, 4, 3, 3))
        y = rng.normal(size=(5, 6, 6))
        lhs = float((T.conv2d(x, w, np.zeros(5)) * y).sum())
        rhs = float((x * T.conv2d_transpose(w, y)).sum())
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def loop_conv2d(x, w, bias):
    """Direct 3x3/pad-1 cross-correlation, one output pixel at a time."""
    c_out = w.shape[0]
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.empty((c_out, h, wd))
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                out[o, i, j] = bias[o] + (w[o] * xp[:, i:i + 3, j:j + 3]).sum()
    return out


def loop_conv2d_vjp(x, w, cot):
    """(input, weight, bias) cotangents by scattering each output pixel."""
    c_out = w.shape[0]
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cxp = np.zeros_like(xp)
    cw = np.zeros_like(w)
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                cxp[:, i:i + 3, j:j + 3] += w[o] * cot[o, i, j]
                cw[o] += xp[:, i:i + 3, j:j + 3] * cot[o, i, j]
    return cxp[:, 1:-1, 1:-1], cw, cot.sum(axis=(1, 2))


class TestLoopReference:
    """conv2d, conv2d_transpose and conv2d_vjp against the nested loops.

    The references run in float64 on the same (rounded) inputs, so each
    dtype is held to a tolerance set by its own precision.
    """

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (7, 3), (20, 20),
                                     (30, 40), (2, 600)])
    def test_all_three_ops(self, h, w, dtype, rtol):
        rng = np.random.default_rng(h * 100 + w)
        x = rng.normal(size=(2, h, w)).astype(dtype)
        wt = rng.normal(size=(3, 2, 3, 3)).astype(dtype)
        bias = rng.normal(size=3).astype(dtype)
        cot = rng.normal(size=(3, h, w)).astype(dtype)
        x64, w64, b64, cot64 = (a.astype(np.float64)
                                for a in (x, wt, bias, cot))
        ref_cx, ref_cw, ref_cb = loop_conv2d_vjp(x64, w64, cot64)
        got = {"conv2d": T.conv2d(x, wt, bias),
               "conv2d_transpose": T.conv2d_transpose(wt, cot)}
        got.update(zip(("cot_x", "cot_weight", "cot_bias"),
                       T.conv2d_vjp(x, wt, cot)))
        want = {"conv2d": loop_conv2d(x64, w64, b64),
                "conv2d_transpose": ref_cx, "cot_x": ref_cx,
                "cot_weight": ref_cw, "cot_bias": ref_cb}
        for name, ref in want.items():
            assert got[name].dtype == dtype, name
            assert got[name].shape == ref.shape, name
            assert rel_err(got[name], ref) < rtol, name


class SpyPool:
    """A real executor that keeps every task it is handed."""

    def __init__(self, threads):
        self.executor = ThreadPoolExecutor(threads)
        self.tasks = []

    def submit(self, fn, *args):
        self.tasks.append(self.executor.submit(fn, *args))
        return self.tasks[-1]


@pytest.fixture
def strip_pool(monkeypatch):
    """``strip_pool(workers)`` runs wide convs on a SpyPool of
    ``workers - 1`` threads beside the caller, whatever the CPU count."""
    spies = []

    def use(workers):
        spies.append(SpyPool(max(1, workers - 1)))
        monkeypatch.setattr(T, "_strip_pool", lambda: (workers, spies[-1]))
        return spies[-1]

    yield use
    for spy in spies:
        spy.executor.shutdown()


def serial_strips(wmat, x, rows):
    """``wmat @ _patches(x)`` one strip of ``rows`` grid rows at a time, on
    the calling thread."""
    c, h, w = x.shape
    view, step = T._windows(x), rows * (w + 2)
    out = np.empty((len(wmat), h * (w + 2)), np.result_type(wmat, x))
    for a in range(0, out.shape[1], step):
        np.matmul(wmat, view[..., a:a + step].reshape(9 * c, -1),
                  out=out[:, a:a + step])
    return out


def wide_conv(dtype=np.float32, c=64, h=60, w=60, seed=22):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(c, h, w)).astype(dtype),
            rng.normal(size=(64, c, 3, 3)).astype(dtype),
            rng.normal(size=64).astype(dtype))


class TestStrips:
    """Grids past STRIP_COLS columns and STRIP_BYTES of patches run by
    strips shared with the pool; smaller ones keep the single GEMM on the
    caller's thread, bit for bit."""

    def test_small_grid_is_the_single_gemm(self, strip_pool):
        spy = strip_pool(2)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(64, 20, 20))
        wt = rng.normal(size=(64, 64, 3, 3))
        bias = rng.normal(size=64)
        assert 20 * 22 <= T.STRIP_COLS
        one = wt.reshape(64, -1) @ T._patches(x) + bias[:, None]
        assert np.array_equal(T.conv2d(x, wt, bias),
                              one.reshape(64, 20, 22)[:, :, :20])
        T.conv2d_transpose(wt, x)
        assert spy.tasks == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("h,w", [(2, 600), (30, 40)])
    def test_few_channel_wide_grid_is_the_single_gemm(self, strip_pool, h,
                                                      w, dtype):
        spy = strip_pool(2)
        rng = np.random.default_rng(h + w)
        x = rng.normal(size=(2, h, w)).astype(dtype)
        wt = rng.normal(size=(3, 2, 3, 3)).astype(dtype)
        assert h * (w + 2) > T.STRIP_COLS
        one = wt.reshape(3, -1) @ T._patches(x)
        assert np.array_equal(T._conv_gemm(wt.reshape(3, -1), x), one)
        assert spy.tasks == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    def test_partial_last_strip(self, strip_pool, workers, dtype, rtol):
        """29 grid rows: strips of more than one row leave a partial last
        strip."""
        strip_pool(workers)
        x, wt, _ = wide_conv(dtype, h=29, w=40, seed=23)
        wmat = wt.reshape(64, -1)
        got, one = T._conv_gemm(wmat, x), wmat @ T._patches(x)
        assert rel_err(got, one) < rtol

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parallel_strips_equal_the_serial_loop(self, strip_pool,
                                                   workers, dtype):
        """More threads than cores and a short switch interval, so a strip
        lost or written twice would show in the (uninitialised) output."""
        spy = strip_pool(workers)
        x, wt, bias = wide_conv(dtype)
        rows = T.STRIP_BYTES // (workers * 9 * 64 * 62 * x.itemsize)
        flipped = wt[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(64, -1)
        want_conv = (serial_strips(wt.reshape(64, -1), x, rows)
                     + bias[:, None]).reshape(64, 60, 62)[:, :, :60]
        want_t = serial_strips(flipped, x, rows).reshape(64, 60, 62)[..., :60]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(T.conv2d(x, wt, bias), want_conv)
                assert np.array_equal(T.conv2d_transpose(wt, x), want_t)
        finally:
            sys.setswitchinterval(interval)
        assert len(spy.tasks) == 6 * (workers - 1)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failed_strip_raises_after_every_strip(self, strip_pool,
                                                     monkeypatch, failing):
        spy = strip_pool(2)
        matmul = np.matmul
        failed = []

        def flaky(*args, out):
            caller = threading.current_thread() is threading.main_thread()
            if caller == (failing == "caller") and not failed:
                failed.append(threading.current_thread())
                raise FloatingPointError("strip failed")
            if not caller:
                time.sleep(0.02)  # the worker's share outlasts the caller's
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", flaky)
        x, wt, bias = wide_conv()
        with pytest.raises(FloatingPointError, match="strip failed"):
            T.conv2d(x, wt, bias)
        assert failed and all(task.done() for task in spy.tasks)
        assert (failed[0] is threading.main_thread()) == (failing == "caller")

    def test_forked_child_makes_its_own_workers(self, monkeypatch):
        """The child inherits the parent's executor but not its threads; a
        child that handed them strips would hang until its alarm."""
        monkeypatch.setattr(T, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        x, wt, bias = wide_conv()
        want = T.conv2d(x, wt, bias)
        assert T._pool[1] == 2
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never return into pytest
            code = 1
            try:
                os.close(read)
                signal.alarm(10)
                with os.fdopen(write, "wb") as fh:
                    fh.write(T.conv2d(x, wt, bias).tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        data = b""
        with os.fdopen(read, "rb") as fh:
            while select.select([fh], [], [], 30)[0]:
                chunk = fh.read1(1 << 20)
                if not chunk:
                    break
                data += chunk
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        got = np.frombuffer(data, want.dtype).reshape(want.shape)
        assert np.array_equal(got, want)

    def test_wide_grid_peaks_below_one_patch_matrix(self):
        x, wt, bias = wide_conv()
        full = 576 * 3720 * 4  # the whole float32 patch matrix, bytes
        tracemalloc.start()
        try:
            T.conv2d(x, wt, bias)
            strip_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            wt.reshape(64, -1) @ T._patches(x)
            whole_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strip_peak < full <= whole_peak
        # the strips in flight together hold one serial 576 x 496 strip
        grid, out = 64 * 63 * 62 * 4, 64 * 3720 * 4
        assert strip_peak <= grid + out + 576 * 496 * 4 + 64 * 1024


class TestRelu:
    def test_basic(self):
        assert np.array_equal(T.relu(np.array([-1.0, 0.0, 2.0])),
                              np.array([0.0, 0.0, 2.0]))

    def test_all_negative(self):
        x = -np.abs(np.random.default_rng(4).normal(size=7)) - 0.1
        assert np.array_equal(T.relu(x), np.zeros(7))


class TestSoftThreshold:
    def test_definition(self):
        assert T.soft_threshold(np.array(2.0), 0.5) == pytest.approx(1.5)

    def test_dead_zone(self):
        assert T.soft_threshold(np.array(-0.3), 0.5) == 0.0

    def test_sign_symmetry(self):
        assert T.soft_threshold(np.array(-2.0), 0.5) == pytest.approx(-1.5)

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            T.soft_threshold(np.array(1.0), 0.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
           st.floats(1e-3, 10.0))
    def test_odd_and_lipschitz(self, vals, tau):
        x = np.array(vals)
        assert np.allclose(T.soft_threshold(-x, tau), -T.soft_threshold(x, tau))
        y = x + 0.25
        lhs = np.abs(T.soft_threshold(x, tau) - T.soft_threshold(y, tau))
        assert np.all(lhs <= np.abs(x - y) + 1e-12)

    def test_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3)) * 2.0
        tau = 0.7
        cot = rng.normal(size=(4, 3))
        cx, ctau = T.soft_threshold_vjp(x, tau, cot)
        fx = fd_grad(lambda v: float((T.soft_threshold(v, tau) * cot).sum()), x)
        ftau = fd_grad(lambda v: float((T.soft_threshold(x, float(v)) * cot).sum()),
                       np.array(tau))
        assert rel_err(cx, fx) < 1e-7
        assert abs(ctau - float(ftau)) < 1e-6 * max(1.0, abs(ctau))


class TestCholSolve:
    def test_non_spd_reports_pivot(self):
        a = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(T.FactorizationError) as exc:
            T.chol_factor(a)
        assert exc.value.pivot == 2


class TestRegistryInvariants:
    def test_forward_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        out1 = T.conv2d(x, w, b)
        out2 = T.conv2d(x, w, b)
        assert np.array_equal(out1, out2)

    def test_vjp_linearity_in_cotangent(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        cot = rng.normal(size=(3, 4, 5))
        once = T.conv2d_vjp(x, w, cot)
        twice = T.conv2d_vjp(x, w, 2.0 * cot)
        for c1, c2 in zip(once, twice):
            assert np.allclose(c2, 2.0 * c1, atol=1e-12)

    def test_randomized_vjp_fd_agreement(self):
        # module-wide invariant: every op's VJP matches central differences
        rng = np.random.default_rng(11)
        for trial in range(3):
            x = rng.normal(size=(2, 4, 4))
            w = rng.normal(size=(2, 2, 3, 3)) * 0.5
            bias = rng.normal(size=2)
            cot = rng.normal(size=(2, 4, 4))
            cx, cw, cb = T.conv2d_vjp(x, w, cot)
            fx = fd_grad(lambda v: float((T.conv2d(v, w, bias) * cot).sum()), x)
            assert rel_err(cx, fx) < 1e-5
