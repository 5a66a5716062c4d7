import sys
import threading
import tracemalloc

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
        cx = T.conv2d_transpose(w, cot)
        cw, cb = T.conv2d_vjp(x, cot)
        fx = fd_grad(lambda v: float((T.conv2d(v, w, b) * cot).sum()), x)
        fw = fd_grad(lambda v: float((T.conv2d(x, v, b) * cot).sum()), w)
        fb = fd_grad(lambda v: float((T.conv2d(x, w, v) * cot).sum()), b)
        assert rel_err(cx, fx) < 1e-6
        assert rel_err(cw, fw) < 1e-6
        assert rel_err(cb, fb) < 1e-6


class TestConv2dTranspose:
    def test_adjoint_identity(self):
        # <conv(x), y> = <x, conv^T(y)> for the bias-free conv
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 6, 6))
        w = rng.normal(size=(5, 4, 3, 3))
        y = rng.normal(size=(5, 6, 6))
        lhs = float((T.conv2d(x, w, np.zeros(5)) * y).sum())
        rhs = float((x * T.conv2d_transpose(w, y)).sum())
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_checks_operands_as_conv2d_does(self):
        # a 5x5 kernel whose flattened (4, 9 * 25) transpose matches the 9 * 25
        # patch rows of a 25-channel cotangent
        with pytest.raises(T.UnsupportedKernelError):
            T.conv2d_transpose(np.ones((9, 4, 5, 5)), np.ones((25, 6, 6)))
        with pytest.raises(T.DimensionError):  # 2 channels, not c_out = 3
            T.conv2d_transpose(np.ones((3, 2, 3, 3)), np.ones((2, 6, 6)))
        with pytest.raises(T.DimensionError):
            T.conv2d_transpose(np.ones((3, 2, 3, 3)), np.ones((3, 6)))


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
        got.update(zip(("cot_weight", "cot_bias"), T.conv2d_vjp(x, cot)))
        want = {"conv2d": loop_conv2d(x64, w64, b64),
                "conv2d_transpose": ref_cx,
                "cot_weight": ref_cw, "cot_bias": ref_cb}
        for name, ref in want.items():
            assert got[name].dtype == dtype, name
            assert got[name].shape == ref.shape, name
            assert rel_err(got[name], ref) < rtol, name


@pytest.fixture
def strip_gemms(monkeypatch):
    """(thread id, patch bytes) of every ``np.matmul`` call from here on,
    which only the strips of a wide grid make."""
    calls = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        calls.append((threading.get_ident(), args[1].nbytes))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


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


def strip_rows(dtype, w=60):
    """Grid rows per strip of a wide (64, h, w) grid."""
    row = 9 * 64 * (w + 2) * np.dtype(dtype).itemsize  # patch bytes
    return max(1, T.STRIP_BYTES // row)


class TestStrips:
    """Grids past STRIP_COLS columns and STRIP_BYTES of patches run by
    strips in turn on the caller's thread; smaller ones keep the single
    GEMM, bit for bit."""

    def test_small_grid_is_the_single_gemm(self, strip_gemms):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(64, 20, 20))
        wt = rng.normal(size=(64, 64, 3, 3))
        bias = rng.normal(size=64)
        assert 20 * 22 <= T.STRIP_COLS
        one = wt.reshape(64, -1) @ T._patches(x) + bias[:, None]
        assert np.array_equal(T.conv2d(x, wt, bias),
                              one.reshape(64, 20, 22)[:, :, :20])
        T.conv2d_transpose(wt, x)
        assert strip_gemms == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("h,w", [(2, 600), (30, 40)])
    def test_few_channel_wide_grid_is_the_single_gemm(self, strip_gemms, h,
                                                      w, dtype):
        rng = np.random.default_rng(h + w)
        x = rng.normal(size=(2, h, w)).astype(dtype)
        wt = rng.normal(size=(3, 2, 3, 3)).astype(dtype)
        assert h * (w + 2) > T.STRIP_COLS
        one = wt.reshape(3, -1) @ T._patches(x)
        assert np.array_equal(T._conv_gemm(wt.reshape(3, -1), x), one)
        assert strip_gemms == []

    @pytest.mark.parametrize("last", [1, 2, 3])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    def test_partial_last_strip(self, dtype, rtol, last):
        """Two whole strips of several rows and a last one of ``last``."""
        rows = strip_rows(dtype, w=40)
        assert rows > last
        x, wt, _ = wide_conv(dtype, h=2 * rows + last, w=40, seed=23)
        wmat = wt.reshape(64, -1)
        got, one = T._conv_gemm(wmat, x), wmat @ T._patches(x)
        assert rel_err(got, one) < rtol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strips_equal_the_serial_loop(self, monkeypatch, dtype):
        """Cold and warm: the first call makes the workspace, the second
        reuses it."""
        monkeypatch.setattr(T, "_workspace", threading.local())
        x, wt, bias = wide_conv(dtype)
        rows = strip_rows(dtype)
        flipped = wt[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(64, -1)
        want_conv = (serial_strips(wt.reshape(64, -1), x, rows)
                     + bias[:, None]).reshape(64, 60, 62)[:, :, :60]
        want_t = serial_strips(flipped, x, rows).reshape(64, 60, 62)[..., :60]
        for _ in range(2):
            assert np.array_equal(T.conv2d(x, wt, bias), want_conv)
            assert np.array_equal(T.conv2d_transpose(wt, x), want_t)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parallel_strips_equal_the_serial_loop(self, monkeypatch,
                                                   workers, dtype):
        """``workers`` threads run wide convs at once with a short switch
        interval, so a workspace shared between callers would show in
        their outputs; each thread keeps a buffer of its own."""
        monkeypatch.setattr(T, "_workspace", threading.local())
        x, wt, bias = wide_conv(dtype)
        rows = strip_rows(dtype)
        flipped = wt[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(64, -1)
        want_conv = (serial_strips(wt.reshape(64, -1), x, rows)
                     + bias[:, None]).reshape(64, 60, 62)[:, :, :60]
        want_t = serial_strips(flipped, x, rows).reshape(64, 60, 62)[..., :60]
        start = threading.Barrier(workers)
        bufs, outs, errors = [], [], []

        def run():
            try:
                start.wait()
                for _ in range(3):
                    outs.append((T.conv2d(x, wt, bias),
                                 T.conv2d_transpose(wt, x)))
                bufs.append(T._workspace.buf)
            except BaseException as e:  # re-raised on the test's thread
                errors.append(e)

        threads = [threading.Thread(target=run) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert len(outs) == 3 * workers
        for conv, tconv in outs:
            assert np.array_equal(conv, want_conv)
            assert np.array_equal(tconv, want_t)
        assert len({id(b) for b in bufs}) == workers

    def test_strips_never_leave_the_callers_thread(self, strip_gemms):
        x, wt, bias = wide_conv()
        before = threading.enumerate()
        T.conv2d(x, wt, bias)
        T.conv2d_transpose(wt, x)
        assert threading.enumerate() == before
        assert len(strip_gemms) == 2 * -(-60 // strip_rows(np.float32))
        assert {ident for ident, _ in strip_gemms} == {threading.get_ident()}

    def test_wide_grid_peaks_below_one_patch_matrix(self, monkeypatch):
        """Every thread starts with no workspace, so the traced peak counts
        the workspaces whatever conv ran first in this process."""
        monkeypatch.setattr(T, "_workspace", threading.local())
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
        assert strip_peak >= grid + out + T._workspace.buf.nbytes
        assert strip_peak <= grid + out + 576 * 496 * 4 + 64 * 1024


def workspace_bytes():
    """Bytes of the calling thread's strip workspace."""
    buf = getattr(T._workspace, "buf", None)
    return 0 if buf is None else buf.nbytes


def in_fresh_thread(fn):
    """fn()'s result, run on a new thread, so on a new strip workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and result
    return result[0]


class TestStripWorkspace:
    """Each calling thread copies its patches into one buffer of its own,
    kept from call to call, bit for bit the strips of a fresh copy."""

    def test_warm_wide_conv_allocates_no_strip(self):
        x, wt, bias = wide_conv()
        want = T.conv2d(x, wt, bias)  # warm: the caller has a workspace
        tracemalloc.start()
        try:
            got = T.conv2d(x, wt, bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        grid, out = 64 * 63 * 62 * 4, 64 * 3720 * 4
        assert peak < grid + out + 9 * 64 * 62 * 4  # less than one grid row

    def test_concurrent_callers_equal_the_serial_loop(self):
        """Two callers at once, more threads than cores and a short switch
        interval: a buffer shared between their strips would show as a
        mismatch."""
        cases = [wide_conv(np.float32, seed=30), wide_conv(np.float32,
                                                           seed=31)]
        rows = strip_rows(np.float32)
        wants = [(serial_strips(wt.reshape(64, -1), x, rows)
                  + bias[:, None]).reshape(64, 60, 62)[:, :, :60]
                 for x, wt, bias in cases]
        matches = [[], []]

        def caller(i):
            x, wt, bias = cases[i]
            for _ in range(5):
                matches[i].append(np.array_equal(T.conv2d(x, wt, bias),
                                                 wants[i]))

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matches == [[True] * 5, [True] * 5]

    def test_float64_after_float32_reuses_the_buffer(self):
        x32, wt32, _ = wide_conv(np.float32)
        x64, wt64, _ = wide_conv(np.float64, seed=24)

        def run():
            T._conv_gemm(wt32.reshape(64, -1), x32)
            buf = T._workspace.buf
            got = T._conv_gemm(wt64.reshape(64, -1), x64)
            return got, T._workspace.buf is buf

        got, same = in_fresh_thread(run)
        assert same
        assert np.array_equal(got, serial_strips(
            wt64.reshape(64, -1), x64, strip_rows(np.float64)))

    def test_workspaces_hold_at_most_strip_bytes(self, strip_gemms):
        """The denoiser's wide convs, both dtypes, on a caller that starts
        with no workspace."""
        def run():
            for dtype in (np.float32, np.float64):
                for c_in, c_out in ((31, 64), (64, 64), (64, 31)):
                    rng = np.random.default_rng(c_in + c_out)
                    x = rng.normal(size=(c_in, 60, 60)).astype(dtype)
                    wt = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
                    T._conv_gemm(wt.reshape(c_out, -1), x)
                    T.conv2d_transpose(wt, rng.normal(
                        size=(c_out, 60, 60)).astype(dtype))
            return workspace_bytes()

        caller = in_fresh_thread(run)
        assert caller <= T.STRIP_BYTES
        assert caller == max(nbytes for _, nbytes in strip_gemms)

    def test_a_row_wider_than_strip_bytes_keeps_one_row(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(64, 3, 248))  # 3 grid rows of 250 columns
        wt = rng.normal(size=(64, 64, 3, 3))
        row = 9 * 64 * 250 * 8
        assert row > T.STRIP_BYTES
        got, caller = in_fresh_thread(
            lambda: (T._conv_gemm(wt.reshape(64, -1), x), workspace_bytes()))
        assert np.array_equal(got, serial_strips(wt.reshape(64, -1), x, 1))
        assert caller == row


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
        once, twice = ((T.conv2d_transpose(w, c), *T.conv2d_vjp(x, c))
                       for c in (cot, 2.0 * cot))
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
            cx = T.conv2d_transpose(w, cot)
            fx = fd_grad(lambda v: float((T.conv2d(v, w, bias) * cot).sum()), x)
            assert rel_err(cx, fx) < 1e-5
