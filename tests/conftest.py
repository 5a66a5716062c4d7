import pytest

from blocksc import denoiser as dn


@pytest.fixture
def conv_spy(monkeypatch):
    """Record the dtypes of every denoiser conv call, by phase.

    Returns (seen, in_phase): ``in_phase(label, fn)`` wraps ``fn`` so the
    convs it runs are listed under ``seen[label]``, each as (op name, set of
    the dtypes of its operands and results); convs outside any phase go to
    ``seen[None]``.
    """
    phase, seen = [None], {None: []}

    def spy(name):
        real = getattr(dn, name)

        def run(*args):
            out = real(*args)  # conv2d_vjp returns a tuple
            arrays = (*args, *(out if isinstance(out, tuple) else [out]))
            # conv2d_vjp takes and returns None for a skipped x cotangent
            seen[phase[-1]].append(
                (name, {a.dtype for a in arrays if a is not None}))
            return out
        return run

    def in_phase(label, fn):
        seen[label] = []

        def run(*args, **kwargs):
            phase.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()
        return run

    for name in ("conv2d", "conv2d_transpose", "conv2d_vjp"):
        monkeypatch.setattr(dn, name, spy(name))
    return seen, in_phase
