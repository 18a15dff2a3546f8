import math

import numpy as np
import pytest

from fermipulse.quadrature import PANELS_PER_CALL, QuadratureFailure, adaptive_simpson, simpson_family


def test_polynomial_is_exact():
    assert adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_sine():
    assert adaptive_simpson(np.sin, 0.0, math.pi, rel_tol=1e-10) == pytest.approx(2.0, rel=1e-9)


def test_narrow_peak_with_seeds():
    w = 1e-3
    f = lambda x: np.exp(-((x / w) ** 2))
    got = adaptive_simpson(f, 0.0, math.pi, rel_tol=1e-8, seeds=[w, 4 * w, 16 * w, 128 * w])
    assert got == pytest.approx(0.5 * w * math.sqrt(math.pi), rel=1e-6)


def test_decaying_exponential():
    got = adaptive_simpson(lambda x: np.exp(-abs(x) * math.pi), -12, 12, rel_tol=1e-9)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-7)


def test_zero_function():
    assert adaptive_simpson(lambda x: 0.0, 0.0, 1.0) == 0.0


def test_failure_carries_worst_panel():
    wild = lambda x: np.sin(1.0 / (x + 1e-9))
    with pytest.raises(QuadratureFailure) as info:
        adaptive_simpson(wild, 0.0, 1.0, rel_tol=1e-12, max_depth=4)
    assert info.value.a is not None
    assert info.value.b is not None
    assert info.value.err is not None


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 1.0, 1.0)


def distinct_nodes(f, *args, **kwargs):
    """Integral and the set of distinct nodes f was called on."""
    seen = set()

    def g(x):
        seen.update(x.tolist())
        return f(x)

    return adaptive_simpson(g, *args, **kwargs), seen


def family_nodes(fs, *args, **kwargs):
    """simpson_family over the integrands fs, and each row's set of distinct nodes."""
    seen = [set() for _ in fs]

    def g(rows, x):
        out = np.empty(x.shape)
        for r, f in enumerate(fs):
            mine = rows == r
            seen[r].update(x[mine].tolist())
            out[mine] = f(x[mine])
        return out

    return simpson_family(g, *args, len(fs), **kwargs), seen


@pytest.mark.parametrize(
    "f, args, kwargs, nodes",
    [
        # counts of one-panel-at-a-time depth-first refinement with the same
        # accept rule; batching the refinement must not change the node set
        (lambda x: np.exp(-abs(x) * math.pi), (-12, 12), dict(rel_tol=1e-9), 1201),
        (
            lambda x: np.exp(-((x / 1e-3) ** 2)),
            (0.0, math.pi),
            dict(rel_tol=1e-8, seeds=[1e-3, 4e-3, 16e-3, 128e-3]),
            1253,
        ),
        (np.sin, (0.0, math.pi), dict(rel_tol=1e-10), 425),
    ],
    ids=["decaying-exponential", "seeded-narrow-peak", "sine"],
)
def test_distinct_node_count(f, args, kwargs, nodes):
    _, seen = distinct_nodes(f, *args, **kwargs)
    assert len(seen) == nodes
    # in a family, each row visits exactly the nodes of its one-row call
    rows = [f, lambda x: 3.7 * f(x), lambda x: np.zeros(x.shape), lambda x: -1e-5 * f(x)]
    values, seen = family_nodes(rows, *args, **kwargs)
    for g, value, nodes_of_row in zip(rows, values.tolist(), seen):
        alone, alone_seen = distinct_nodes(g, *args, **kwargs)
        assert value == alone
        assert nodes_of_row == alone_seen
    assert len(seen[0]) == nodes


def test_integrand_called_on_arrays():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(-abs(x) * math.pi)

    adaptive_simpson(f, -12, 12, rel_tol=1e-9)
    assert all(len(shape) == 1 for shape in calls)
    # at most PANELS_PER_CALL panels, two new nodes each, after the first call
    assert max(shape[0] for shape in calls[1:]) <= 2 * PANELS_PER_CALL
    assert len(calls) < 40


def depth_first_simpson(f, a, b, rel_tol, seeds=(), max_depth=48):
    """Reference: one panel at a time from a LIFO stack, f on scalars."""
    edges = sorted({a, b, *(a + (b - a) * k / 8.0 for k in range(1, 8)), *(s for s in seeds if a < s < b)})
    stack = []
    total0 = 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        m = 0.5 * (u + v)
        fu, fm, fv = f(u), f(m), f(v)
        s = (v - u) / 6.0 * (fu + 4.0 * fm + fv)
        stack.append((u, v, fu, fm, fv, s, 0))
        total0 += s
    tol = rel_tol * abs(total0)
    acc = 0.0
    while stack:
        u, v, fu, fm, fv, s, depth = stack.pop()
        m = 0.5 * (u + v)
        flm, frm = f(0.5 * (u + m)), f(0.5 * (m + v))
        sl = (m - u) / 6.0 * (fu + 4.0 * flm + fm)
        sr = (v - m) / 6.0 * (fm + 4.0 * frm + fv)
        err = (sl + sr - s) / 15.0
        if abs(err) <= tol * (v - u) / (b - a) or sl + sr == s:
            acc += sl + sr + err
        elif depth >= max_depth:
            raise QuadratureFailure("unresolved")
        else:
            stack.append((u, m, fu, flm, fm, sl, depth + 1))
            stack.append((m, v, fm, frm, fv, sr, depth + 1))
    return acc


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_equals_depth_first_refinement(rel_tol):
    # arithmetic only, so the scalar and array integrands agree bit for bit;
    # the batched refinement then returns the depth-first sum exactly, for
    # one integrand and for each row of a family whose rows are scaled
    # differently (each with its own budget), one of them all zero
    f = lambda x: 1.0 / (1.0 + (x * 100.0) ** 2) + x**3
    seeds = [0.01, 0.1]
    want = depth_first_simpson(f, -1.3, 2.0, rel_tol, seeds)
    assert adaptive_simpson(f, -1.3, 2.0, rel_tol=rel_tol, seeds=seeds) == want
    scales = np.array([1.0, 1e-7, 0.0, -3.1, 2.0**40])
    got = simpson_family(lambda rows, x: scales[rows] * f(x), -1.3, 2.0, scales.size, rel_tol=rel_tol, seeds=seeds)
    for c, value in zip(scales.tolist(), got.tolist()):
        assert value == depth_first_simpson(lambda x: c * f(x), -1.3, 2.0, rel_tol, seeds)


def test_family_first_call_is_row_by_row():
    calls = []

    def f(rows, x):
        calls.append((rows.copy(), x.copy()))
        return np.exp(-abs(x)) * (1.0 + rows)

    simpson_family(f, -1.0, 1.0, 3, rel_tol=1e-9)
    rows, x = calls[0]
    assert rows.tolist() == sorted(rows.tolist())
    n = x.size // 3
    assert x[:n].tolist() == x[n : 2 * n].tolist() == x[2 * n :].tolist()


def test_family_failure_names_the_wild_row():
    wild = lambda x: np.sin(1.0 / (x + 1e-9))
    tame = lambda x: np.exp(3.0 * x)
    per_row = []

    def f(rows, x):
        per_row.append(np.bincount(rows, minlength=5))
        return np.where(rows == 2, wild(x), (1.0 + rows) * tame(x))

    with pytest.raises(QuadratureFailure) as info:
        simpson_family(f, 0.0, 1.0, 5, rel_tol=1e-12, max_depth=8)
    assert info.value.row == 2
    # the tame rows converge alone; the wild row raises the panel it raises alone
    assert adaptive_simpson(tame, 0.0, 1.0, rel_tol=1e-12, max_depth=8) > 0.0
    with pytest.raises(QuadratureFailure) as alone:
        adaptive_simpson(wild, 0.0, 1.0, rel_tol=1e-12, max_depth=8)
    assert (info.value.a, info.value.b, info.value.err) == (alone.value.a, alone.value.b, alone.value.err)
    assert alone.value.row == 0
    # while all rows refine, each call still takes at most PANELS_PER_CALL panels per row
    assert max(counts.max() for counts in per_row[1:]) == 2 * PANELS_PER_CALL


def test_empty_family_makes_no_call():
    def f(rows, x):
        raise AssertionError("called")

    assert simpson_family(f, 0.0, 1.0, 0).shape == (0,)
