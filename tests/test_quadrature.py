import math

import numpy as np
import pytest

from fermipulse.quadrature import QuadratureFailure, clenshaw_curtis, nested, trapezoid, weighted

CC = clenshaw_curtis(16, 8)
TRAPEZOID = trapezoid(-12.0, 12.0, 120, 6)


def one_row(f, levels, rel_tol=1e-10):
    """nested() on one integrand of the nodes alone, as a float."""
    return float(nested(lambda rows, x: f(x), levels, 1, rel_tol)[0])


def all_nodes(levels, k):
    """Every node of levels[: k + 1], in the order of level k's weights."""
    return np.concatenate([nodes for nodes, _ in levels[: k + 1]])


def test_polynomial_is_exact():
    # m intervals integrate every polynomial of degree m + 1 exactly
    for k, (_, weights) in enumerate(CC[:4]):
        s = all_nodes(CC, k)
        for p in range((16 << k) + 2):
            assert abs(np.sum(weights * s**p) - 1.0 / (p + 1)) <= 2e-15
    assert one_row(lambda s: 7.0 * s**17 - 2.0 * s, CC) == pytest.approx(7.0 / 18.0 - 1.0, abs=1e-15)


def test_weights_are_nested():
    # every level reuses the nodes before it; the weights sum to the length
    cc_nodes, trap_nodes = all_nodes(CC, len(CC) - 1), all_nodes(TRAPEZOID, len(TRAPEZOID) - 1)
    assert cc_nodes.size == np.unique(cc_nodes).size == 4097
    assert trap_nodes.size == np.unique(trap_nodes).size == 120 * 64 + 1
    for (_, a), (_, b) in zip(CC, TRAPEZOID):
        assert a.sum() == pytest.approx(1.0, rel=1e-14)
        assert b.sum() == pytest.approx(24.0, rel=1e-14)


def test_sine():
    assert one_row(lambda s: np.sin(math.pi * s), CC) == pytest.approx(2.0 / math.pi, rel=1e-9)


def test_narrow_forward_peak():
    # the nodes crowd into s = 0 like (j pi / 2m)^2, where the forward
    # cone peaks
    w = 1e-3
    got = one_row(lambda s: np.exp(-((s / w) ** 2)), CC, rel_tol=1e-8)
    assert got == pytest.approx(0.5 * w * math.sqrt(math.pi), rel=1e-6)


def test_decaying_exponential():
    # sech^2, analytic in a strip: the trapezoid rule converges
    # exponentially and settles at the second level, h = 0.1
    calls = []

    def f(x):
        calls.append(x.size)
        return 1.0 / np.cosh(x) ** 2

    got = one_row(f, TRAPEZOID)
    assert got == pytest.approx(2.0 * math.tanh(12.0), rel=1e-13)
    assert calls == [121, 120]


def test_weighted_folds_the_weight_and_drops_its_zeros():
    line = lambda w: math.pi * w * w / np.cosh(0.5 * math.pi * w) ** 2
    levels = weighted(TRAPEZOID, line)
    # the node varpi = 0, where the weight vanishes, is gone
    assert [nodes.size for nodes, _ in levels[:2]] == [120, 120]
    assert 0.0 not in levels[0][0]
    assert one_row(lambda x: np.ones(x.shape), levels) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_zero_function():
    assert one_row(lambda x: 0.0, CC) == 0.0


def test_subnormal_row_closes():
    # values of the order of the smallest subnormal, different at every
    # node: the levels never agree relatively, but within the floor
    noise = lambda s: 5e-324 * np.floor(1e4 * np.modf(s * 1e7)[0])
    got = one_row(noise, CC)
    assert 0.0 <= got < np.finfo(np.float64).tiny


def test_failure_carries_last_difference():
    wild = lambda s: np.sin(1.0 / (s + 1e-9))
    with pytest.raises(QuadratureFailure, match="row 0 unresolved after 9 levels") as info:
        one_row(wild, CC, rel_tol=1e-12)
    assert info.value.row == 0
    assert info.value.err > 0.0


def family_nodes(fs, levels, rel_tol):
    """nested() over the integrands fs, the calls' sizes, and each row's
    list of nodes."""
    seen = [[] for _ in fs]
    sizes = []

    def g(rows, x):
        sizes.append(x.size)
        out = np.empty(x.shape)
        for r, f in enumerate(fs):
            mine = rows == r
            seen[r].extend(x[mine].tolist())
            out[mine] = f(x[mine])
        return out

    return nested(g, levels, len(fs), rel_tol), sizes, seen


@pytest.mark.parametrize(
    "f, levels, calls",
    [
        (lambda x: 1.0 / np.cosh(x) ** 2, TRAPEZOID, 2),
        (lambda s: np.exp(-((s / 1e-3) ** 2)), CC, 7),
        (lambda s: np.sin(math.pi * s), CC, 2),
    ],
    ids=["decaying-exponential", "narrow-peak", "sine"],
)
def test_distinct_node_count(f, levels, calls):
    # each level calls f once, on its new nodes only
    _, sizes, (seen,) = family_nodes([f], levels, 1e-10)
    assert sizes == [nodes.size for nodes, _ in levels[:calls]]
    assert len(seen) == len(set(seen)) == sum(sizes)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_row_equals_one_row_call(rel_tol):
    # rows of different widths close at different levels; each equals its
    # one-row call bit for bit, on the same nodes, one of them all zero
    widths = [1e-3, 0.3, 1.0, 3e-2, 0.1]
    scales = [1.0, 1e-7, 0.0, -3.1, 2.0**40]
    fs = [lambda s, w=w, c=c: c * np.exp(-((s / w) ** 2)) for w, c in zip(widths, scales)]
    values, _, seen = family_nodes(fs, CC, rel_tol)
    for f, value, nodes in zip(fs, values.tolist(), seen):
        alone, _, (alone_nodes,) = family_nodes([f], CC, rel_tol)
        assert value == alone[0]
        assert nodes == alone_nodes
    assert len({len(nodes) for nodes in seen}) > 2


def test_family_first_call_is_row_by_row():
    calls = []

    def f(rows, x):
        calls.append((rows.copy(), x.copy()))
        return np.exp(-x * x) * (1.0 + rows)

    nested(f, TRAPEZOID, 3, 1e-9)
    rows, x = calls[0]
    assert rows.tolist() == sorted(rows.tolist())
    n = x.size // 3
    assert x[:n].tolist() == x[n : 2 * n].tolist() == x[2 * n :].tolist() == TRAPEZOID[0][0].tolist()


def test_integrand_called_on_arrays():
    calls = []

    def f(rows, x):
        calls.append((rows.shape, x.shape))
        return np.exp(-x * x)

    nested(f, TRAPEZOID, 2, 1e-9)
    assert all(len(r) == len(x) == 1 and r == x for r, x in calls)
    assert 2 <= len(calls) <= len(TRAPEZOID)


def test_family_failure_names_the_wild_row():
    wild = lambda s: np.sin(1.0 / (s + 1e-9))
    tame = lambda s: np.exp(3.0 * s)
    per_call = []

    def f(rows, s):
        per_call.append(np.bincount(rows, minlength=5))
        return np.where((rows == 2) | (rows == 4), wild(s), (1.0 + rows) * tame(s))

    with pytest.raises(QuadratureFailure) as info:
        nested(f, CC, 5, 1e-12)
    assert info.value.row == 2
    # the tame rows close early and leave the later calls; the wild row
    # carries the difference it carries alone
    assert per_call[-1].tolist() == [0, 0, 2048, 0, 2048]
    with pytest.raises(QuadratureFailure) as alone:
        one_row(wild, CC, rel_tol=1e-12)
    assert info.value.err == alone.value.err


def test_empty_family_makes_no_call():
    def f(rows, x):
        raise AssertionError("called")

    assert nested(f, CC, 0, 1e-6).shape == (0,)
