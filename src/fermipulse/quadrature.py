"""Adaptive panel-doubling Simpson quadrature for peaked integrands."""

import numpy as np

# panels refined per integrand call, taken from the top of the LIFO stack
PANELS_PER_CALL = 64


class QuadratureFailure(Exception):
    """Adaptive refinement hit the depth limit before meeting tolerance."""

    def __init__(self, message, a=None, b=None, err=None):
        super().__init__(message)
        self.a = a
        self.b = b
        self.err = err


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _call(f, nodes):
    # a constant integrand may return a scalar
    return np.broadcast_to(np.asarray(f(nodes), dtype=np.float64), nodes.shape)


def adaptive_simpson(f, a, b, *, rel_tol=1e-6, max_depth=48, seeds=None):
    """Integrate f over [a, b] by adaptive Simpson with Richardson correction.

    f takes a 1-D float array of nodes and returns an array of the same
    length.  seeds, if given, are extra initial panel edges (clipped to
    (a, b)); use them to pre-split around known sharp features so the first
    estimate already samples them.  Raises QuadratureFailure carrying the
    worst panel when max_depth is exhausted.

    The first call evaluates the initial edges and midpoints, whose
    composite estimate fixes the absolute error budget.  Every later call
    refines up to PANELS_PER_CALL panels from the top of a LIFO stack kept
    in left-to-right order.  Whether a panel is accepted depends only on
    its own values, so the panels visited, and hence the nodes, are those
    of one-panel-at-a-time depth-first refinement; the accepted panels are
    summed right to left, the order depth-first refinement accepts them in.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = {a, b}
    for k in range(1, 8):
        edges.add(a + (b - a) * k / 8.0)
    if seeds:
        for s in seeds:
            if a < s < b:
                edges.add(float(s))
    edges = np.array(sorted(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    values = _call(f, np.concatenate([edges, mids]))
    fe, fm = values[: edges.size], values[edges.size :]
    u, v = edges[:-1], edges[1:]
    s = _simpson(fe[:-1], fm, fe[1:], v - u)
    total0 = 0.0
    for si in s.tolist():
        total0 += si
    tol = rel_tol * abs(total0)

    span = b - a
    # open panels, rightmost last: rows u, v, f(u), f(m), f(v), S, depth
    stack = np.array([u, v, fe[:-1], fm, fe[1:], s, np.zeros_like(s)])
    done_u, done_val = [], []
    while stack.shape[1]:
        u, v, fu, fm, fv, s, depth = stack[:, -PANELS_PER_CALL:]
        stack = stack[:, :-PANELS_PER_CALL]
        m = 0.5 * (u + v)
        lm = 0.5 * (u + m)
        rm = 0.5 * (m + v)
        values = _call(f, np.concatenate([lm, rm]))
        flm, frm = values[: u.size], values[u.size :]
        sl = _simpson(fu, flm, fm, m - u)
        sr = _simpson(fm, frm, fv, v - m)
        err = (sl + sr - s) / 15.0
        budget = tol * (v - u) / span
        ok = (np.abs(err) <= budget) | (sl + sr == s)
        failed = ~ok & (depth >= max_depth)
        if failed.any():
            i = np.nonzero(failed)[0][-1]  # the rightmost, the first depth-first pops
            raise QuadratureFailure(
                f"panel [{u[i]:.6g}, {v[i]:.6g}] unresolved at depth {int(depth[i])} "
                f"(estimated error {abs(err[i]):.3g}, budget {budget[i]:.3g})",
                a=float(u[i]),
                b=float(v[i]),
                err=float(abs(err[i])),
            )
        done_u.append(u[ok])
        done_val.append((sl + sr + err)[ok])
        split = ~ok
        children = np.empty((7, 2 * np.count_nonzero(split)))
        children[:, 0::2] = np.array([u, m, fu, flm, fm, sl, depth + 1.0])[:, split]
        children[:, 1::2] = np.array([m, v, fm, frm, fv, sr, depth + 1.0])[:, split]
        stack = np.concatenate([stack, children], axis=1)
    order = np.argsort(-np.concatenate(done_u), kind="stable")
    acc = 0.0
    for val in np.concatenate(done_val)[order].tolist():
        acc += val
    return acc
