"""Adaptive panel-doubling Simpson quadrature for peaked integrands."""

import numpy as np

# panels refined per integrand call and row, taken from the top of the row's LIFO stack
PANELS_PER_CALL = 64


class QuadratureFailure(Exception):
    """Adaptive refinement hit the depth limit before meeting tolerance.

    row is the failing integrand's index in a simpson_family call (0 for
    adaptive_simpson).
    """

    def __init__(self, message, a=None, b=None, err=None, row=None):
        super().__init__(message)
        self.a = a
        self.b = b
        self.err = err
        self.row = row


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _call(f, rows, nodes):
    # a constant integrand may return a scalar
    return np.broadcast_to(np.asarray(f(rows, nodes), dtype=np.float64), nodes.shape)


def simpson_family(f, a, b, n_rows, *, rel_tol=1e-6, max_depth=48, seeds=None):
    """Integrate n_rows integrands over [a, b] in one adaptive refinement.

    f(rows, nodes) takes two 1-D arrays of one length, integer row indices
    and float nodes, and returns the value of integrand rows[i] at nodes[i]
    for each i.  Returns an array of the n_rows integrals.  seeds, if given,
    are extra initial panel edges (clipped to (a, b)), shared by every row;
    use them to pre-split around known sharp features so the first
    estimate already samples them.  Raises QuadratureFailure carrying the
    failing row and its worst panel when max_depth is exhausted.

    The first call evaluates the initial edges and midpoints of every row,
    row by row; each row's composite estimate fixes its own absolute error
    budget.  Every later call refines up to PANELS_PER_CALL panels per row
    from the top of that row's LIFO stack, kept in left-to-right order.
    Whether a panel is accepted depends only on its own values and its
    row's budget, so each row visits the nodes of its own one-panel-at-a-
    time depth-first refinement; its accepted panels are summed right to
    left, the order depth-first refinement accepts them in.  Each row's
    integral thus equals a one-row call on that integrand bit for bit.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if n_rows == 0:
        return np.zeros(0)
    edges = {a, b}
    for k in range(1, 8):
        edges.add(a + (b - a) * k / 8.0)
    if seeds:
        for s in seeds:
            if a < s < b:
                edges.add(float(s))
    edges = np.array(sorted(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    first = np.concatenate([edges, mids])
    row0 = np.repeat(np.arange(n_rows), first.size)
    values = _call(f, row0, np.tile(first, n_rows)).reshape(n_rows, first.size)
    fe, fm = values[:, : edges.size], values[:, edges.size :]
    u, v = edges[:-1], edges[1:]
    s = _simpson(fe[:, :-1], fm, fe[:, 1:], v - u)
    panel_row = np.repeat(np.arange(n_rows), u.size)
    tol = rel_tol * np.abs(np.bincount(panel_row, weights=s.ravel(), minlength=n_rows))

    span = b - a
    # open panels grouped by row, each row's rightmost last:
    # rows row, u, v, f(u), f(m), f(v), S, depth
    stack = np.array(
        [
            panel_row,
            np.tile(u, n_rows),
            np.tile(v, n_rows),
            fe[:, :-1].ravel(),
            fm.ravel(),
            fe[:, 1:].ravel(),
            s.ravel(),
            np.zeros(s.size),
        ]
    )
    done_row, done_u, done_val = [], [], []
    while stack.shape[1]:
        owner = stack[0].astype(np.intp)
        ends = np.cumsum(np.bincount(owner, minlength=n_rows))
        top = ends[owner] - np.arange(owner.size) <= PANELS_PER_CALL
        row, u, v, fu, fm, fv, s, depth = stack[:, top]
        stack = stack[:, ~top]
        owner = owner[top]
        m = 0.5 * (u + v)
        lm = 0.5 * (u + m)
        rm = 0.5 * (m + v)
        values = _call(f, np.concatenate([owner, owner]), np.concatenate([lm, rm]))
        flm, frm = values[: u.size], values[u.size :]
        sl = _simpson(fu, flm, fm, m - u)
        sr = _simpson(fm, frm, fv, v - m)
        err = (sl + sr - s) / 15.0
        budget = tol[owner] * (v - u) / span
        ok = (np.abs(err) <= budget) | (sl + sr == s)
        failed = ~ok & (depth >= max_depth)
        if failed.any():
            # the first failing row's rightmost panel, the first depth-first pops
            r = owner[failed].min()
            i = np.nonzero(failed & (owner == r))[0][-1]
            raise QuadratureFailure(
                f"panel [{u[i]:.6g}, {v[i]:.6g}] unresolved at depth {int(depth[i])} "
                f"(estimated error {abs(err[i]):.3g}, budget {budget[i]:.3g})",
                a=float(u[i]),
                b=float(v[i]),
                err=float(abs(err[i])),
                row=int(r),
            )
        done_row.append(owner[ok])
        done_u.append(u[ok])
        done_val.append((sl + sr + err)[ok])
        split = ~ok
        children = np.empty((8, 2 * np.count_nonzero(split)))
        children[:, 0::2] = np.array([row, u, m, fu, flm, fm, sl, depth + 1.0])[:, split]
        children[:, 1::2] = np.array([row, m, v, fm, frm, fv, sr, depth + 1.0])[:, split]
        # children go on top of their own row's stack: regroup by row unless
        # the rows left below them all come first
        regroup = stack.shape[1] and children.shape[1] and stack[0, -1] > children[0, 0]
        stack = np.concatenate([stack, children], axis=1)
        if regroup:
            stack = stack[:, np.argsort(stack[0], kind="stable")]
    done_row = np.concatenate(done_row)
    order = np.lexsort((-np.concatenate(done_u), done_row))
    # bincount adds each row's values in the given order, from +0.0, as a loop would
    return np.bincount(done_row[order], weights=np.concatenate(done_val)[order], minlength=n_rows)


def adaptive_simpson(f, a, b, *, rel_tol=1e-6, max_depth=48, seeds=None):
    """Integrate f over [a, b] by adaptive Simpson with Richardson correction.

    f takes a 1-D float array of nodes and returns an array of the same
    length.  This is the one-row simpson_family: the same seeds, nodes,
    calls and QuadratureFailure, and a float result.
    """
    (value,) = simpson_family(lambda rows, x: f(x), a, b, 1, rel_tol=rel_tol, max_depth=max_depth, seeds=seeds)
    return float(value)
