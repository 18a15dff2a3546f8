"""Adaptive panel-doubling Simpson quadrature for peaked integrands."""


class QuadratureFailure(Exception):
    """Adaptive refinement hit the depth limit before meeting tolerance."""

    def __init__(self, message, a=None, b=None, err=None):
        super().__init__(message)
        self.a = a
        self.b = b
        self.err = err


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, *, rel_tol=1e-6, max_depth=48, seeds=None):
    """Integrate f over [a, b] by adaptive Simpson with Richardson correction.

    seeds, if given, are extra initial panel edges (clipped to (a, b)); use
    them to pre-split around known sharp features so the first estimate
    already samples them.  Raises QuadratureFailure carrying the worst panel
    when max_depth is exhausted.
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
    edges = sorted(edges)

    # initial composite estimate fixes the absolute tolerance budget
    panels = []
    total0 = 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        m = 0.5 * (u + v)
        fu, fm, fv = f(u), f(m), f(v)
        s = _simpson(fu, fm, fv, v - u)
        panels.append((u, v, fu, fm, fv, s, 0))
        total0 += s
    tol = rel_tol * abs(total0)

    span = b - a
    acc = 0.0
    stack = panels
    while stack:
        u, v, fu, fm, fv, s, depth = stack.pop()
        m = 0.5 * (u + v)
        lm = 0.5 * (u + m)
        rm = 0.5 * (m + v)
        flm = f(lm)
        frm = f(rm)
        sl = _simpson(fu, flm, fm, m - u)
        sr = _simpson(fm, frm, fv, v - m)
        err = (sl + sr - s) / 15.0
        if abs(err) <= tol * (v - u) / span or (sl + sr == s):
            acc += sl + sr + err
        elif depth >= max_depth:
            raise QuadratureFailure(
                f"panel [{u:.6g}, {v:.6g}] unresolved at depth {depth} "
                f"(estimated error {abs(err):.3g}, budget {tol * (v - u) / span:.3g})",
                a=u,
                b=v,
                err=abs(err),
            )
        else:
            stack.append((u, m, fu, flm, fm, sl, depth + 1))
            stack.append((m, v, fm, frm, fv, sr, depth + 1))
    return acc
