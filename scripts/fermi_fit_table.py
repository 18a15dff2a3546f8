"""Print the stored exponential fits of the Fermi function.

    python scripts/fermi_fit_table.py

For each anchor A of ANCHORS, fits f(u) = 1/(1 + e^{u - A}) on u = 0,
STEP, ..., A + SPAN by a matrix pencil (Hua & Sarkar, IEEE Trans. ASSP
38, 814 (1990)): the nodes are the eigenvalues of the shift between the
leading right singular vectors of the samples' Hankel matrix, the
weights a least-squares fit to the samples, and terms of weight below
1e-13 of the largest are dropped.  The fit, f(u) ~ sum_k w_k e^{-s_k u},
is real, so its complex nodes come in conjugate pairs; each pair is
folded into one term, f(u) ~ Re sum_k w_k e^{-s_k u}.

Prints the ``_FERMI_FIT_TABLE`` literal of ``fermipulse/formfunc.py``,
which shifts each anchor's fit to the fugacities below it.  This is the
only place where the fit calls ``numpy.linalg``; the program reads the
stored table.
"""

import math

import numpy as np

ANCHORS = (1.0, 4.0)
STEP = 0.1  # sample step in u
SPAN = 40.0  # samples run to u = A + SPAN, where f ~ e^{-SPAN}


def pencil_fit(anchor):
    """The matrix-pencil fit at log z = anchor: (w, s), complex, every
    conjugate pair in full."""
    size = int(math.ceil((anchor + SPAN) / STEP)) + 1
    y = 0.5 * (1.0 - np.tanh(0.5 * (STEP * np.arange(size) - anchor)))
    pencil = size // 2
    _, sv, vh = np.linalg.svd(np.lib.stride_tricks.sliding_window_view(y, pencil + 1), full_matrices=False)
    v = vh[: int(np.count_nonzero(sv > 1e-15 * sv[0]))].T
    mu = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    w = np.linalg.lstsq(mu ** np.arange(size)[:, None], y.astype(complex), rcond=None)[0]
    keep = np.abs(w) >= 1e-13 * np.abs(w).max()
    return w[keep], -np.log(mu[keep]) / STEP


def fold(w, s):
    """(w, s) with Re sum w e^{-s u} equal to sum w e^{-s u} of a real fit:
    each real node with the real part of its weight, then each pair
    (w_k, s_k), (w_k', conj s_k) once, as (w_k + conj w_k', s_k) with Im
    s_k > 0.  The pencil's eigenvalues of a real matrix are exactly real
    or exact conjugates; their weights are conjugate to round-off only,
    so both members' weights are kept."""
    real = s.imag == 0.0
    upper = np.nonzero(s.imag > 0.0)[0]
    lower = np.nonzero(s.imag < 0.0)[0]
    partner = lower[[int(np.argmin(np.abs(s[lower] - np.conj(s[k])))) for k in upper]]
    if sorted(partner.tolist()) != lower.tolist() or (s[partner] != np.conj(s[upper])).any():
        raise ValueError("the fit's complex nodes are not conjugate pairs")
    order = np.argsort(s[real].real)
    pairs = np.argsort(s[upper].imag)
    w_out = np.concatenate([w[real].real[order], (w[upper] + np.conj(w[partner]))[pairs]])
    s_out = np.concatenate([s[real][order], s[upper][pairs]])
    return w_out, s_out


def table():
    """{anchor: (w, s)}: the folded fit at each anchor."""
    return {anchor: fold(*pencil_fit(anchor)) for anchor in ANCHORS}


def _number(v):
    """The exact source text of a table entry: a float for a real one."""
    return repr(v.real) if v.imag == 0.0 else repr(v).strip("()")


def literal(fits):
    """The source text of the table: one (w, s) line per term."""
    lines = ["_FERMI_FIT_TABLE = {"]
    for anchor, (w, s) in fits.items():
        lines.append(f"    {anchor!r}: (")
        for wk, sk in zip(w.tolist(), s.tolist()):
            lines.append(f"        ({_number(wk)}, {_number(sk)}),")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(literal(table()))
