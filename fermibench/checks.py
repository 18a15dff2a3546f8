"""Correctness checks on every operation's output.

Two kinds of check, both scaled to the channel peak so that tiny F2_coh
tails cannot trip them:

* reference values recorded at the default seed (references.json, written
  by make_references.py), compared for every operation whose input is the
  same as at the default seed, at the program's own tolerances: 1e-8
  for form functions (the CLI's default --tolerance) and 1e-6 for anything
  integrated by quadrature (the library's default quad_rel_tol);
* invariants that hold at any seed: every cell finite, F2_coh(0)/N^2 = 1,
  0 <= F2_in/N <= 1, and non-negative photon densities.

Each check returns a list of problems; an empty list means the output is
correct.
"""

import json
import math
import os

from workloads import CliWorkload, read_outputs

FORM_TOL = 1e-8
QUAD_TOL = 1e-6
# every (FORMFUNC_STRIDE)-th grid row and column is kept as a reference
FORMFUNC_STRIDE = (5, 6)

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _peak(values):
    return max((abs(v) for v in values), default=0.0)


def _compare(label, got, want, tol, peak, problems):
    if abs(got - want) > tol * peak:
        problems.append(f"{label}: {got!r} vs reference {want!r} (allowed {tol * peak:.3g})")


def _grid(wl):
    text = wl.extra[wl.extra.index("--grid") + 1]
    nt, nv = text.split("x")
    return int(nt), int(nv)


def check_total(wl, out, ref):
    problems = []
    if out["header"] != "kT_over_EF,N_coh,N_in,statistics":
        problems.append(f"total: unexpected header {out['header']!r}")
    rows = out["rows"]
    specs = wl.state_specs()
    if len(rows) != len(specs):
        return problems + [f"total: {len(rows)} rows, expected {len(specs)}"]
    for (_, t, s), (kt, n_coh, n_in, stat) in zip(specs, rows):
        label = f"total {t}EF {s}"
        if stat != s or not math.isclose(kt, t, rel_tol=1e-12):
            problems.append(f"{label}: row is for {kt}EF {stat}")
        if not (math.isfinite(n_coh) and math.isfinite(n_in)):
            problems.append(f"{label}: non-finite totals {n_coh!r}, {n_in!r}")
        elif n_coh < 0.0:
            problems.append(f"{label}: N_coh = {n_coh!r} < 0")
    if ref is not None and not problems:
        for col, name in ((1, "N_coh"), (2, "N_in")):
            peak = _peak(r[col] for r in ref["rows"])
            for (_, t, s), got, want in zip(specs, rows, ref["rows"]):
                _compare(f"total {t}EF {s} {name}", got[col], want[col], QUAD_TOL, peak, problems)
    return problems


def check_formfunc(wl, out, ref):
    problems = []
    nt, nv = _grid(wl)
    for key, table in out.items():
        if table["header"] != "theta_deg,varpi,x_total,value":
            problems.append(f"{key}: unexpected header {table['header']!r}")
        rows = table["rows"]
        if len(rows) != nt * nv:
            problems.append(f"{key}: {len(rows)} rows, expected {nt * nv}")
            continue
        bad = [r for r in rows if len(r) != 4 or not all(map(math.isfinite, r))]
        if bad:
            problems.append(f"{key}: {len(bad)} non-finite or short rows, first {bad[0]!r}")
            continue
        if key.startswith("coh_"):
            at_zero = [r[3] for r in rows if r[2] == 0.0]
            if not at_zero:
                problems.append(f"{key}: no x_total = 0 cell to check F2_coh(0)/N^2 = 1")
            elif any(abs(v - 1.0) > FORM_TOL for v in at_zero):
                problems.append(f"{key}: F2_coh(0)/N^2 = {at_zero!r}, expected 1")
        else:
            outside = [r for r in rows if not (-FORM_TOL <= r[3] <= 1.0 + FORM_TOL)]
            if outside:
                problems.append(f"{key}: {len(outside)} cells with F2_in/N outside [0, 1], first {outside[0]!r}")
        if ref is not None:
            want = ref["files"].get(key)
            if want is None:
                problems.append(f"{key}: no reference")
                continue
            peak = _peak(v for _, v in want)
            for idx, v in want:
                _compare(f"{key} row {idx}", rows[idx][3], v, FORM_TOL, peak, problems)
    if ref is not None and set(out) != set(ref["files"]):
        problems.append(f"formfunc: files {sorted(out)} vs reference {sorted(ref['files'])}")
    return problems


def formfunc_reference(wl, out):
    """The strided subset of a formfunc run kept as reference values."""
    nt, nv = _grid(wl)
    st, sv = FORMFUNC_STRIDE
    keep = [i * nv + j for i in range(0, nt, st) for j in range(0, nv, sv)]
    return {"stride": list(FORMFUNC_STRIDE), "files": {k: [[i, t["rows"][i][3]] for i in keep] for k, t in out.items()}}


def check_cli(wl, outdir, ref):
    try:
        out = read_outputs(wl, outdir)
    except (OSError, ValueError) as e:
        return [f"{wl.command}: unreadable output: {e}"]
    if wl.command == "total":
        return check_total(wl, out, ref)
    return check_formfunc(wl, out, ref)


def _series(key):
    # "fd/angular/3" -> "fd/angular"; "fd/total" is a series of its own
    head, _, tail = key.rpartition("/")
    return head if tail.isdigit() else key


def check_library(outcomes, ref, compared):
    """Problems per operation of a library pass, for the operations that
    returned; those that raised are counted as failed by the caller.
    Operations whose keys are in ``compared`` had the reference input and
    are also compared with the reference."""
    problems = {o.key: [] for o in outcomes if not o.error}
    series = {}
    for o in outcomes:
        if not o.error:
            series.setdefault(_series(o.key), []).append(o)
    for name, items in series.items():
        for ch, channel in enumerate(("coh", "in")):
            floor = -QUAD_TOL * _peak(o.value[ch] for o in items if math.isfinite(o.value[ch]))
            want = {}
            if ref is not None:
                want = {k: v[ch] for k, v in ref["ops"].items() if v is not None and _series(k) == name}
            peak = _peak(want.values())
            for o in items:
                v = o.value[ch]
                if not math.isfinite(v):
                    problems[o.key].append(f"{o.key} {channel}: non-finite {v!r}")
                    continue
                if v < floor:
                    problems[o.key].append(f"{o.key} {channel}: {v!r} < 0")
                if o.key in compared and o.key in want:
                    _compare(f"{o.key} {channel}", v, want[o.key], QUAD_TOL, peak, problems[o.key])
    return problems


def check(wl, outcomes, ref, inputs):
    """Problems per operation key, for the operations that returned."""
    if isinstance(wl, CliWorkload):
        return {o.key: check_cli(wl, o.value, ref) for o in outcomes if not o.error}
    return check_library(outcomes, ref, wl.reference_keys(inputs))
