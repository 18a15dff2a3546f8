"""Record the reference outputs that checks.py compares against.

    python3 fermibench/make_references.py

Runs every workload once at full size and the default seed (0) and
writes fermibench/references.json.  Run it only at a commit whose outputs
are trusted: later commits are checked against what it records.
Operations that fail are recorded as null, with their error.
"""

import json
import os
import shutil
import sys

from checks import REFERENCE_FILE, formfunc_reference
from run import ROOT, source_sha
from worker import entry_points
from workloads import WORKLOADS, CliWorkload, read_outputs, solve_states


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fermipulse as fp

    refs = {"source_sha256": source_sha()}
    workdir = os.path.join(ROOT, ".bench_work", "references")
    try:
        for name, sizes in WORKLOADS.items():
            wl = sizes["full"]
            states = solve_states(fp, fp.solve_fugacity, wl.state_specs())
            outcomes = wl.run(fp, entry_points(), states, wl.inputs(0), workdir)
            if isinstance(wl, CliWorkload):
                if outcomes[0].error:
                    raise SystemExit(f"{name}: {outcomes[0].error}")
                out = read_outputs(wl, workdir)
                refs[name] = out if wl.command == "total" else formfunc_reference(wl, out)
            else:
                refs[name] = {
                    "ops": {o.key: o.value for o in outcomes},
                    "failed_at_reference": {o.key: o.error for o in outcomes if o.error},
                }
            print(f"{name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its directory there
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
