"""Write ``pinned.json``: reference digests at the default seed.

Run from the repository root, only when a change is meant to alter the
simulated results::

    python3 perfbench/pin.py

For each simulation workload one iteration runs at the default seed and
its job start times (hashed exactly), total carbon and total energy per
run are stored.  ``run.py`` then fails any iteration at the default seed
whose start times differ or whose totals drift beyond 1e-9 relative.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE.parent))
    from perfbench.workloads import DEFAULT_SEED, build, leg_digest

    pins = {}
    for name, wl in build(HERE / ".scratch").items():
        if wl.kind != "simulation":
            continue
        jobs = wl.make_inputs(DEFAULT_SEED)
        legs = wl.iterate(jobs)
        outcome = wl.check(jobs, legs)
        if outcome.errors:
            print(f"{name}: refusing to pin a failing run: {outcome.errors}",
                  file=sys.stderr)
            return 1
        pins[name] = dict(seed=DEFAULT_SEED, **leg_digest(legs))
        print(f"{name}: {pins[name]}")
    (HERE / "pinned.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
