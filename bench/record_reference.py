"""Record the reference output digests the workloads check against.

    PYTHONPATH=src python3 bench/record_reference.py

Run from the repository root on a commit whose outputs are trusted.  For
each seed in SEEDS it runs every input of the noisy, binpick and cli
workloads once and writes the digests to ``bench/reference.json``.  A run
with a seed outside SEEDS checks only that repeated inputs give identical
outputs.
"""

from __future__ import annotations

import json

from workload import REFERENCE, BinPick, Cli, Noisy, item_key

SEEDS = range(32)


def main():
    ref = {"noisy": {}, "binpick": {}, "cli": {}}
    for seed in SEEDS:
        for name, cls in (("noisy", Noisy), ("binpick", BinPick), ("cli", Cli)):
            wl = cls(seed, None)
            try:
                outs = {item: wl.op(item) for item in wl.items}
            finally:
                if cls is Cli:
                    wl.close()
            failed = [item for item, out in outs.items() if cls is Cli and out[0] != 0]
            if failed:
                raise SystemExit(f"seed {seed}: CLI calls failed: {failed}")
            ref[name][str(seed)] = {item_key(item): wl.digest(out) for item, out in outs.items()}
        print(f"seed {seed} recorded", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
