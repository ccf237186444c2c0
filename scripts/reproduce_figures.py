"""Regenerate the CSV datasets behind every preset scenario (fig1..fig7).

Full fidelity (400 replicas per ensemble) takes a while on a laptop; pass
--replicas to trade accuracy for speed. Each scenario gets its own
subdirectory under --out.

    python scripts/reproduce_figures.py --out results [--replicas N] [--jobs J]
"""
import argparse
import sys
import time

from techmarket.cli import main as cli_main
from techmarket.scenarios import SCENARIOS

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results")
    ap.add_argument("--replicas", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    for name in SCENARIOS:
        argv = ["--scenario", name, "--out", f"{args.out}/{name}",
                "--jobs", str(args.jobs), "--seed", str(args.seed)]
        if args.replicas is not None:
            argv += ["--replicas", str(args.replicas)]
        print(f"== {name} ==", flush=True)
        t0 = time.perf_counter()
        code = cli_main(argv)
        print(f"   done in {time.perf_counter() - t0:.0f}s", flush=True)
        if code != 0:
            return code
    return 0

if __name__ == "__main__":
    sys.exit(main())
