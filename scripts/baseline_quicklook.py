"""Quick look at the free-market baseline landmarks.

Runs a reduced ensemble (default 60 replicas, 600 sweeps) and prints the
numbers worth eyeballing: early firm-count decay, the peak of the
mean-to-frontier ratio, the late plateau, and the catch-up time.

    python scripts/baseline_quicklook.py [--replicas N] [--seed S] [--jobs J]
"""
import argparse
import time

from techmarket import SimParams, run_ensemble

def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicas", type=int, default=60)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    params = SimParams(q=0.0, t_max=600, seed=args.seed)
    t0 = time.perf_counter()
    st = run_ensemble(params, args.replicas, jobs=args.jobs)
    elapsed = time.perf_counter() - t0

    print(f"replicas={args.replicas} seed={args.seed} ({elapsed:.1f}s)")
    print(f"N(0)={st.n_mean[0]:.1f}  N(50)={st.n_mean[50]:.1f}  "
          f"N(100)={st.n_mean[100]:.1f}  N(600)={st.n_mean[600]:.1f}")
    peak = max(st.ratio_mean)
    print(f"ratio peak {peak:.3f} at t={st.ratio_mean.index(peak)}  "
          f"ratio(600)={st.ratio_mean[600]:.3f} (+-{st.ratio_sd[600]:.3f})")
    print(f"tc of ensemble mean: {st.tc_of_mean}   "
          f"per-replica tc: {st.tc_mean:.1f} +- {st.tc_sd:.1f} "
          f"(fraction reached {st.fraction_reached:.0%})")
    print(f"max renorm error: {st.max_renorm_error:.2e}")

if __name__ == "__main__":
    main()
