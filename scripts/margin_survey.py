"""Survey per-day case margins for one generator + pipeline config.

Runs all four case studies on every candidate day (enough history for
the fitting models, full day inside the dataset) and prints one line per
day: weather class, the case-1 minimum, the case-2/3/4 MAPEs, the
case-2 target-met flag, and the two chain gaps (case3 - case2,
case4 - case3). A day is marked PASS when the fusion beats the best
case-1 baseline and the chain is ordered, i.e. the full directional
pattern holds on that day. The summary lists passing days per class;
a config is usable for the pinned-day comparison when every class has
at least one.

Retries default to the pipeline default (5) so the numbers here are
bit-identical to what compare_cases produces on the same day list.
"""

import argparse
from collections import defaultdict

import pvlevels as pv


def block_schedule(days: int, block: int) -> tuple:
    cycle = [pv.Weather.SUNNY, pv.Weather.PARTLY_CLOUDY, pv.Weather.CLOUDY]
    return tuple(cycle[(k // block) % 3] for k in range(days))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--synth-seed", type=int, default=1)
    ap.add_argument("--pipe-seed", type=int, default=1)
    ap.add_argument("--days", type=int, default=90)
    ap.add_argument("--delay", type=int, default=3)
    ap.add_argument("--hidden", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=2000)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--patience", type=int, default=200)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--meter", type=float, default=0.02)
    ap.add_argument("--drift", type=float, default=0.23)
    ap.add_argument("--sigma-sunny", type=float, default=0.2)
    ap.add_argument("--sigma-cloudy", type=float, default=0.15)
    ap.add_argument("--sigma-partly", type=float, default=0.2)
    ap.add_argument("--ncust", type=int, default=72)
    ap.add_argument("--nfeeders", type=int, default=36)
    ap.add_argument("--thresh", type=float, default=0.10)
    ap.add_argument("--cloudy-th", type=float, default=0.5)
    ap.add_argument("--committee", type=int, default=3)
    ap.add_argument("--retries", type=int, default=5)
    ap.add_argument("--block", type=int, default=6)
    ap.add_argument("--max-days", type=int, default=0)
    args = ap.parse_args()

    scfg = pv.SynthConfig(
        days=args.days,
        n_customers=args.ncust,
        n_feeders=args.nfeeders,
        seed=args.synth_seed,
        meter_noise_sd=args.meter,
        shared_drift_sd=args.drift,
        sigma_sunny=args.sigma_sunny,
        sigma_cloudy=args.sigma_cloudy,
        sigma_partly=args.sigma_partly,
        regime_schedule=block_schedule(args.days, args.block) if args.block else None,
    )
    dataset, profile = pv.gen_dataset(scfg, pv.DEFAULT_SITE)
    net = pv.NetworkConfig(
        delay_d=args.delay,
        hidden_width=args.hidden,
        max_epochs=args.epochs,
        step_size=args.step,
        early_stop_patience=args.patience,
    )
    config = pv.PipelineConfig(
        seed=args.pipe_seed,
        capacity_fractions=pv.capacity_fractions(scfg),
        epsilon_fraction=args.eps,
        day_threshold_fraction=args.thresh,
        cloudy_threshold=args.cloudy_th,
        max_retries=args.retries,
        narx_committee=args.committee,
        fit_net=net,
        narx_net=net,
        baseline_net=net,
    )

    candidates = [
        pv.ForecastDay.at(dataset, profile, day, config)
        for day in pv.valid_forecast_days(dataset, profile, config)
    ]
    if args.max_days:
        candidates = candidates[-args.max_days:]

    passing = defaultdict(list)
    totals = defaultdict(int)
    order = [pv.CaseStudy.CASE1, pv.CaseStudy.CASE2, pv.CaseStudy.CASE3,
             pv.CaseStudy.CASE4]
    for context in candidates:
        day, w = context.day, context.weather
        mapes = {}
        met = False
        try:
            for cid in order:
                res = pv.run_case(cid, context)
                mapes[cid] = res.mape * 100
                if cid is pv.CaseStudy.CASE2:
                    met = res.level_errors.target_met
        except (pv.Unforecastable, pv.TrainingFailed) as exc:
            # e.g. a deep-overcast day with every actual below epsilon;
            # a broken input is not a day to skip, so it stops the survey
            print(f"  {day} {w.label[:6]:6s} skipped: {exc}", flush=True)
            continue
        c1m, c2 = mapes[order[0]], mapes[order[1]]
        c3, c4 = mapes[order[2]], mapes[order[3]]
        g32, g43 = c3 - c2, c4 - c3
        ok = met and c2 < c1m and g32 >= 0 and g43 >= 0
        totals[w] += 1
        if ok:
            passing[w].append(day)
        print(f"  {day} {w.label[:6]:6s} c1m={c1m:6.2f} c2={c2:6.2f} "
              f"c3={c3:6.2f} c4={c4:6.2f} met={int(met)} "
              f"g32={g32:+6.2f} g43={g43:+6.2f}{'  PASS' if ok else ''}",
              flush=True)

    print("\npassing days per class (met & c2<c1min & c2<=c3<=c4):")
    all_ok = True
    for w in pv.Weather:
        days = " ".join(str(d) for d in passing[w])
        print(f"  {w.label[:6]:6s} {len(passing[w]):2d}/{totals[w]:2d}  {days}")
        all_ok = all_ok and bool(passing[w])
    print(f"PAIR synth={args.synth_seed} pipe={args.pipe_seed}: "
          f"{'PASS' if all_ok else 'FAIL'}", flush=True)


if __name__ == "__main__":
    main()
