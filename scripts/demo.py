"""Small end-to-end demo: generate data, run the four case studies, print
the per-weather comparison table and one day's forecast next to the truth.

Settings are sized for a quick run (1.4 s on a 2-vCPU Xeon), not
forecast quality; see the README for the CLI equivalent on full-size
settings. The days compared are the last ``--eval-days`` that
``valid_forecast_days`` offers.
"""

import argparse
import sys

import pvlevels as pv


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--days", type=int, default=48)
    ap.add_argument("--eval-days", type=int, default=6)
    args = ap.parse_args()
    if args.eval_days < 1:
        ap.error("--eval-days must be >= 1")

    scfg = pv.SynthConfig(
        days=args.days,
        n_customers=8,
        n_feeders=2,
        seed=args.seed,
        meter_noise_sd=0.05,
    )
    dataset, profile = pv.gen_dataset(scfg, pv.DEFAULT_SITE)
    net = pv.NetworkConfig(
        delay_d=3, hidden_width=4, max_epochs=900, step_size=1e-2,
        early_stop_patience=150,
    )
    config = pv.PipelineConfig(
        seed=args.seed,
        capacity_fractions=pv.capacity_fractions(scfg),
        max_retries=2,
        narx_committee=1,
        fit_net=net,
        narx_net=net,
        baseline_net=net,
    )

    days = pv.valid_forecast_days(dataset, profile, config)[-args.eval_days:]
    if not days:
        sys.exit(f"error: no forecast day in {args.days} days has enough history")
    comparison = pv.compare_cases(dataset, profile, days, config)

    print(f"{args.days}-day synthetic dataset, seed {args.seed}; "
          f"comparing on the {len(days)} most recent forecastable days\n")
    print("weather          case1-min  case2   case3   case4   cut vs case1")
    for row in comparison.rows:
        print(f"{row.weather.label:15s} {100 * row.case1_min_mape:8.1f}% "
              f"{100 * row.case2_mape:6.1f}% {100 * row.case3_mape:6.1f}% "
              f"{100 * row.case4_mape:6.1f}% {100 * row.reduction_vs_case1:8.0f}%")
    for w in comparison.missing_classes:
        print(f"{w.label:15s} (no candidate day)")

    row = comparison.rows[0]
    result = row.results[pv.CaseStudy.CASE2]
    actual = dataset.series(config.target_level)
    i0 = actual.hour_index(result.forecast.start)
    print(f"\n{row.weather.label} day {row.forecast_day}, "
          f"three-level forecast vs measured (customer, kW):")
    print("hour   forecast   actual")
    for h in range(24):
        f_kw = result.forecast.values[h]
        a_kw = actual.values[i0 + h]
        if f_kw == 0.0 and a_kw == 0.0:
            continue
        print(f"{h:4d} {f_kw:10.2f} {a_kw:8.2f}")
    errors = result.level_errors
    print(f"\nfusion MAPE {100 * errors.e_n:.1f}% vs single-level "
          f"({100 * errors.e_c:.1f}%, {100 * errors.e_f:.1f}%, "
          f"{100 * errors.e_s:.1f}%); "
          f"target met: {errors.target_met}")


if __name__ == "__main__":
    main()
