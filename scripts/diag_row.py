"""Dissect one comparison row: per-case forecast paths, exo-future rails,
oracle errors, and seed-lag health, to see where the between-case MAPE
differences actually come from."""

import argparse
from dataclasses import replace
from datetime import date

import numpy as np

import pvlevels as pv
from pvlevels.narnet import make_training_set, predict_closed_loop, train, init_network
from pvlevels.pipeline import (
    _TAG_NARX,
    _fit_channel,
    CASE_LEVELS,
    select_best_fitting,
)
from pvlevels.preprocess import day_run_lengths
from pvlevels.core import derive_seed
from pvlevels.synth import _site_drift


def block_schedule(days: int, block: int) -> tuple:
    cycle = [pv.Weather.SUNNY, pv.Weather.PARTLY_CLOUDY, pv.Weather.CLOUDY]
    return tuple(cycle[(k // block) % 3] for k in range(days))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--synth-seed", type=int, required=True)
    ap.add_argument("--pipe-seed", type=int, required=True)
    ap.add_argument("--day", type=str, required=True)
    ap.add_argument("--days", type=int, default=90)
    ap.add_argument("--delay", type=int, default=6)
    ap.add_argument("--hidden", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=4000)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--patience", type=int, default=400)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--meter", type=float, default=0.06)
    ap.add_argument("--shared", type=float, default=0.1)
    ap.add_argument("--rho", type=float, default=0.3)
    ap.add_argument("--drift", type=float, default=0.10)
    ap.add_argument("--sigma-sunny", type=float, default=0.06)
    ap.add_argument("--sigma-cloudy", type=float, default=0.05)
    ap.add_argument("--sigma-partly", type=float, default=0.06)
    ap.add_argument("--ncust", type=int, default=12)
    ap.add_argument("--nfeeders", type=int, default=3)
    ap.add_argument("--thresh", type=float, default=0.10)
    ap.add_argument("--committee", type=int, default=5)
    ap.add_argument("--block", type=int, default=5)
    args = ap.parse_args()

    scfg = pv.SynthConfig(
        days=args.days,
        n_customers=args.ncust,
        n_feeders=args.nfeeders,
        seed=args.synth_seed,
        meter_noise_sd=args.meter,
        shared_fraction=args.shared,
        ar_rho=args.rho,
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
        narx_committee=args.committee,
        fit_net=net,
        narx_net=net,
        baseline_net=net,
    )

    context = pv.ForecastDay.at(dataset, profile, date.fromisoformat(args.day), config)
    day, i0, mask, mask_day = context.day, context.i0, context.mask, context.day_hours
    horizon = int(np.count_nonzero(mask_day))

    drift = _site_drift(scfg, dataset.n)
    sched = scfg.schedule()
    local_day = (i0 + int(dataset.site.tz_offset)) // 24
    print(f"day {day} i0={i0} regime={sched[local_day].label} "
          f"prev={sched[local_day - 1].label} horizon={horizon}")
    day_idx = np.flatnonzero(mask_day) + i0
    drift_day = drift[day_idx]
    print(f"drift today: mean {drift_day.mean():+.4f} "
          f"[{drift_day.min():+.4f}, {drift_day.max():+.4f}]")
    prev_idx = np.flatnonzero(mask[i0 - 24 : i0]) + i0 - 24
    print(f"drift yesterday: mean {drift[prev_idx].mean():+.4f}")

    # measured target index for the day, and oracle errors
    measured = pv.normalize_and_mask(
        dataset.series(config.target_level).sliced(i0, i0 + 24),
        context.day_profile, kappa_max=config.kappa_max, day_mask=mask_day,
    )
    actual_idx = measured.index_values
    mu = scfg.regime_mean(sched[local_day])
    actual_kw = context.actual[mask_day]
    prof_kw = context.day_profile.power_kw[mask_day]
    eps_kw = context.epsilon_kw[config.target_level]

    def mape_of_index_path(path: np.ndarray) -> float:
        pred_kw = path * prof_kw
        rep = pv.report(actual_kw, pred_kw, epsilon_kw=eps_kw, partial=True)
        return rep.mape * 100

    print(f"oracle(mu)        MAPE {mape_of_index_path(np.full(horizon, mu)):6.2f}")
    print(f"oracle(mu+drift)  MAPE {mape_of_index_path(mu + drift_day):6.2f}")
    print(f"actual idx: {np.array2string(actual_idx, precision=3)}")

    # shared infrastructure, as forecast_day_ahead builds it
    involved = list(pv.MeasurementLevel)
    pre = {lv: context.history(lv) for lv in involved}
    all_fits = context.fitting_models(involved)
    by_level = {m.level: m for m in all_fits}
    print("fit r2:", {m.level.label: round(m.fit_r2, 4) for m in all_fits})

    futures = {}
    for lv in involved:
        fm = by_level[lv]
        d_fit = fm.net.config.delay_d
        futures[lv] = predict_closed_loop(
            fm.net, pre[lv].index_values[-d_fit:], horizon=horizon,
            clamp=(0.0, config.kappa_max),
        )
    for lv in involved:
        seed_lags = pre[lv].index_values[-args.delay:]
        print(f"rail {lv.label:10s} seed {np.array2string(seed_lags, precision=3)} "
              f"future {np.array2string(futures[lv], precision=3)}")
    print(f"target y seed lags: "
          f"{np.array2string(pre[config.target_level].index_values[-args.delay:], precision=3)}")

    d = config.narx_net.delay_d
    for case_id in (pv.CaseStudy.CASE2, pv.CaseStudy.CASE3, pv.CaseStudy.CASE4):
        levels_used = CASE_LEVELS[case_id]
        exo_levels = sorted(levels_used, key=int)
        best = select_best_fitting([by_level[lv] for lv in exo_levels])
        y = pre[config.target_level].index_values
        exo_hist = [pre[lv].index_values for lv in exo_levels]
        exo_hist.append(_fit_channel(best, pre[best.level].index_values))
        exo_future = [futures[lv] for lv in exo_levels]
        exo_future.append(futures[best.level])
        narx_cfg_base = replace(config.narx_net, n_exo_channels=len(exo_hist))
        segs = day_run_lengths(mask[:i0])
        inputs, targets = make_training_set(y, exo_hist, d, segments=segs)
        y_seed = y[-d:]
        exo_seed = [ch[-d:] for ch in exo_hist]
        member_paths = []
        for member in range(config.narx_committee):
            member_seed = derive_seed(config.seed, _TAG_NARX, i0, 0, member)
            nn = train(init_network(replace(narx_cfg_base, seed=member_seed)),
                       inputs, targets)
            member_paths.append(predict_closed_loop(
                nn, y_seed, exo_future, horizon=horizon,
                exo_seed=exo_seed, clamp=(0.0, config.kappa_max)))
        member_paths = np.array(member_paths)
        med_path = np.median(member_paths, axis=0)
        spread = member_paths.std(axis=0).mean()
        mapes = [mape_of_index_path(p) for p in member_paths]
        print(f"{case_id.label}: fit={best.level.label[:4]} "
              f"median-committee MAPE {mape_of_index_path(med_path):6.2f} "
              f"members {[round(m, 2) for m in mapes]} "
              f"path-spread {spread:.4f}")
        print(f"  med path   {np.array2string(med_path, precision=3)}")
        err = med_path - actual_idx
        print(f"  mean err   {err.mean():+.4f}  |err| {np.abs(err).mean():.4f}")


if __name__ == "__main__":
    main()
