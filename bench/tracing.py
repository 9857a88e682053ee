"""Spans around the package's call sites, recorded from outside the package.

The package imports its collaborators by name (``pipeline`` does
``from .narnet import train``), so wrapping a definition would miss every
call made through such a binding. ``instrument`` therefore replaces the
binding in each *calling* module. Spans stay in memory; the worker
writes them out when its repetition ends.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so the children never overlap and
that cover is the plain sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    run_id: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "run": self.run_id,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Replace ``module.attr`` with a spanned call of the original.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``attrs(result, args, kwargs)`` returns counts to
        record on the span.
        """
        original = getattr(module, attr)
        if getattr(original, "__wrapped_by_bench__", False):
            raise RuntimeError(f"{module.__name__}.{attr} is already wrapped")

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            span = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(result, args, kwargs))
                return result
            finally:
                self.close(span)

        spanned.__wrapped_by_bench__ = True
        setattr(module, attr, spanned)


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _train_role(model, *args, **kwargs) -> str:
    # pipeline.train trains the raw-kW baselines (purely autoregressive)
    # and the NARX committee members (with exogenous channels)
    return "narnet.train.baseline" if model.config.n_exo_channels == 0 else "narnet.train.narx"


def _train_attrs(result, args, kwargs) -> dict:
    return {
        "epochs": len(result.training_history),
        "budget": result.config.max_epochs,
    }


def _series_rows(series_list) -> int:
    return sum(s.n for s in series_list)


def instrument(tracer: Tracer, pv) -> None:
    """Wrap every call site the layer metrics are read from.

    ``pv`` is the imported ``pvlevels`` package. Roles of ``train``:
    ``fit`` for calls through ``narnet.train`` (made by ``fit_nar``),
    ``baseline`` and ``narx`` for calls through ``pipeline.train``.
    """
    cli, pipeline, narnet, synth = pv.cli, pv.pipeline, pv.narnet, pv.synth

    tracer.wrap(cli, "gen_dataset", "synth")
    for module in (cli, synth):
        tracer.wrap(
            module, "clearsky_profile", "clearsky",
            lambda r, a, k: {"hours": r.n},
        )
    tracer.wrap(
        cli, "write_csv", "cli.write_csv",
        lambda r, a, k: {"rows": _series_rows(a[1])},
    )
    tracer.wrap(
        cli, "load_csv", "cli.load_csv",
        lambda r, a, k: {"rows": _series_rows(r)},
    )
    for attr in ("preprocess", "normalize_and_mask", "postprocess"):
        tracer.wrap(pipeline, attr, "preprocess")
    tracer.wrap(narnet, "train", "narnet.train.fit", _train_attrs)
    tracer.wrap(pipeline, "train", _train_role, _train_attrs)
    tracer.wrap(
        pipeline, "predict_closed_loop", "narnet.closed_loop",
        lambda r, a, k: {"steps": int(r.size)},
    )
    tracer.wrap(pipeline, "report", "metrics")
    for attr in ("_mape", "_r_squared"):
        tracer.wrap(narnet, attr, "metrics")
    tracer.wrap(
        pipeline, "build_fitting_models", "pipeline.build_fitting_models",
        lambda r, a, k: {"requested": len(r)},
    )
    tracer.wrap(
        pipeline, "forecast_day_ahead", "pipeline.forecast_day_ahead",
        lambda r, a, k: {"target_met": int(r[1].target_met)},
    )
    for module in (pipeline, cli):
        tracer.wrap(module, "run_case", "pipeline.run_case")
    tracer.wrap(cli, "compare_cases", "pipeline.compare_cases")


TRAIN_ROLES = ("fit", "baseline", "narx")


def layer_metrics(spans: list[Span], narx_committee: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, keyed by metric name.

    Times are self times, so the layers add up without double counting.
    """

    def of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def self_sum(name: str) -> float:
        return sum(s.self_s for s in of(name))

    def count(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in of(name))

    out: dict[str, float] = {}
    out["synth.s"] = self_sum("synth")
    out["clearsky.s"] = self_sum("clearsky")
    out["clearsky.hours"] = count("clearsky", "hours")
    out["cli.write_csv_s"] = self_sum("cli.write_csv")
    out["cli.write_rows"] = count("cli.write_csv", "rows")
    out["cli.load_csv_s"] = self_sum("cli.load_csv")
    out["cli.load_rows"] = count("cli.load_csv", "rows")
    out["preprocess.s"] = self_sum("preprocess")
    out["preprocess.calls"] = len(of("preprocess"))
    epochs = budget = 0
    for role in TRAIN_ROLES:
        name = f"narnet.train.{role}"
        s = self_sum(name)
        n_epochs = count(name, "epochs")
        out[f"{name}.s"] = s
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.epochs"] = n_epochs
        out[f"{name}.us_per_epoch"] = 1e6 * s / n_epochs if n_epochs else 0.0
        epochs += n_epochs
        budget += count(name, "budget")
    out["narnet.epoch_use"] = epochs / budget if budget else 0.0
    out["narnet.closed_loop.s"] = self_sum("narnet.closed_loop")
    out["narnet.closed_loop.steps"] = count("narnet.closed_loop", "steps")

    forecasts = of("pipeline.forecast_day_ahead")
    attempts = len(of("narnet.train.narx")) / narx_committee
    hits = sum(s.attrs["target_met"] for s in forecasts)
    fit_trains = len(of("narnet.train.fit"))
    out["pipeline.attempts"] = attempts
    out["pipeline.attempts_per_forecast"] = attempts / len(forecasts) if forecasts else 0.0
    out["pipeline.attempt_hit_ratio"] = hits / attempts if attempts else 0.0
    out["pipeline.fit_reuse_ratio"] = (
        count("pipeline.build_fitting_models", "requested") / fit_trains
        if fit_trains
        else 0.0
    )
    out["pipeline.baseline_trains"] = len(of("narnet.train.baseline"))
    case_times = [s.duration for s in of("pipeline.run_case")]
    out["pipeline.run_case_p50_s"] = statistics.median(case_times) if case_times else 0.0
    out["pipeline.run_case_n"] = len(case_times)
    out["pipeline.self_s"] = sum(
        s.self_s for s in spans if s.name.startswith("pipeline.")
    )
    out["metrics.s"] = self_sum("metrics")
    out["metrics.calls"] = len(of("metrics"))
    return out
