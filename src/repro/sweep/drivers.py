"""Sweep drivers: named callables the runner fans out over.

A driver is ``fn(seed, params) -> record`` where the record is a
JSON-serializable dict, by convention::

    {"scalars": {name: number, ...},      # aggregated across seeds
     "series":  {name: [[t, v], ...]}}    # aggregated pointwise

Everything else (telemetry isolation, metrics snapshots, checkpoints)
is the runner's job — drivers stay pure experiment code.

Drivers are resolved by name in **worker processes**, so a name must be
resolvable without any in-process registration having happened there:

* built-in names (``figure3``, ``figure3_baseline``, ``figure3_fastflex``)
  live in the table below;
* ``"package.module:callable"`` specs are imported on demand — this is
  how benchmark suites run their own case functions through the runner
  without the sweep package importing benchmark code;
* :func:`register_driver` adds process-local names (tests, notebooks);
  these resolve in forked workers (which inherit the registry) and in
  inline ``workers=1`` runs, but not in spawned workers — use a
  ``module:callable`` spec there.
"""

from __future__ import annotations

from importlib import import_module
import math
from typing import Any, Callable, Dict, List, Tuple

Driver = Callable[[int, Dict[str, Any]], Dict[str, Any]]

_REGISTRY: Dict[str, Driver] = {}


def register_driver(name: str, fn: Driver = None):
    """Register ``fn`` under ``name``; usable as a decorator."""
    if fn is None:
        return lambda f: register_driver(name, f)
    _REGISTRY[name] = fn
    return fn


def resolve_driver(name: str) -> Driver:
    """Look up a driver by registered name, built-in name, or
    ``module:callable`` import spec."""
    driver = _REGISTRY.get(name)
    if driver is not None:
        return driver
    if ":" in name:
        module_name, _, attr = name.partition(":")
        fn = getattr(import_module(module_name), attr, None)
        if not callable(fn):
            raise KeyError(f"driver spec {name!r}: "
                           f"{module_name}.{attr} is not callable")
        return fn
    raise KeyError(
        f"no sweep driver named {name!r}; registered: "
        f"{sorted(_REGISTRY)} (or use a 'module:callable' spec)")


def driver_names() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in figure drivers
# ----------------------------------------------------------------------

def _figure3_config(seed: int, params: Dict[str, Any]):
    from ..experiments.figure3 import Figure3Config
    fields = set(Figure3Config.__dataclass_fields__)
    unknown = set(params) - fields
    if unknown:
        raise ValueError(
            f"figure3 has no parameter(s) {sorted(unknown)}; "
            f"valid: {sorted(fields)}")
    # `--set duration_s=inf` arrives as a str, and a bool is an int:
    # name the parameter here rather than fail inside Figure3Config.
    duration = params.get("duration_s", Figure3Config.duration_s)
    if isinstance(duration, bool) or not isinstance(duration, (int, float)) \
            or not math.isfinite(duration):
        raise ValueError(
            f"figure3 parameter duration_s must be a finite number of "
            f"seconds, got {duration!r}")
    overrides = dict(params)
    overrides["seed"] = seed
    return Figure3Config(**overrides)


def _series(result) -> List[Tuple[float, float]]:
    return [[t, v] for t, v in result.throughput.samples]


def _summarize(result, config, prefix: str) -> Dict[str, float]:
    """One system's scalars.  Statistics with nothing to measure are
    omitted rather than faked: the under-attack pair when no sample
    fell in ``config.attack_window`` (a run shorter than the window),
    the detection lag when nothing was detected or no flood launched.
    The lag runs from the attacker's first logged ``launch``, when the
    flood really starts, not from the nominal ``attack_start_s``."""
    scalars = {
        f"{prefix}_attacker_rolls": result.rolls,
        f"{prefix}_fluid_allocation_passes":
            result.fluid_allocation_passes,
    }
    if result.throughput.window(*config.attack_window):
        scalars[f"{prefix}_mean_during_attack"] = \
            result.mean_during_attack(config)
        scalars[f"{prefix}_min_during_attack"] = \
            result.min_during_attack(config)
    launches = [event.time for event in result.attack_events
                if event.kind == "launch"]
    if result.detections and launches:
        scalars[f"{prefix}_detection_lag_s"] = (
            result.detections[0].time - min(launches))
    return scalars


@register_driver("figure3")
def figure3_driver(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """Both systems under the rolling LFA; the paper's Figure 3 point."""
    from ..experiments.figure3 import run_both
    config = _figure3_config(seed, params)
    results = run_both(config)
    record: Dict[str, Any] = {"scalars": {}, "series": {}}
    scalars = record["scalars"]
    for name, prefix in (("baseline_sdn", "baseline"),
                         ("fastflex", "fastflex")):
        result = results[name]
        scalars.update(_summarize(result, config, prefix))
        record["series"][name] = _series(result)
    if "fastflex_mean_during_attack" in scalars:
        scalars["gap"] = (scalars["fastflex_mean_during_attack"]
                          - scalars["baseline_mean_during_attack"])
    record["per_system_metrics"] = {
        name: results[name].metrics for name in results}
    return record


def _one_system(system: str, prefix: str, seed: int,
                params: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments.figure3 import (advance_world, build_world,
                                       finish_world)
    config = _figure3_config(seed, params)
    world = build_world(system, config)
    advance_world(world)
    result = finish_world(world)
    return {"scalars": _summarize(result, config, prefix),
            "series": {system: _series(result)}}


@register_driver("figure3_baseline")
def figure3_baseline(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """The SDN-TE baseline alone under the rolling LFA."""
    return _one_system("baseline_sdn", "baseline", seed, params)


@register_driver("figure3_fastflex")
def figure3_fastflex(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """FastFlex alone under the rolling LFA."""
    return _one_system("fastflex", "fastflex", seed, params)
