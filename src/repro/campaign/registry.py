"""Scenario registry: named, parameterized experiment specs.

A *scenario* is the unit the campaign engine plans and executes: a name, a
set of sweepable axes (each with a default value grid) and a runner that
turns one point of the grid into a JSON-safe result payload::

    @scenario(
        name="pingpong-allocation",
        description="ping-pong latency vs. placement",
        axes={"placement": ("same-blade", "inter-groups"), "message_kib": (4, 16)},
    )
    def run_pingpong(scale, *, placement, message_kib):
        ...
        return {"metrics": {"median": ...}, "data": {...}}

Payload contract (enforced by the executor):

* the payload must be JSON-serializable;
* an optional ``"metrics"`` entry maps flat metric names to numbers — this
  is what the store's CSV export and :func:`repro.analysis.reporting.
  campaign_metrics_table` consume;
* an optional ``"report"`` entry carries the human-readable table text.

The per-figure experiment drivers register themselves through
:func:`register_figure`, which wraps their existing ``run``/``report`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

#: Parameter values must be JSON scalars so spec hashes are stable.
SCALAR_TYPES = (str, int, float, bool, type(None))


class ScenarioError(LookupError):
    """Unknown scenario name or invalid registration.

    Subclasses :class:`LookupError` rather than :class:`KeyError` so that
    ``str(exc)`` is the plain message (``KeyError.__str__`` repr-quotes it,
    which garbles CLI error output).
    """


@dataclass(frozen=True)
class Scenario:
    """A named, parameterized experiment spec."""

    name: str
    description: str
    #: axis name -> tuple of default grid values (JSON scalars).
    axes: Mapping[str, Tuple[object, ...]]
    #: ``runner(scale, **params) -> payload dict`` (JSON-safe).
    runner: Callable[..., Mapping]
    tags: Tuple[str, ...] = ()

    def grid_size(self) -> int:
        """Number of runs the default grid expands to."""
        size = 1
        for values in self.axes.values():
            size *= max(1, len(values))
        return size

    def render_report(self, payload: Mapping) -> str:
        """Human-readable report for one payload: its ``report``, else JSON."""
        report = payload.get("report")
        if isinstance(report, str):
            return report
        import json

        return json.dumps(payload, sort_keys=True, indent=2)


_REGISTRY: Dict[str, Scenario] = {}


def register(spec: Scenario) -> Scenario:
    """Add a scenario to the global registry (duplicate names are an error)."""
    if spec.name in _REGISTRY:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _validate_axes(spec)
    _REGISTRY[spec.name] = spec
    return spec


def _validate_axes(spec: Scenario) -> None:
    for axis, values in spec.axes.items():
        if not isinstance(values, (tuple, list)) or not values:
            raise ScenarioError(
                f"scenario {spec.name!r}: axis {axis!r} needs a non-empty value sequence"
            )
        for value in values:
            if not isinstance(value, SCALAR_TYPES):
                raise ScenarioError(
                    f"scenario {spec.name!r}: axis {axis!r} value {value!r} "
                    "is not a JSON scalar"
                )


def scenario(
    name: str,
    description: str = "",
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    tags: Sequence[str] = (),
) -> Callable[[Callable[..., Mapping]], Callable[..., Mapping]]:
    """Decorator registering a runner function as a scenario."""

    def decorate(runner: Callable[..., Mapping]) -> Callable[..., Mapping]:
        desc = description
        if not desc and runner.__doc__:
            desc = runner.__doc__.strip().splitlines()[0]
        register(
            Scenario(
                name=name,
                description=desc,
                axes={k: tuple(v) for k, v in (axes or {}).items()},
                runner=runner,
                tags=tuple(tags),
            )
        )
        return runner

    return decorate


def register_figure(
    name: str,
    run: Callable,
    report: Callable,
    description: str = "",
    metrics: Optional[Callable[[object], Mapping[str, float]]] = None,
    data: Optional[Callable[[object], Mapping]] = None,
) -> Scenario:
    """Register a per-figure experiment driver as a zero-axis scenario.

    ``run(scale)`` produces the figure's result object; ``report(result)``
    its text table; ``metrics(result)`` (optional) a flat name -> number
    mapping for the CSV export; ``data(result)`` (optional) a JSON-safe
    detail payload.
    """

    def runner(scale, **params):
        result = run(scale)
        payload: Dict[str, object] = {"figure": name, "report": report(result)}
        if metrics is not None:
            payload["metrics"] = {k: float(v) for k, v in metrics(result).items()}
        if data is not None:
            payload["data"] = data(result)
        return payload

    return register(
        Scenario(
            name=name,
            description=description or f"paper experiment {name}",
            axes={},
            runner=runner,
            tags=("figure",),
        )
    )


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ScenarioError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_tags(name: str) -> Tuple[str, ...]:
    """Tags of a registered scenario, or ``()`` for unknown names.

    Tolerant lookup: spec construction must work for scenario names that
    are not (yet) registered — tests and ad hoc scripts build specs for
    toy names — so this never raises.
    """
    spec = _REGISTRY.get(name)
    return spec.tags if spec is not None else ()


def scenario_names(tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered scenario names (optionally filtered by tag), sorted."""
    names = [
        name
        for name, spec in _REGISTRY.items()
        if tag is None or tag in spec.tags
    ]
    return tuple(sorted(names))


def all_scenarios() -> Tuple[Scenario, ...]:
    """All registered scenarios, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())
