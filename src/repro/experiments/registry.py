"""The experiment registry: one name per scenario, one API for all of them.

Attack and wild modules register their experiment classes with the
:func:`register` decorator::

    @register("rtbh-wild")
    class WildRtbhExperiment(Experiment):
        parameters = (Param("probes", 100, "int", minimum=1), ...)
        ...

and every consumer (CLI, grid runner, notebooks) resolves names through
:func:`get`/:func:`available`.  A registered class carries its own
parameter table, so the CLI's ``list`` and known-name check, the grid's
pre-run check and the run itself all read the same declarations.  The built-in experiment modules are
imported lazily on first lookup so importing :mod:`repro.experiments`
stays cheap and free of import cycles.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from repro.exceptions import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.result import ExperimentResult
    from repro.experiments.runner import Experiment
    from repro.experiments.spec import ExperimentSpec

_REGISTRY: dict[str, type["Experiment"]] = {}

#: Modules that register the built-in experiments at import time.
_BUILTIN_MODULES = (
    "repro.attacks.feasibility",
    "repro.attacks.rtbh",
    "repro.attacks.steering",
    "repro.attacks.manipulation",
    "repro.wild.propagation_check",
    "repro.wild.blackhole_sweep",
    "repro.wild.experiments",
    "repro.experiments.builtin",
)
_builtins_loaded = False


def register(name: str) -> Callable[[type["Experiment"]], type["Experiment"]]:
    """Class decorator registering an experiment under ``name``."""

    def decorator(cls: type["Experiment"]) -> type["Experiment"]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ExperimentError(
                f"experiment name {name!r} is already registered by {existing.__name__}"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Mark loaded only after every import succeeded: a failing builtin
    # module must surface its real ImportError on the next lookup too,
    # not a misleading "unknown experiment" from a half-filled registry.
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def get(name: str) -> type["Experiment"]:
    """Look up a registered experiment class by name."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(available())}"
        ) from None


def available() -> list[str]:
    """The sorted names of every registered experiment."""
    _load_builtins()
    return sorted(_REGISTRY)


def run_experiment(spec: "ExperimentSpec") -> "ExperimentResult":
    """Resolve ``spec.name`` in the registry and drive the full lifecycle."""
    return get(spec.name)(spec).run()
