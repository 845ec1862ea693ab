"""Global experiment registry.

Specs register themselves at import time of their defining module
(:mod:`repro.expts.paper` for the paper's figures); consumers call
:func:`ensure_loaded` once and then look specs up by id.  The registry
preserves registration order, which is the section order of ``RESULTS.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.expts.specs import ExperimentSpec, SpecError

_REGISTRY: "dict[str, ExperimentSpec]" = {}
_LOADED = False
_LOAD_ERROR: "Exception | None" = None


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry; duplicate ids are a hard error.

    Returns the spec so definitions can use ``SPEC = register(ExperimentSpec(...))``.
    """
    if spec.spec_id in _REGISTRY:
        raise SpecError(f"experiment {spec.spec_id!r} is already registered")
    _REGISTRY[spec.spec_id] = spec
    return spec


def ensure_loaded() -> None:
    """Import the built-in spec definitions exactly once (idempotent).

    A failed import is remembered and re-raised on every later call, so a
    broken spec module cannot degrade into a silently empty registry.
    """
    global _LOADED, _LOAD_ERROR
    if _LOADED:
        return
    if _LOAD_ERROR is not None:
        raise RuntimeError(
            "experiment spec definitions failed to import earlier in this "
            "process") from _LOAD_ERROR
    try:
        import repro.expts.paper  # noqa: F401  (registers on import)
    except Exception as error:
        _LOAD_ERROR = error
        raise
    _LOADED = True


def get(spec_id: str) -> ExperimentSpec:
    """Look up one spec by id; raise :class:`KeyError` listing known ids."""
    ensure_loaded()
    try:
        return _REGISTRY[spec_id]
    except KeyError:
        raise KeyError(f"unknown experiment {spec_id!r}; known: "
                       f"{sorted(_REGISTRY)}") from None


def all_specs() -> "list[ExperimentSpec]":
    """Every registered spec, in registration (= paper section) order."""
    ensure_loaded()
    return list(_REGISTRY.values())


def select(only: Optional[str] = None) -> "list[ExperimentSpec]":
    """Specs whose id contains ``only`` (all specs when ``only`` is falsy)."""
    specs = all_specs()
    if not only:
        return specs
    return [spec for spec in specs if only in spec.spec_id]


def spec_ids() -> "list[str]":
    """Registered spec ids, in registration order."""
    return [spec.spec_id for spec in all_specs()]

