"""Study orchestration: configuration presets, the staged pipeline
(world construction → measurement platform → campaign execution),
sharded/multiprocess campaign execution, and the results bundle the
analysis layer consumes.

The names below resolve on first access: importing the package (or
``repro.core.config`` through it) does not load the campaign stack, so
an analysis-only process that rebuilds a dataset's ``StudyConfig``
never imports the pipeline, the route selector or the epoch engine.
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "StudyConfig": "repro.core.config",
    "StudyResults": "repro.core.results",
    "StudyPipeline": "repro.core.pipeline",
    "WorldArtifacts": "repro.core.pipeline",
    "PlatformArtifacts": "repro.core.pipeline",
    "build_world": "repro.core.pipeline",
    "build_platform": "repro.core.pipeline",
    "clear_world_cache": "repro.core.pipeline",
    "shard_vp_lists": "repro.core.pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = globals()[name] = getattr(import_module(module), name)
    return value
