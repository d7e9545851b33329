"""Study orchestration: configuration presets, the staged pipeline
(world construction → measurement platform → campaign execution),
sharded/multiprocess campaign execution, and the results bundle the
analysis layer consumes.
"""

from repro.core.config import StudyConfig
from repro.core.pipeline import (
    PlatformArtifacts,
    StudyPipeline,
    WorldArtifacts,
    build_platform,
    build_world,
    clear_world_cache,
    shard_vp_lists,
)
from repro.core.results import StudyResults

__all__ = [
    "StudyConfig",
    "StudyResults",
    "StudyPipeline",
    "WorldArtifacts",
    "PlatformArtifacts",
    "build_world",
    "build_platform",
    "clear_world_cache",
    "shard_vp_lists",
]
