"""A-DARTS core: ModelRace selection, soft voting, and the public facade."""

from repro.core.config import ModelRaceConfig
from repro.core.modelrace import IterationRecord, ModelRace, RaceResult
from repro.core.voting import SoftVotingEnsemble, MajorityVotingEnsemble
from repro.core.adarts import ADarts, Recommendation
from repro.core.serialization import (
    export_engine,
    import_engine,
    load_engine,
    save_engine,
)

__all__ = [
    "ModelRaceConfig",
    "ModelRace",
    "RaceResult",
    "IterationRecord",
    "SoftVotingEnsemble",
    "MajorityVotingEnsemble",
    "ADarts",
    "Recommendation",
    "export_engine",
    "import_engine",
    "load_engine",
    "save_engine",
]
