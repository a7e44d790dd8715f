"""The paper's delay models: lumped RC, RC tree (Elmore + RPH), slope."""

from .base import DelayModel, StageDelay, StageRequest, default_step_slope_factor
from .lumped_rc import LumpedRCModel
from .rc_tree_model import RCTreeModel
from .slope import SlopeModel
from .characterize import (
    CharacterizationPoint,
    CharacterizationResult,
    Fixture,
    characterize_fixture,
    characterize_technology,
    clear_cache,
    fit_technology,
    fixtures_for,
    table_summary,
)

ALL_MODELS = (LumpedRCModel, RCTreeModel, SlopeModel)

#: Delay-model classes by name (the CLI's ``--model``, the service's
#: ``model`` field, the conformance runner's model under test).
MODELS = {model.name: model for model in ALL_MODELS}


def standard_models():
    """Fresh instances of the three models, in the paper's order."""
    return [LumpedRCModel(), RCTreeModel(), SlopeModel()]


__all__ = [
    "DelayModel",
    "StageDelay",
    "StageRequest",
    "default_step_slope_factor",
    "LumpedRCModel",
    "RCTreeModel",
    "SlopeModel",
    "CharacterizationPoint",
    "CharacterizationResult",
    "Fixture",
    "characterize_fixture",
    "characterize_technology",
    "clear_cache",
    "fit_technology",
    "fixtures_for",
    "table_summary",
    "ALL_MODELS",
    "MODELS",
    "standard_models",
]
