"""The campaign registry: every experiment's published spec.

Collected lazily from ``repro.experiments.EXPERIMENTS`` — each
experiment module publishes a module-level ``CAMPAIGN``
:class:`~repro.campaign.spec.CampaignSpec`. The import happens inside
the functions, not at module import, and :func:`get_campaign` loads
only the named experiment's module, so ``repro.campaign`` never drags
the whole experiment suite into processes that only touch the store or
sweep one spec.
"""

from __future__ import annotations

from typing import Dict

from repro.campaign.spec import CampaignSpec

__all__ = ["campaign_names", "campaign_specs", "get_campaign"]


def campaign_specs() -> Dict[str, CampaignSpec]:
    """Every experiment's spec, keyed by experiment name."""
    from repro.experiments import EXPERIMENTS

    return {name: module.CAMPAIGN for name, module in EXPERIMENTS.items()}


def campaign_names() -> list:
    """Sorted names of every experiment."""
    from repro.experiments import EXPERIMENTS

    return sorted(EXPERIMENTS)


def get_campaign(name: str) -> CampaignSpec:
    """The spec of one experiment; ``KeyError`` names the options.

    Imports only that experiment's module.
    """
    from repro.experiments import EXPERIMENTS

    if name not in EXPERIMENTS:
        known = ", ".join(campaign_names())
        raise KeyError(f"unknown campaign {name!r}; known: {known}")
    return EXPERIMENTS[name].CAMPAIGN
