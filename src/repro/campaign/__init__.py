"""Durable, crash-tolerant experiment campaigns (ROADMAP item 5).

The layer every figure/ablation sweep runs through when partial
progress must survive: each grid point appends one schema-validated,
byte-deterministic record to an append-only JSONL store
(:class:`CampaignStore`), the :class:`CampaignRunner` skips stored
points on restart and records exhausted failures fail-soft, and the
query module re-derives the paper tables — plus cross-campaign metric
history — from the store alone. See ``docs/campaign.md``.
"""

from repro.campaign.codec import (
    canonical_json,
    content_key,
    decode_value,
    encode_value,
    point_key,
)
from repro.campaign.query import (
    CampaignStatus,
    counter_history,
    cross_campaign_totals,
    ratio_history,
    report,
    rows,
    status,
)
from repro.campaign.records import (
    SCHEMA_VERSION,
    encode_record,
    make_record,
    validate_record,
)
from repro.campaign.registry import (
    campaign_names,
    campaign_specs,
    get_campaign,
)
from repro.campaign.runner import CampaignRunner, CampaignSummary
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, RepairReport

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "CampaignStore",
    "CampaignSummary",
    "RepairReport",
    "SCHEMA_VERSION",
    "campaign_names",
    "campaign_specs",
    "canonical_json",
    "content_key",
    "counter_history",
    "cross_campaign_totals",
    "decode_value",
    "encode_record",
    "encode_value",
    "get_campaign",
    "make_record",
    "point_key",
    "ratio_history",
    "report",
    "rows",
    "status",
    "validate_record",
]
