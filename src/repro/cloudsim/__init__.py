"""Simulated AWS-like spot cloud substrate.

Substitutes the live cloud the paper measured: a deterministic catalog
(547 instance types, 17 regions, 63 zones), latent capacity processes, and
engines producing the three spot datasets plus real request behaviour, all
behind a quota-enforcing boto3-like client.
"""

from .accounts import Account, AccountPool, make_query_key, DEFAULT_QUERY_QUOTA
from .advisor import AdvisorEngine, AdvisorEntry, bucket_index, bucket_label
from .catalog import (
    Catalog,
    InstanceFamily,
    InstanceType,
    Region,
    default_families,
    default_regions,
    CATEGORIES,
    SIZE_LADDER,
)
from .clock import SimulationClock, PAPER_WINDOW_START, PAPER_WINDOW_DAYS
from .events import CapacityEvent, JUNE_2_EVENT, default_events
from .ec2_api import Ec2Client, SimulatedCloud, MAX_SPS_RESULTS
from .errors import (
    CloudError,
    CredentialExpiredError,
    InternalServerError,
    QuotaExceededError,
    RequestNotFoundError,
    RequestTimeoutError,
    ThrottlingError,
    TransientError,
    UnknownInstanceTypeError,
    UnknownRegionError,
    UnsupportedOfferingError,
    ValidationError,
)
from .faults import (
    CHAOS_PROFILES,
    ChaosProfile,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultWindow,
    InjectedFault,
    make_fault,
    resolve_profile,
)
from .lifecycle import (
    LifecycleEvent,
    RequestSimulator,
    RequestState,
    SpotRequest,
    STATE_DESCRIPTIONS,
    ALLOWED_TRANSITIONS,
)
from .market import SpotMarket, reclaim_ratio_from_u
from .placement import PlacementScore, PlacementScoreEngine
from .pricing import PricePoint, PricingEngine

__all__ = [
    "Account", "AccountPool", "make_query_key", "DEFAULT_QUERY_QUOTA",
    "AdvisorEngine", "AdvisorEntry", "bucket_index", "bucket_label",
    "Catalog", "InstanceFamily", "InstanceType", "Region",
    "default_families", "default_regions", "CATEGORIES", "SIZE_LADDER",
    "SimulationClock", "PAPER_WINDOW_START", "PAPER_WINDOW_DAYS",
    "CapacityEvent", "JUNE_2_EVENT", "default_events",
    "Ec2Client", "SimulatedCloud", "MAX_SPS_RESULTS",
    "CloudError", "QuotaExceededError", "RequestNotFoundError",
    "UnknownInstanceTypeError", "UnknownRegionError",
    "UnsupportedOfferingError", "ValidationError",
    "CredentialExpiredError", "InternalServerError", "RequestTimeoutError",
    "ThrottlingError", "TransientError",
    "CHAOS_PROFILES", "ChaosProfile", "FAULT_KINDS", "FaultInjector",
    "FaultPlan", "FaultWindow", "InjectedFault", "make_fault",
    "resolve_profile",
    "LifecycleEvent", "RequestSimulator", "RequestState", "SpotRequest",
    "STATE_DESCRIPTIONS", "ALLOWED_TRANSITIONS",
    "SpotMarket", "reclaim_ratio_from_u",
    "PlacementScore", "PlacementScoreEngine",
    "PricePoint", "PricingEngine",
]
