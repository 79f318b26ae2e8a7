"""Routing policy: community actions, propagation policies, filters, vendor profiles."""

from repro.policy.actions import (
    ActionType,
    CommunityAction,
    PrependAction,
    LocalPrefAction,
    BlackholeAction,
    SelectiveAnnounceAction,
    SuppressAction,
    LocationTagAction,
    NoopInformationalAction,
)
from repro.policy.community_policy import (
    CommunityPropagationPolicy,
    ForwardAllPolicy,
    StripAllPolicy,
    StripOwnPolicy,
    SelectivePolicy,
    PropagationBehavior,
)
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.filters import PrefixFilter, IrrDatabase, IrrRoute, MaxPrefixLengthFilter
from repro.policy.vendor import VendorProfile, CISCO_PROFILE, JUNIPER_PROFILE

__all__ = [
    "ActionType",
    "CommunityAction",
    "PrependAction",
    "LocalPrefAction",
    "BlackholeAction",
    "SelectiveAnnounceAction",
    "SuppressAction",
    "LocationTagAction",
    "NoopInformationalAction",
    "CommunityPropagationPolicy",
    "ForwardAllPolicy",
    "StripAllPolicy",
    "StripOwnPolicy",
    "SelectivePolicy",
    "PropagationBehavior",
    "CommunityServiceCatalog",
    "ServiceDefinition",
    "PrefixFilter",
    "IrrDatabase",
    "IrrRoute",
    "MaxPrefixLengthFilter",
    "VendorProfile",
    "CISCO_PROFILE",
    "JUNIPER_PROFILE",
]
