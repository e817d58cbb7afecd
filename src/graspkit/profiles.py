"""Dataset profiles bundling every published hyperparameter.

Selecting a profile fixes the orientation class count, downsample ratio,
grouping thresholds, evaluation rectangle height and whitening statistics,
so no constant hides in call sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import AJD_STATS, CORNELL_STATS, ChannelStats
from .grouper import GroupingThresholds


@dataclass(frozen=True)
class Profile:
    name: str
    num_classes: int
    downsample_ratio: int
    thresholds: GroupingThresholds
    eval_height: float
    channel_stats: ChannelStats


CORNELL = Profile(
    name="cornell",
    num_classes=18,
    downsample_ratio=4,
    thresholds=GroupingThresholds(rho_embed=1.0, rho_cen=0.05, tau_orient=0.24),
    eval_height=23.33,
    channel_stats=CORNELL_STATS,
)

AJD = Profile(
    name="ajd",
    num_classes=36,
    downsample_ratio=4,
    thresholds=GroupingThresholds(rho_embed=0.65, rho_cen=0.15, tau_orient=0.1745),
    eval_height=20.0,
    channel_stats=AJD_STATS,
)

PROFILES = {"cornell": CORNELL, "ajd": AJD}


def get_profile(name):
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None
