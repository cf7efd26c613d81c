"""Quantitative risk scoring: risk = threat probability x damage.

Damage sums objective priority x attack impact over the four operational
objectives.  All arithmetic is integer; scores land in [10, 90].  Scored
attacks are ranked into four pools by configurable descending thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

RISK_MIN, RISK_MAX = 10, 90
DEFAULT_POOL_THRESHOLDS = (70, 50, 30)


class ObjectiveId(Enum):
    PEOPLE_HEALTH_SAFETY = "people_health_safety"
    UNINTERRUPTED_OPERATION = "uninterrupted_operation"
    FINANCIAL_PROFIT = "financial_profit"
    EQUIPMENT_DAMAGE_LEGAL = "equipment_damage_legal"


class Impact(Enum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3


OBJECTIVES = tuple(ObjectiveId)


@dataclass(frozen=True)
class PrioritySet:
    """Objective ranking; values must be a permutation of 1..4 (4 = most critical)."""

    priority: Mapping[ObjectiveId, int]

    def __post_init__(self):
        object.__setattr__(self, "priority", dict(self.priority))
        if set(self.priority) != set(OBJECTIVES):
            raise ValueError("priority must cover exactly the four objectives")
        if sorted(self.priority.values()) != [1, 2, 3, 4]:
            raise ValueError(f"priorities must be a permutation of 1..4, "
                             f"got {sorted(self.priority.values())}")

    def __getitem__(self, objective: ObjectiveId) -> int:
        return self.priority[objective]


@dataclass(frozen=True)
class ImpactVector:
    """Qualitative attack impact per objective (Low/Medium/High)."""

    impact: Mapping[ObjectiveId, Impact]

    def __post_init__(self):
        object.__setattr__(self, "impact", dict(self.impact))
        if set(self.impact) != set(OBJECTIVES):
            raise ValueError("impact must cover exactly the four objectives")
        for obj, val in self.impact.items():
            if not isinstance(val, Impact):
                raise ValueError(f"impact for {obj.value} must be an Impact enum, got {val!r}")

    def __getitem__(self, objective: ObjectiveId) -> Impact:
        return self.impact[objective]


@dataclass(frozen=True)
class ThreatProbability:
    """Likelihood on the ordinal 1..3 (Low/Medium/High) scale."""

    level: int

    def __post_init__(self):
        if self.level not in (1, 2, 3):
            raise ValueError(f"threat probability level must be 1, 2, or 3, got {self.level}")


@dataclass(frozen=True)
class RiskReport:
    damage: int
    risk: int
    per_objective_scores: Mapping[ObjectiveId, int]
    pool: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "per_objective_scores", dict(self.per_objective_scores))


# Default CPES objective ranking: health 4, operation 3, equipment 2, profit 1.
CPES_PRIORITIES = PrioritySet({
    ObjectiveId.PEOPLE_HEALTH_SAFETY: 4,
    ObjectiveId.UNINTERRUPTED_OPERATION: 3,
    ObjectiveId.EQUIPMENT_DAMAGE_LEGAL: 2,
    ObjectiveId.FINANCIAL_PROFIT: 1,
})


def damage(priorities: PrioritySet, impacts: ImpactVector) -> tuple[int, dict[ObjectiveId, int]]:
    """Total damage and the per-objective breakdown (priority x impact)."""
    breakdown = {obj: priorities[obj] * impacts[obj].value for obj in OBJECTIVES}
    return sum(breakdown.values()), breakdown


def risk(probability: ThreatProbability,
         priorities: PrioritySet,
         impacts: ImpactVector,
         thresholds: tuple[int, int, int] = DEFAULT_POOL_THRESHOLDS,
         name: str = "") -> RiskReport:
    """Score one attack: risk = probability level x damage, plus its pool."""
    total, breakdown = damage(priorities, impacts)
    score = probability.level * total
    return RiskReport(damage=total, risk=score, per_objective_scores=breakdown,
                      pool=_pool_of(score, checked_thresholds(thresholds)), name=name)


def pool_rank(reports: Iterable[RiskReport],
              thresholds: tuple[int, int, int] = DEFAULT_POOL_THRESHOLDS) -> list[tuple[str, int]]:
    """Assign pools and rank reports by descending risk score.

    Pool 1 collects scores at or above the top threshold (mitigate at all
    costs); pool 4 collects everything below the lowest (defer, transfer,
    or accept).
    """
    ts = checked_thresholds(thresholds)
    ranked = sorted(reports, key=lambda r: -r.risk)
    return [(r.name, _pool_of(r.risk, ts)) for r in ranked]


def checked_thresholds(thresholds) -> tuple[int, int, int]:
    t = tuple(thresholds)
    if len(t) != 3 or not (t[0] > t[1] > t[2]):
        raise ValueError(f"pool thresholds must be 3 strictly descending values, got {t}")
    if not (RISK_MIN <= t[2] and t[0] <= RISK_MAX):
        raise ValueError(f"pool thresholds must lie within [{RISK_MIN}, {RISK_MAX}], got {t}")
    return t


def _pool_of(score: int, thresholds: tuple[int, int, int]) -> int:
    for i, t in enumerate(thresholds):
        if score >= t:
            return i + 1
    return 4


def report_to_dict(report: RiskReport) -> dict:
    return {
        "name": report.name,
        "damage": report.damage,
        "risk": report.risk,
        "pool": report.pool,
        "per_objective_scores": {obj.value: s for obj, s in report.per_objective_scores.items()},
    }
