"""Adversary and attack taxonomy for CPES security studies.

Every taxonomy attribute is held as a non-empty set of enum members so that
disjunctive characterizations ("Class I or II", "L1 or L2") are first-class
rather than being normalized away.  Four built-in presets describe the attack
case studies shipped with the scenario presets.  ``to_dict`` writes a model as
a JSON document, and ``scenario.parse_threat`` reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

SCHEMA_VERSION = 1


class Knowledge(Enum):
    STRONG = "strong"
    LIMITED = "limited"
    OBLIVIOUS = "oblivious"


class Access(Enum):
    POSSESSION = "possession"
    NON_POSSESSION = "non_possession"


class Specificity(Enum):
    TARGETED = "targeted"
    NON_TARGETED = "non_targeted"


class Resources(Enum):
    CLASS_I = "class_i"
    CLASS_II = "class_ii"


class Frequency(Enum):
    ITERATIVE = "iterative"
    NON_ITERATIVE = "non_iterative"


class Reproducibility(Enum):
    ONE_TIME = "one_time"
    MULTIPLE_TIMES = "multiple_times"


class FunctionalLevel(Enum):
    L0 = "l0"
    L1 = "l1"
    L2 = "l2"


class Asset(Enum):
    FIELD_CONTROLLER = "field_controller"
    CONTROL_SERVER = "control_server"
    SAFETY_INSTRUMENTED_SYSTEM = "safety_instrumented_system"
    ENGINEERING_WORKSTATION = "engineering_workstation"
    DATA_HISTORIAN = "data_historian"
    HMI = "hmi"
    IO_SERVER = "io_server"


class Technique(Enum):
    MODIFY_CONTROL_LOGIC = "modify_control_logic"
    WIRELESS_COMPROMISE = "wireless_compromise"
    ENGINEERING_WORKSTATION_COMPROMISE = "engineering_workstation_compromise"
    DOS = "dos"
    MITM = "mitm"
    SPOOF_REPORTING = "spoof_reporting"
    MODULE_FIRMWARE = "module_firmware"
    ROOTKIT = "rootkit"


class Premise(Enum):
    """Domain premise of the compromise: cyber sub-targets or physical access class."""

    CYBER_COMMUNICATIONS_PROTOCOLS = "cyber_communications_protocols"
    CYBER_ASSET_CONTROL_COMMANDS = "cyber_asset_control_commands"
    CYBER_DATA_STORAGE = "cyber_data_storage"
    PHYSICAL_INVASIVE = "physical_invasive"
    PHYSICAL_NON_INVASIVE = "physical_non_invasive"
    PHYSICAL_SEMI_INVASIVE = "physical_semi_invasive"


@dataclass(frozen=True)
class AdversaryModel:
    """Who attacks: knowledge, access, specificity, and resource class."""

    knowledge: frozenset[Knowledge]
    access: frozenset[Access]
    specificity: frozenset[Specificity]
    resources: frozenset[Resources]

    def __post_init__(self):
        for name in ADVERSARY_FIELDS:
            object.__setattr__(self, name, frozenset(getattr(self, name)))


@dataclass(frozen=True)
class AttackModel:
    """How the attack works: frequency, reproducibility, level, asset, technique, premise."""

    frequency: frozenset[Frequency]
    reproducibility: frozenset[Reproducibility]
    functional_level: frozenset[FunctionalLevel]
    asset: frozenset[Asset]
    technique: frozenset[Technique]
    premise: frozenset[Premise]

    def __post_init__(self):
        for name in ATTACK_FIELDS:
            object.__setattr__(self, name, frozenset(getattr(self, name)))


@dataclass(frozen=True)
class ThreatModel:
    name: str
    adversary: AdversaryModel
    attack: AttackModel
    notes: str = ""


ADVERSARY_FIELDS = {
    "knowledge": Knowledge,
    "access": Access,
    "specificity": Specificity,
    "resources": Resources,
}
ATTACK_FIELDS = {
    "frequency": Frequency,
    "reproducibility": Reproducibility,
    "functional_level": FunctionalLevel,
    "asset": Asset,
    "technique": Technique,
    "premise": Premise,
}


def validate(tm: ThreatModel) -> list[str]:
    """Check a threat model; returns a list of violations (empty when ok).

    The one rule: an invasive or semi-invasive physical premise requires the
    adversary to hold possession-level access.  ``scenario.parse_threat``
    already rejects an empty attribute set or a foreign member at load.
    """
    intrusive = {Premise.PHYSICAL_INVASIVE, Premise.PHYSICAL_SEMI_INVASIVE}
    if intrusive & set(tm.attack.premise) and Access.POSSESSION not in tm.adversary.access:
        return ["invasive requires possession: attack.premise includes an "
                "invasive/semi-invasive physical premise but adversary.access "
                "does not include possession"]
    return []


_PRESETS = {tm.name: tm for tm in (
    ThreatModel(
        name="cross_layer_firmware",
        adversary=AdversaryModel(
            knowledge={Knowledge.OBLIVIOUS},
            access={Access.POSSESSION},
            specificity={Specificity.NON_TARGETED},
            resources={Resources.CLASS_I, Resources.CLASS_II},
        ),
        attack=AttackModel(
            frequency={Frequency.ITERATIVE},
            reproducibility={Reproducibility.MULTIPLE_TIMES},
            functional_level={FunctionalLevel.L1},
            asset={Asset.FIELD_CONTROLLER},
            technique={Technique.MODIFY_CONTROL_LOGIC},
            premise={Premise.PHYSICAL_INVASIVE, Premise.PHYSICAL_NON_INVASIVE,
                     Premise.CYBER_ASSET_CONTROL_COMMANDS},
        ),
        notes="Firmware tampering on an inverter controller; impact propagates "
              "from the device layer to microgrid operation.",
    ),
    ThreatModel(
        name="load_changing",
        adversary=AdversaryModel(
            knowledge={Knowledge.LIMITED, Knowledge.OBLIVIOUS},
            access={Access.NON_POSSESSION},
            specificity={Specificity.TARGETED},
            resources={Resources.CLASS_II},
        ),
        attack=AttackModel(
            frequency={Frequency.ITERATIVE},
            reproducibility={Reproducibility.MULTIPLE_TIMES},
            functional_level={FunctionalLevel.L1, FunctionalLevel.L2},
            asset={Asset.FIELD_CONTROLLER, Asset.HMI},
            technique={Technique.MODIFY_CONTROL_LOGIC, Technique.WIRELESS_COMPROMISE},
            premise={Premise.CYBER_COMMUNICATIONS_PROTOCOLS,
                     Premise.CYBER_ASSET_CONTROL_COMMANDS},
        ),
        notes="Coordinated demand manipulation of IoT-controllable high-wattage loads.",
    ),
    ThreatModel(
        name="time_delay",
        adversary=AdversaryModel(
            knowledge={Knowledge.OBLIVIOUS},
            access={Access.NON_POSSESSION},
            specificity={Specificity.TARGETED},
            resources={Resources.CLASS_I, Resources.CLASS_II},
        ),
        attack=AttackModel(
            frequency={Frequency.ITERATIVE},
            reproducibility={Reproducibility.MULTIPLE_TIMES},
            functional_level={FunctionalLevel.L1},
            asset={Asset.CONTROL_SERVER},
            technique={Technique.WIRELESS_COMPROMISE, Technique.MITM,
                       Technique.SPOOF_REPORTING, Technique.DOS},
            premise={Premise.CYBER_COMMUNICATIONS_PROTOCOLS},
        ),
        notes="Delays measurements or control commands in transit; availability attack.",
    ),
    ThreatModel(
        name="td_propagation",
        adversary=AdversaryModel(
            knowledge={Knowledge.STRONG},
            access={Access.POSSESSION},
            specificity={Specificity.TARGETED},
            resources={Resources.CLASS_II},
        ),
        attack=AttackModel(
            frequency={Frequency.NON_ITERATIVE},
            reproducibility={Reproducibility.ONE_TIME},
            functional_level={FunctionalLevel.L2},
            asset={Asset.ENGINEERING_WORKSTATION},
            technique={Technique.ENGINEERING_WORKSTATION_COMPROMISE},
            premise={Premise.CYBER_ASSET_CONTROL_COMMANDS},
        ),
        notes="Breaker control compromise propagating between transmission and "
              "distribution sections.",
    ),
)}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ThreatModel:
    """One of the four built-in case-study threat models, shared: it is frozen."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown threat preset {name!r}; expected one of {PRESET_NAMES}")


def to_dict(tm: ThreatModel) -> dict:
    """JSON-ready dict; enum sets become sorted lists of lower_snake_case values."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": tm.name,
        "adversary": {f: sorted(m.value for m in getattr(tm.adversary, f))
                      for f in ADVERSARY_FIELDS},
        "attack": {f: sorted(m.value for m in getattr(tm.attack, f))
                   for f in ATTACK_FIELDS},
        "notes": tm.notes,
    }
