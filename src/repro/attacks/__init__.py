"""Spectre attack suite (SafeSide / TransientFail analogues, §5.3)."""

from .harness import AttackResult, SpectreHarness
from .spectre_btb import SpectreBtbAttack
from .spectre_pht import SpectrePhtAttack
from .spectre_rsb import SpectreRsbAttack

#: Attack kind -> PoC class, as ``repro-hfi attack`` names them.
ATTACKS = {"pht": SpectrePhtAttack, "btb": SpectreBtbAttack,
           "rsb": SpectreRsbAttack}

__all__ = [
    "AttackResult", "SpectreHarness", "SpectrePhtAttack",
    "SpectreBtbAttack", "SpectreRsbAttack", "ATTACKS",
]
