"""In-place Spectre-BTB (branch target injection), after TransientFail.

The victim dispatches through a function pointer.  The attacker first
makes the pointer target a *disclosure gadget* (training the BTB), then
switches it to a benign target: the BTB still predicts the gadget, so
the gadget runs speculatively and loads a secret-indexed probe line.

Two HFI defences are demonstrated, matching §4.1:

* With the secret outside the sandbox's implicit data regions, the
  gadget's speculative load faults before any cache update.
* With the gadget *outside the code regions*, decode turns its
  micro-ops into a faulting NOP, so it never executes at all — even
  speculatively.

(The paper notes gem5's BTB modelling is too coarse for the raw
TransientFail PoC and models the attack with concrete control flow;
our BTB does predict indirect targets, so we run the real shape.)
"""

from __future__ import annotations

from ..isa import Assembler, Mem, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from .harness import (
    CODE_BASE,
    DATA_BASE,
    SECRET_PTR_ADDR,
    AttackResult,
    SpectreHarness,
)

_GADGET_BASE = 0x48_0000     # separate 64K block: can be excluded from
                             # the code regions to show the fetch defence
_FNPTR_ADDR = DATA_BASE
_DUMMY_ADDR = DATA_BASE + 128   # in-bounds byte the training runs read


class SpectreBtbAttack(SpectreHarness):
    """Builds victim + gadget, trains the BTB, attacks, reloads."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False,
                 gadget_in_code_region: bool = True):
        # Without the gadget, the second code slot covers the victim
        # again: the gadget is not executable.
        super().__init__(params, protect_with_hfi, code_bases=(
            CODE_BASE, _GADGET_BASE if gadget_in_code_region else CODE_BASE))
        self.gadget_in_code_region = gadget_in_code_region
        asm = self.victim_assembler()
        asm.mov(Reg.R8, Mem(disp=_FNPTR_ADDR))
        asm.jmp(Reg.R8)                      # the BTB-predicted dispatch
        asm.label("legit")
        self.emit_exit(asm)
        self.victim = asm.assemble()
        self.legit_addr = self.victim.labels["legit"]

        gadget = Assembler(base=_GADGET_BASE)
        self.emit_gadget(gadget)
        self.emit_exit(gadget)
        self.gadget = gadget.assemble()
        self.load(self.victim, self.gadget)

    def train(self, rounds: int = 6) -> None:
        """Run the dispatch with the gadget as the *architectural*
        target (reading a dummy byte) so the BTB learns it."""
        for _ in range(rounds):
            self.run_victim({_FNPTR_ADDR: self.gadget.base,
                             SECRET_PTR_ADDR: _DUMMY_ADDR})

    def attack(self, secret_value: int = ord("S"),
               train_rounds: int = 6) -> AttackResult:
        secret = self.plant_secret(secret_value)
        self.train(train_rounds)
        # byte 0: the dummy the training runs loaded architecturally
        return self.leak(lambda: self.run_victim(
            {_FNPTR_ADDR: self.legit_addr, SECRET_PTR_ADDR: secret}),
            ignore=(0,))
