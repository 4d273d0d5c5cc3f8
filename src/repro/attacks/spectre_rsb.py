"""Spectre-RSB: return-address mispredictions as the speculation source.

Beyond the paper's PHT/BTB evaluation (§5.3), SafeSide also ships RSB
variants; since our CPU models a return-stack buffer, we reproduce the
in-place shape:

The victim function *switches stacks* before returning, so the
architectural return target differs from the RSB's prediction (the
instruction after the call site).  The attacker arranges a disclosure
gadget at exactly that predicted location: it runs speculatively,
loads a secret-indexed probe line, and flush+reload recovers the byte.
HFI regions block the gadget's secret load the same way as for
PHT/BTB — before any cache fill.
"""

from __future__ import annotations

from ..isa import Imm, Mem, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from .harness import SECRET_PTR_ADDR, AttackResult, SpectreHarness


class SpectreRsbAttack(SpectreHarness):
    """Builds the stack-switching victim and runs the leak."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False):
        super().__init__(params, protect_with_hfi)
        asm = self.victim_assembler()
        asm.call("victim")
        self.emit_gadget(asm)            # at the *predicted* return
        self.emit_exit(asm)
        asm.label("landing")             # the architectural return
        self.emit_exit(asm)
        asm.label("victim")
        # overwrite the return address: the RSB still predicts the
        # gadget address (call site + 1)
        asm.mov(Reg.R8, Imm(0))          # patched to 'landing'
        asm.mov(Mem(base=Reg.RSP), Reg.R8)
        asm.ret()
        self.program = asm.assemble()
        patch = next(ins for ins in self.program.instructions
                     if ins.label == "victim")
        patch.operands = (Reg.R8, Imm(self.program.labels["landing"]))
        self.load(self.program)

    def attack(self, secret_value: int = ord("R")) -> AttackResult:
        secret = self.plant_secret(secret_value)
        return self.leak(lambda: self.run_victim({SECRET_PTR_ADDR: secret}))
