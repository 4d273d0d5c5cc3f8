"""In-place Spectre-PHT (bounds-check bypass), after Google SafeSide.

The victim is the canonical gadget::

    if (x < array1_size)
        y = array2[array1[x] * 512];

The attacker trains the branch with in-bounds ``x``, then supplies an
out-of-bounds ``x`` whose ``array1[x]`` aliases a secret byte in host
memory.  On the mispredicted path the two loads execute speculatively
and the secret-indexed probe line is filled — unless HFI's implicit
data regions reject the first load *before any cache update* (§4.1),
in which case no probe slot ever dips below the hit threshold.

This reproduces the paper's §5.3 experiment and the Fig. 7 latency
plot.
"""

from __future__ import annotations

from ..isa import Mem, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from .harness import DATA_BASE, AttackResult, SpectreHarness

_X_ADDR = DATA_BASE
_SIZE_ADDR = DATA_BASE + 8
_ARRAY1_ADDR = DATA_BASE + 64


class SpectrePhtAttack(SpectreHarness):
    """Builds the victim, trains the PHT, runs the attack, reloads."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False,
                 array1_size: int = 16):
        super().__init__(params, protect_with_hfi)
        self.array1_size = array1_size
        self.space.write(_SIZE_ADDR, array1_size, 8)
        for i in range(array1_size):
            self.space.write(_ARRAY1_ADDR + i, i & 0xFF, 1)
        asm = self.victim_assembler()
        asm.mov(Reg.RBX, Mem(disp=_X_ADDR))          # x
        asm.mov(Reg.RCX, Mem(disp=_SIZE_ADDR))       # array1_size
        asm.cmp(Reg.RBX, Reg.RCX)
        asm.jae("done")                              # bounds check
        asm.mov(Reg.RAX, Mem(base=Reg.RBX, disp=_ARRAY1_ADDR, size=1))
        self.emit_transmit(asm)
        asm.label("done")
        self.emit_exit(asm)
        self.program = asm.assemble()
        self.load(self.program)

    def plant_secret(self, value: int) -> int:
        """Write the secret byte into host memory; returns the
        out-of-bounds x that aliases it through array1."""
        return super().plant_secret(value) - _ARRAY1_ADDR

    def train(self, rounds: int = 8) -> None:
        """Teach the PHT that the bounds check passes."""
        for i in range(rounds):
            self.run_victim({_X_ADDR: i % self.array1_size})

    def attack(self, secret_value: int = ord("I"),
               train_rounds: int = 8) -> AttackResult:
        """Full in-place Spectre-PHT attempt; returns the evidence."""
        oob_x = self.plant_secret(secret_value)
        self.train(train_rounds)
        # The probe is flushed *after* training, so the only warm slot
        # is the one the speculative load filled.
        return self.leak(lambda: self.run_victim({_X_ADDR: oob_x}))
