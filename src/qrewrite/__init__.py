"""Small quantum circuit IR with verified equivalence rewrites, an exact
simulator, and replays of the teleportation / dense coding / gate
teleportation derivations."""

from .circuit import (
    Circuit,
    CircuitError,
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Instruction,
    Measure,
    ParseError,
    PrepDecl,
    WireRef,
    circuit,
    parse,
    prep_bell,
    prep_plus,
    prep_zero,
    serialize,
    validate,
    wires,
)
from .engine import (
    DerivationTrace,
    Match,
    RewriteError,
    VerificationError,
    defer_measurements,
    find_matches,
    match,
    rewrite_at,
    simplify,
)
from .equivalence import (
    EquivalenceError,
    channel_equal,
    distinguishing_probe,
    oracle_equal,
    unitary_equal,
)
from .rules import CATALOG_IDS, RULES, STRUCTURAL_IDS
from .scenarios import DERIVATION_NAMES, SCENARIO_NAMES, derive, make
from .sim import (
    Branch,
    Channel,
    SimulationError,
    apply_gate,
    build_unitary,
    channel_of_deferred,
    extract_channel,
    run,
    unitary_channel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
