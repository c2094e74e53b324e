"""Named protocol circuits and their scripted, verified derivations.

`make` builds the library circuits (swap variants, Bell generator/decoder,
teleportation, dense coding, gate teleportation, the chi resource state).
`derive` replays a derivation as a pinned sequence of rewrite steps, each
checked for channel equality against the starting circuit, ending in a
circuit structurally equal to the corresponding `make` target.
"""
from __future__ import annotations

from .circuit import Circuit, parse
from .engine import DerivationTrace, Match, VerificationError, apply_steps, match

_SOURCES: dict[str, str] = {
    # three alternating CNOTs implement the XOR swap
    "XorSwap": """
        qubits 2
        cbits 0
        INPUT q0
        INPUT q1
        CNOT q0 q1
        CNOT q1 q0
        CNOT q0 q1
    """,
    # same swap with the roles of the two registers exchanged
    "AltSwap": """
        qubits 2
        cbits 0
        INPUT q0
        INPUT q1
        CNOT q1 q0
        CNOT q0 q1
        CNOT q1 q0
    """,
    "BellGenerator": """
        qubits 2
        cbits 0
        H q0
        CNOT q0 q1
    """,
    "BellDecoder": """
        qubits 2
        cbits 0
        CNOT q0 q1
        H q0
    """,
    "Teleportation": """
        qubits 3
        cbits 2
        INPUT q0
        BELL q1 q2
        CNOT q0 q1
        H q0
        MEASURE q0 c0
        MEASURE q1 c1
        CX c1 q2
        CZC c0 q2
    """,
    # encode two classical bits onto one half of a shared Bell pair
    "DenseEncode": """
        qubits 4
        cbits 2
        INPUT q0
        INPUT q1
        BELL q2 q3
        MEASURE q0 c0
        MEASURE q1 c1
        CX c1 q2
        CZC c0 q2
    """,
    "DenseFull": """
        qubits 4
        cbits 2
        INPUT q0
        INPUT q1
        BELL q2 q3
        MEASURE q0 c0
        MEASURE q1 c1
        CX c1 q2
        CZC c0 q2
        CNOT q2 q3
        H q2
    """,
    "GateTeleportation": """
        qubits 6
        cbits 4
        INPUT q0
        INPUT q3
        BELL q1 q2
        BELL q4 q5
        CNOT q2 q5
        CNOT q0 q1
        H q0
        MEASURE q0 c0
        MEASURE q1 c1
        CX c1 q2
        CX c1 q5
        CZC c0 q2
        CNOT q3 q4
        H q3
        MEASURE q3 c2
        MEASURE q4 c3
        CX c3 q5
        CZC c2 q2
        CZC c2 q5
    """,
    # chi = CNOT applied between two Bell pairs
    "Chi": """
        qubits 4
        cbits 0
        BELL q0 q1
        BELL q2 q3
        CNOT q1 q2
    """,
}

SCENARIO_NAMES = tuple(_SOURCES)
DERIVATION_NAMES = ("TeleportFromTransfer", "DenseFromCopy", "GateTeleportFromTeleport")


def make(name: str) -> Circuit:
    """Build a library circuit by name."""
    if name not in _SOURCES:
        raise KeyError(f"unknown scenario {name!r}")
    return parse(_SOURCES[name])


# ----------------------------------------------------------------------
# Derivation scripts
# ----------------------------------------------------------------------

# Teleportation from the two-register state transfer circuit: the swap with
# a |0> lower input loses its first CNOT, the remaining transfer CNOT is
# distributed through a |+> ancilla, the ancilla pair folds into a Bell
# pair, and the trailing erasure CNOT becomes measurement plus classically
# controlled corrections.
_TELEPORT_START = """
    qubits 3
    cbits 2
    INPUT q0
    PREP q1 +
    PREP q2 0
    DISCARD q0
    DISCARD q1
    CNOT q2 q0
    CNOT q0 q2
    CNOT q2 q0
"""

_TELEPORT_STEPS: list[Match] = [
    match("R1_ControlZero", "forward", (0,), {"c": 2, "t": 0}, "CNOT"),
    match("R5_DistributeCNOT", "forward", (0,), {"c": 0, "t": 2, "a": 1}, "i"),
    match("R1_TargetPlus", "forward", (0,), {"c": 0, "t": 1}),
    match("BellPrepFold", "forward", (0,), {"a": 1, "b": 2}, "plus"),
    match("R2_CNOTviaCZ", "forward", (2,), {"c": 2, "t": 0}),
    match("R2_CZFlip", "forward", (3,), {"a": 2, "b": 0}),
    match("DiscardedWireTail", "forward", (4,), {"w": 0}, "H"),
    match("MeasureDiscarded", "forward", (4,), {"w": 0, "r": 0}),
    match("MeasureDiscarded", "forward", (5,), {"w": 1, "r": 1}),
    match("R3_DeferMeasure", "backward", (3, 4), {"m": 0, "t": 2, "r": 0}, "cZ"),
    match("R3_DeferMeasure", "backward", (1, 5), {"m": 1, "t": 2, "r": 1}, "cX"),
    match("Commute", "forward", (2,)),
    match("Commute", "forward", (1,)),
    match("Commute", "forward", (3,)),
    match("Commute", "forward", (2,)),
]

# Dense coding from the two-CNOT copy circuit: one copy CNOT becomes
# H/CZ/H, an identity CNOT is inserted on the |+> wire, the parallel pair
# goes to lambda form, the outer CNOT slides through the CZ, the leading
# H+CNOT fold into a Bell prep, and measurements plus classical controls
# replace the quantum-controlled encoder.
_DENSE_START = """
    qubits 4
    cbits 2
    INPUT q0
    INPUT q1
    DISCARD q0
    DISCARD q1
    PREP q2 0
    PREP q3 0
    CNOT q0 q2
    CNOT q1 q3
"""

_DENSE_STEPS: list[Match] = [
    match("R2_CNOTviaCZ", "forward", (0,), {"c": 0, "t": 2}),
    match("R1_TargetPlus", "backward", (1,), {"c": 1, "t": 2}),
    match("R7_ParallelToLambda", "forward", (1, 4), {"c": 1, "t1": 2, "t2": 3}),
    match(
        "CzControlCommute", "forward", (3, 4), {"a": 2, "t": 3, "x": 0, "y": 2},
        "cnot_first",
    ),
    match("BellPrepFold", "forward", (0, 1), {"a": 2, "b": 3}, "hcnot"),
    match("MeasureDiscarded", "forward", (4,), {"w": 1, "r": 1}),
    match("R3_DeferMeasure", "backward", (0, 4), {"m": 1, "t": 2, "r": 1}, "cX"),
    match("MeasureDiscarded", "forward", (5,), {"w": 0, "r": 0}),
    match("R3_DeferMeasure", "backward", (2, 5), {"m": 0, "t": 2, "r": 0}, "cZ"),
    match("Commute", "forward", (1,)),
    match("Commute", "forward", (0,)),
]

# Gate teleportation from two all-CNOT teleportation stages followed by a
# CNOT between their outputs: the trailing CNOT mirrors backwards through
# the chained CNOTs until it acts directly on the Bell pairs, leaving two
# residual long CNOTs that become the crossed corrections; the erasure
# CNOTs then convert to measurements with classically controlled gates.
_GATETELEPORT_START = """
    qubits 6
    cbits 4
    INPUT q0
    INPUT q3
    BELL q1 q2
    BELL q4 q5
    DISCARD q0
    DISCARD q1
    DISCARD q3
    DISCARD q4
    CNOT q0 q1
    CNOT q1 q2
    CNOT q2 q0
    CNOT q3 q4
    CNOT q4 q5
    CNOT q5 q3
    CNOT q2 q5
"""

_GATETELEPORT_STEPS: list[Match] = [
    match("R6_CNOTMirror", "forward", (5, 6), {"a": 2, "b": 5, "c": 3}, "B1"),
    match("TargetsCommute", "forward", (4, 5), {"a": 4, "b": 2, "t": 5}),
    match("Commute", "forward", (3,)),
    match("ControlsCommute", "forward", (2, 3), {"c": 2, "a": 0, "b": 5}),
    match("R6_CNOTMirror", "forward", (1, 2), {"a": 1, "b": 2, "c": 5}, "A2"),
    match("Commute", "forward", (0,)),
    match("R2_CNOTviaCZ", "forward", (4,), {"c": 2, "t": 0}),
    match("R2_CZFlip", "forward", (5,), {"a": 2, "b": 0}),
    match("R2_CNOTviaCZ", "forward", (9,), {"c": 2, "t": 3}),
    match("R2_CZFlip", "forward", (10,), {"a": 2, "b": 3}),
    match("R2_CNOTviaCZ", "forward", (12,), {"c": 5, "t": 3}),
    match("R2_CZFlip", "forward", (13,), {"a": 5, "b": 3}),
    match("R1_InverseCancel", "forward", (11, 12), {"w": 3}, "H"),
    match("DiscardedWireTail", "forward", (6,), {"w": 0}, "H"),
    match("DiscardedWireTail", "forward", (11,), {"w": 3}, "H"),
    match("MeasureDiscarded", "forward", (11,), {"w": 0, "r": 0}),
    match("MeasureDiscarded", "forward", (12,), {"w": 1, "r": 1}),
    match("MeasureDiscarded", "forward", (13,), {"w": 3, "r": 2}),
    match("MeasureDiscarded", "forward", (14,), {"w": 4, "r": 3}),
    match("R3_DeferMeasure", "backward", (10, 13), {"m": 3, "t": 5, "r": 2}, "cZ"),
    match("R3_DeferMeasure", "backward", (9, 10), {"m": 3, "t": 2, "r": 2}, "cZ"),
    match("R3_DeferMeasure", "backward", (7, 14), {"m": 4, "t": 5, "r": 3}, "cX"),
    match("R3_DeferMeasure", "backward", (5, 13), {"m": 0, "t": 2, "r": 0}, "cZ"),
    match("R3_DeferMeasure", "backward", (3, 14), {"m": 1, "t": 5, "r": 1}, "cX"),
    match("R3_DeferMeasure", "backward", (2, 3), {"m": 1, "t": 2, "r": 1}, "cX"),
    match("Commute", "forward", (4,)),
    match("Commute", "forward", (3,)),
    match("Commute", "forward", (2,)),
    match("Commute", "forward", (5,)),
    match("Commute", "forward", (4,)),
    match("Commute", "forward", (3,)),
    match("Commute", "forward", (10,)),
    match("Commute", "forward", (9,)),
    match("Commute", "forward", (11,)),
    match("Commute", "forward", (10,)),
]

_SCRIPTS: dict[str, tuple[str, list[Match], str]] = {
    "TeleportFromTransfer": (_TELEPORT_START, _TELEPORT_STEPS, "Teleportation"),
    "DenseFromCopy": (_DENSE_START, _DENSE_STEPS, "DenseFull"),
    "GateTeleportFromTeleport": (
        _GATETELEPORT_START,
        _GATETELEPORT_STEPS,
        "GateTeleportation",
    ),
}


def derive(name: str, verify: bool = True) -> DerivationTrace:
    """Replay a named derivation; every step is verified against the start
    (`engine._step_check`), and a final circuit that is not structurally
    equal to the target raises `VerificationError`."""
    if name not in _SCRIPTS:
        raise KeyError(f"unknown derivation {name!r}")
    src, steps, target = _SCRIPTS[name]
    trace = apply_steps(parse(src), steps, verify=verify)
    if trace.final != make(target):
        raise VerificationError(
            f"derivation {name} did not reach its target circuit {target}"
        )
    return trace
