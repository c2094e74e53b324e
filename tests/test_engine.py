"""Engine: matching modulo commutation, rewriting, simplify, deferral."""
import hashlib

import numpy as np
import pytest

from qrewrite.circuit import Gate2, parse, serialize
from qrewrite.engine import (
    Match,
    RewriteError,
    defer_measurements,
    find_matches,
    gate_measure,
    match,
    rewrite_at,
    simplify,
)
from qrewrite.equivalence import channel_equal, oracle_equal
from qrewrite.rules import RULES
from qrewrite.scenarios import make
from qrewrite.sim import channel_of_deferred, extract_channel

from util import random_circuit


def test_find_matches_adjacent_pair():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0")
    ms = find_matches(c, "R1_InverseCancel")
    assert [m.site for m in ms] == [(0, 1)]


def test_find_matches_through_disjoint_instruction():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nX q1\nH q0")
    ms = find_matches(c, "R1_InverseCancel")
    assert [m.site for m in ms] == [(0, 2)]


def test_find_matches_blocked_by_shared_support():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nCNOT q0 q1\nH q0")
    ms = [m for m in find_matches(c, "R1_InverseCancel") if m.variant == "H"]
    assert ms == []


def test_find_matches_overlapping_sites():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0\nH q0")
    ms = find_matches(c, "R1_InverseCancel")
    assert [m.site for m in ms] == [(0, 1), (1, 2)]


def test_find_matches_unknown_rule():
    with pytest.raises(KeyError):
        find_matches(make("BellGenerator"), "R9_Nonexistent")


def test_rewrite_gathers_at_first_index():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nX q1\nH q0")
    (m,) = find_matches(c, "R1_InverseCancel")
    new = rewrite_at(c, m, verify=True)
    assert serialize(new).splitlines()[-1] == "X q1"
    assert len(new.body) == 1


def test_rewrite_stale_match_errors():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0")
    (m,) = find_matches(c, "R1_InverseCancel")
    smaller = rewrite_at(c, m)
    with pytest.raises(RewriteError):
        rewrite_at(smaller, m)


def test_r5_forward_backward_round_trip_at_site():
    c = parse("qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nCNOT q0 q2")
    fwd = [m for m in find_matches(c, "R5_DistributeCNOT") if m.variant == "i"]
    mid = rewrite_at(c, fwd[0], verify=True)
    assert len(mid.body) == 4
    back = [m for m in find_matches(mid, "R5_DistributeCNOT", "backward") if m.variant == "i"]
    assert any(rewrite_at(mid, m) == c for m in back)


def test_bell_prefix_removal_via_target_plus():
    # a CNOT whose target is a fresh |+> ancilla simply disappears
    c = parse("qubits 2\ncbits 0\nINPUT q0\nPREP q1 +\nCNOT q0 q1\nCNOT q0 q1")
    ms = find_matches(c, "R1_TargetPlus")
    assert [m.site for m in ms] == [(0,)]
    new = rewrite_at(c, ms[0], verify=True)
    assert len(new.body) == 1


def test_teleport_last_cnot_conversion():
    # CNOT -> H CZ H, then reverse the CZ (the teleportation figure steps)
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCNOT q1 q0")
    step1 = rewrite_at(c, match("R2_CNOTviaCZ", site=(0,), bindings={"c": 1, "t": 0}), verify=True)
    assert [type(i).__name__ for i in step1.body] == ["Gate1", "Gate2", "Gate1"]
    step2 = rewrite_at(
        step1, match("R2_CZFlip", site=(1,), bindings={"a": 1, "b": 0}), verify=True
    )
    assert step2.body[1] == Gate2("CZ", 0, 1)


def test_commute_rule():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nX q1")
    ms = find_matches(c, "Commute")
    assert [m.site for m in ms] == [(0,)]
    new = rewrite_at(c, ms[0], verify=True)
    assert [i.target for i in new.body] == [1, 0]
    overlapping = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nCNOT q0 q1")
    assert find_matches(overlapping, "Commute") == []
    with pytest.raises(RewriteError):
        rewrite_at(overlapping, Match("Commute", "forward", (0,)))
    with pytest.raises(RewriteError, match="single index"):
        rewrite_at(c, Match("Commute", "forward", ()))


def test_simplify_cancels_pairs():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nX q0\nX q0\nZ q1")
    final, trace = simplify(c)
    assert serialize(final).splitlines()[-1] == "Z q1"
    assert len(final.body) == 1
    assert all(s.verified for s in trace.steps)


def test_simplify_fixpoint_on_minimal_circuit():
    c = make("BellGenerator")
    final, trace = simplify(c)
    assert final == c
    assert trace.steps == []


def test_simplify_converts_quantum_control_to_classical():
    c = parse(
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0"
    )
    final, trace = simplify(c)
    assert [type(i).__name__ for i in final.body] == ["Measure", "ClassicalCtrl"]
    assert all(s.verified for s in trace.steps)
    assert channel_equal(extract_channel(c), extract_channel(final))


def test_simplify_double_classical_control_fixpoint():
    # R3 backward fires once; the two residual cX gates are a fixpoint
    c = parse(
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0\nCX c0 q1"
    )
    final, _ = simplify(c)
    assert [type(i).__name__ for i in final.body] == [
        "Measure",
        "ClassicalCtrl",
        "ClassicalCtrl",
    ]


def test_simplify_recovers_classical_teleportation_corrections():
    # deferring teleportation's measurements gives the quantum-controlled
    # form; simplify's R3 backward restores cX/cZ corrections
    tele = make("Teleportation")
    deferred = defer_measurements(tele)
    final, trace = simplify(deferred)
    kinds = [i.kind for i in final.body if type(i).__name__ == "ClassicalCtrl"]
    assert kinds == ["CX", "CZC"]
    assert all(s.label.startswith("R3_DeferMeasure backward") for s in trace.steps)
    assert channel_equal(extract_channel(final), extract_channel(tele))
    assert oracle_equal(final, tele)


def test_simplify_drops_null_controls():
    c = parse("qubits 2\ncbits 0\nPREP q0 0\nPREP q1 +\nCNOT q0 q1\nCZ q0 q1")
    final, _ = simplify(c)
    assert final.body == ()


def test_simplify_termination_and_determinism():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        c = random_circuit(rng, max_qubits=6, max_cbits=3, max_instructions=20)
        bound = max(1, len(c.body)) ** 2
        f1, t1 = simplify(c, verify=False)
        f2, t2 = simplify(c, verify=False)
        assert len(t1.steps) <= bound
        assert serialize(f1) == serialize(f2)
        assert [s.label for s in t1.steps] == [s.label for s in t2.steps]


def test_simplify_soundness_sample():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(40):
        c = random_circuit(rng, max_qubits=4, max_cbits=2, max_instructions=12)
        final, trace = simplify(c, verify=True)  # raises on unsound step
        if trace.steps:
            checked += 1
            assert channel_equal(extract_channel(c), extract_channel(final))
            assert oracle_equal(c, final)
    assert checked >= 5  # the sample actually exercised rewrites


def test_defer_measurements_moves_controls():
    tele = make("Teleportation")
    deferred = defer_measurements(tele)
    names = [type(i).__name__ for i in deferred.body]
    assert names == ["Gate2", "Gate1", "Gate2", "Gate2", "Measure", "Measure"]
    assert channel_equal(extract_channel(tele), extract_channel(deferred))
    assert channel_equal(extract_channel(tele), channel_of_deferred(deferred))


def test_rewrite_verification_mode_runs():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0")
    (m,) = find_matches(c, "R1_InverseCancel")
    new = rewrite_at(c, m, verify=True)
    assert new.body == ()


def test_gate_measure_orders_lexicographically():
    quantum = parse("qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0")
    classical = parse(
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nMEASURE q0 c0\nCX c0 q1"
    )
    assert gate_measure(classical) < gate_measure(quantum)


# sha256 over every rule and direction on 20 random circuits (seed 20240):
# find_matches labels and the serialized rewrite of each match, or
# "RewriteError"; recorded before the rules were compiled into forms
ENGINE_DIGEST = "a7d921f4af757c36a515e7b6fd90a794a3f40f514249a1645f76c094243412f4"


def test_engine_behaviour_is_pinned():
    h = hashlib.sha256()
    rng = np.random.default_rng(20240)
    for k in range(20):
        c = random_circuit(rng)
        for rule_id in RULES:
            for direction in ("forward", "backward"):
                h.update(f"{k} {rule_id} {direction}\n".encode())
                for m in find_matches(c, rule_id, direction):
                    h.update(m.label().encode() + b"\n")
                    try:
                        out = serialize(rewrite_at(c, m))
                    except RewriteError:
                        out = "RewriteError"
                    h.update(out.encode() + b"\n")
    assert h.hexdigest() == ENGINE_DIGEST


def test_rewrite_rejects_aliased_cz_control_commute():
    # the CNOT's target t may not alias the CZ's x: swapping would be unsound
    c = parse("qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nCZ q0 q2\nCNOT q1 q0")
    m = match("CzControlCommute", "forward", (0, 1), {"x": 0, "y": 2, "a": 1, "t": 0}, "cz_first")
    with pytest.raises(RewriteError, match="non-injective"):
        rewrite_at(c, m, verify=False)


def test_rewrite_rejects_aliased_parallel_targets():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCNOT q0 q1\nCNOT q0 q1")
    m = match("R7_ParallelToLambda", site=(0, 1), bindings={"c": 0, "t1": 1, "t2": 1})
    with pytest.raises(RewriteError, match="non-injective"):
        rewrite_at(c, m)


def test_rewrite_rejects_missing_or_unknown_binding():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCZ q0 q1")
    with pytest.raises(RewriteError, match="missing binding"):
        rewrite_at(c, match("R2_CZFlip", site=(0,), bindings={"a": 0}))
    with pytest.raises(RewriteError, match="unknown variable"):
        rewrite_at(c, match("R2_CZFlip", site=(0,), bindings={"a": 0, "b": 1, "c": 2}))


def test_rewrite_rejects_multi_index_insertion_site():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nX q0")
    m = match("R1_InverseCancel", "backward", (0, 1), {"w": 0}, "H")
    with pytest.raises(RewriteError, match="single index"):
        rewrite_at(c, m)
    assert len(rewrite_at(c, match("R1_InverseCancel", "backward", (0,), {"w": 0}, "H")).body) == 3


def test_rewrite_rejects_binding_to_an_undeclared_wire():
    c = parse("qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nCNOT q0 q2")
    m = match("R5_DistributeCNOT", site=(0,), bindings={"c": 0, "t": 2, "a": 7}, variant="i")
    with pytest.raises(RewriteError, match="undeclared wire q7"):
        rewrite_at(c, m)
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1")
    m = match("R1_InverseCancel", "backward", (0,), {"w": 5}, "H")
    with pytest.raises(RewriteError, match="undeclared wire q5"):
        rewrite_at(c, m)
    c = parse(
        "qubits 3\ncbits 2\nINPUT q0\nINPUT q1\nINPUT q2\n"
        "CNOT q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2"
    )
    bindings = {"a": 0, "b": 1, "r1": 0, "r2": 1, "t": 2}
    m = match("R4_XorSubstitute", site=(0, 1, 2, 3), bindings=bindings | {"r3": 9}, variant="cX")
    with pytest.raises(RewriteError, match="undeclared wire c9"):
        rewrite_at(c, m)
    m = match("R4_XorSubstitute", site=(0, 1, 2, 3), bindings=bindings, variant="cX")
    assert rewrite_at(c, m, verify=True).num_cbits == 3


def test_unknown_direction_is_rejected():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCZ q0 q1")
    with pytest.raises(ValueError, match="sideways"):
        find_matches(c, "R2_CZFlip", "sideways")
    with pytest.raises(ValueError, match="sideways"):
        match("R2_CZFlip", "sideways", (0,), {"a": 0, "b": 1})
    with pytest.raises(ValueError, match="sideways"):
        rewrite_at(c, Match("R2_CZFlip", "sideways", (0,), (("a", 0), ("b", 1))))
