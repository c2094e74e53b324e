"""Engine: matching modulo commutation, rewriting, simplify, deferral."""
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from qrewrite.circuit import Gate2, parse, serialize
from qrewrite.engine import (
    _SIMPLIFY_PRIORITY,
    Match,
    RewriteError,
    VerificationError,
    defer_measurements,
    find_matches,
    gate_measure,
    match,
    rewrite_at,
    simplify,
)
from qrewrite.equivalence import channel_equal, oracle_equal
from qrewrite.rules import RULES, rule_forms
from qrewrite.scenarios import derive, make
from qrewrite.sim import SimulationError, channel_of_deferred, extract_channel

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
    with pytest.raises(RewriteError, match="not a gatherable occurrence"):
        rewrite_at(overlapping, Match("Commute", "forward", (0,)))
    # before the body, at the last index (no right neighbour)
    for site in [(-1,), (1,)]:
        with pytest.raises(RewriteError, match="not a gatherable occurrence"):
            rewrite_at(c, Match("Commute", "forward", site))
    for site in [(), (0, 1)]:
        with pytest.raises(RewriteError, match="single index"):
            rewrite_at(c, Match("Commute", "forward", site))
    # a swap reads the same both ways: backward matches say forward
    assert find_matches(c, "Commute", "backward") == ms
    assert rewrite_at(c, Match("Commute", "backward", (0,))) == new


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


@pytest.mark.parametrize("kind", ["CX", "CZC"])
def test_defer_measurements_stops_at_a_reader_targeting_the_measured_wire(kind):
    # Rule III would make the measured wire control itself: no rewrite applies
    c = parse(f"qubits 1\ncbits 1\nINPUT q0\nMEASURE q0 c0\n{kind} c0 q0")
    deferred = defer_measurements(c)
    assert deferred == c
    with pytest.raises(SimulationError):
        channel_of_deferred(deferred)


# indices of the first 300 random_circuit circuits (seed 5) that the earlier,
# hand-coded deferral brought to gates-then-measurements form (a circuit it
# crashed on counts as not deferred)
DEFERRED_SEED5 = (
    2, 4, 5, 9, 10, 11, 12, 17, 18, 19, 21, 23, 25, 27, 29, 30, 31, 32, 33, 36, 37,
    41, 43, 44, 45, 46, 51, 52, 53, 54, 56, 58, 60, 61, 64, 67, 70, 71, 72, 73, 74,
    75, 77, 81, 84, 89, 90, 93, 94, 95, 96, 97, 98, 103, 106, 108, 113, 114, 116,
    117, 118, 119, 121, 126, 128, 130, 132, 133, 136, 137, 138, 139, 143, 145, 151,
    152, 153, 156, 160, 163, 164, 165, 168, 169, 170, 171, 172, 174, 176, 177, 178,
    181, 186, 187, 189, 190, 192, 193, 194, 195, 196, 199, 202, 204, 205, 208, 211,
    213, 216, 218, 219, 220, 222, 224, 225, 228, 234, 235, 236, 237, 239, 241, 242,
    244, 247, 249, 253, 255, 258, 259, 260, 262, 263, 264, 267, 270, 271, 272, 273,
    274, 275, 276, 278, 279, 280, 282, 283, 285, 287, 288, 289, 291, 294, 295, 297,
    298,
)


def test_defer_measurements_defers_the_recorded_corpus():
    rng = np.random.default_rng(5)
    deferred = []
    for k in range(300):
        c = random_circuit(rng)
        try:
            channel = channel_of_deferred(defer_measurements(c))
        except SimulationError:
            continue
        deferred.append(k)
        assert channel_equal(channel, extract_channel(c)), k
    assert tuple(deferred) == DEFERRED_SEED5


def test_failed_verification_raises(monkeypatch):
    monkeypatch.setattr("qrewrite.engine.channel_equal", lambda a, b: False)
    with pytest.raises(VerificationError, match="R1_ControlZero"):
        derive("TeleportFromTransfer")
    c = parse("qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0")
    with pytest.raises(VerificationError):
        simplify(c)
    (m,) = find_matches(c, "R1_InverseCancel")
    with pytest.raises(VerificationError):
        rewrite_at(c, m, verify=True)
    assert rewrite_at(c, m).body == ()


def test_simplify_forms_reduce_the_measure_and_need_no_fresh_qubit():
    # why `simplify` can commit the first match it finds: every step applies
    # and strictly lowers `gate_measure`
    for rule_id, direction in _SIMPLIFY_PRIORITY:
        for form in rule_forms(rule_id, direction).values():
            src, dst = (SimpleNamespace(body=side) for side in (form.src, form.dst))
            assert gate_measure(dst) < gate_measure(src), form.variant
            fresh = set(form.dst_vars) - set(form.src_vars)
            assert all(form.kinds[v] == "c" for v in fresh), (rule_id, fresh)


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


def _digest_corpus():
    rng = np.random.default_rng(20240)
    return [random_circuit(rng) for _ in range(20)]


def test_engine_behaviour_is_pinned():
    h = hashlib.sha256()
    for k, c in enumerate(_digest_corpus()):
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


def test_found_matches_are_refused_only_for_want_of_an_ancilla():
    # `find_matches` does not allocate fresh wires, so it lists R5 forward
    # matches on circuits with no free qubit for the ancilla; `rewrite_at`
    # refuses those, and no other found match
    found, refused = 0, []
    for c in _digest_corpus():
        for rule_id in RULES:
            for direction in ("forward", "backward"):
                for m in find_matches(c, rule_id, direction):
                    found += 1
                    try:
                        rewrite_at(c, m)
                    except RewriteError as exc:
                        refused.append((m.rule, m.direction, str(exc)))
    assert (found, len(refused)) == (8229, 24)
    assert {(rule, direction) for rule, direction, _ in refused} == {
        ("R5_DistributeCNOT", "forward")
    }
    assert all("fresh-wire allocation failure for 'a'" in e for _, _, e in refused)


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
    swappable = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nX q1")
    with pytest.raises(RewriteError, match="unknown variable"):
        rewrite_at(swappable, Match("Commute", "forward", (0,), (("zz", 5),)))


def test_rewrite_rejects_multi_index_insertion_site():
    c = parse("qubits 1\ncbits 0\nINPUT q0\nX q0")
    m = match("R1_InverseCancel", "backward", (0, 1), {"w": 0}, "H")
    with pytest.raises(RewriteError, match="single index"):
        rewrite_at(c, m)
    # before the body, and past the end of the body (length 1)
    for site in [(-1,), (2,)]:
        m = match("R1_InverseCancel", "backward", site, {"w": 0}, "H")
        with pytest.raises(RewriteError, match="not a gatherable occurrence"):
            rewrite_at(c, m)
    assert len(rewrite_at(c, match("R1_InverseCancel", "backward", (0,), {"w": 0}, "H")).body) == 3
    # an empty site inserts at the end of the body
    at_end, empty = (
        rewrite_at(c, match("R1_InverseCancel", "backward", site, {"w": 0}, "H"))
        for site in [(1,), ()]
    )
    assert empty == at_end and empty.body[0] == c.body[0]


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


@pytest.mark.parametrize(
    "rule, direction, bindings, error",
    [
        ("R1_TargetPlus", "backward", {"c": 0}, None),
        ("R1_ControlZero", "backward", {"t": 1}, "not provably |0>"),
        ("DiscardedWireTail", "backward", {}, "role discard"),
        ("MeasureDiscarded", "forward", {"r": 0}, "role discard"),
    ],
)
def test_insertion_leaving_out_a_wire_allocates_it_before_the_condition(
    rule, direction, bindings, error
):
    # the condition reads the left-out wire: it sees the allocated one
    c = parse("qubits 2\ncbits 1\nINPUT q0\nPREP q1 +\nX q0")
    m = match(rule, direction, (), bindings)
    if error is not None:
        with pytest.raises(RewriteError, match=error):
            rewrite_at(c, m)
        return
    new = rewrite_at(c, m, verify=True)
    assert new.body == c.body + (Gate2("CNOT", 0, 1),)


def test_rewrite_rejects_sites_the_matcher_does_not_gather():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCNOT q0 q1\nH q1\nCNOT q0 q1")
    assert find_matches(c, "R1_InverseCancel") == []
    cancel = {"c": 0, "t": 1}
    # blocked by the interleaved H, descending, repeated, past the body, negative
    for site in [(0, 2), (2, 0), (0, 0), (0, 3), (-1, 2)]:
        m = match("R1_InverseCancel", site=site, bindings=cancel, variant="CNOT")
        with pytest.raises(RewriteError, match="not a gatherable occurrence"):
            rewrite_at(c, m)
    for site in [(0,), (0, 1, 2)]:
        m = match("R1_InverseCancel", site=site, bindings=cancel, variant="CNOT")
        with pytest.raises(RewriteError, match="site length"):
            rewrite_at(c, m)
    unblocked = parse(
        "qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nCNOT q0 q1\nH q2\nCNOT q0 q1"
    )
    m = match("R1_InverseCancel", site=(0, 2), bindings=cancel, variant="CNOT")
    assert find_matches(unblocked, "R1_InverseCancel") == [m]
    assert len(rewrite_at(unblocked, m, verify=True).body) == 1


def test_unknown_direction_is_rejected():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCZ q0 q1")
    with pytest.raises(ValueError, match="sideways"):
        find_matches(c, "R2_CZFlip", "sideways")
    with pytest.raises(ValueError, match="sideways"):
        match("R2_CZFlip", "sideways", (0,), {"a": 0, "b": 1})
    with pytest.raises(ValueError, match="sideways"):
        rewrite_at(c, Match("R2_CZFlip", "sideways", (0,), (("a", 0), ("b", 1))))
