"""Engine: matching modulo commutation, rewriting, simplify, deferral."""
import dataclasses
import hashlib
import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from qrewrite import engine
from qrewrite.circuit import (
    Circuit,
    CircuitError,
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Measure,
    PrepDecl,
    _splice,
    circuit,
    opcode,
    parse,
    prep_bell,
    prep_plus,
    prep_zero,
    serialize,
)
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
from qrewrite.rules import DIRECTIONS, FORMS, RULES, ground, rule_forms
from qrewrite.scenarios import derive, make
from qrewrite.sim import SimulationError, channel_of_deferred, extract_channel

from test_step_check import _sweep_corpus
from util import (
    exhaustive_insertions,
    full_rewrite,
    linear_find_sites,
    random_circuit,
    random_gate_circuit,
    reference_defer_measurements,
)


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


def test_defer_measurements_equals_the_whole_circuit_search():
    # each move searches the measurement's two sites alone; the reference
    # lists every match of the circuit again after each move
    rng = np.random.default_rng(606)
    moved = 0
    for k in range(300):
        c = random_circuit(rng, max_qubits=5, max_cbits=4, max_instructions=24)
        deferred = defer_measurements(c)
        assert deferred == reference_defer_measurements(c), k
        moved += deferred != c
    assert moved >= 100, moved


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
    # fail the window check on the step's match, the one check of a
    # verified step
    monkeypatch.setattr("qrewrite.engine._window_equal", lambda a, b, m: False)
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
# "RewriteError"; the earlier engine gave this digest once the 24 found
# matches it could not apply were left out
ENGINE_DIGEST = "ae503847c3436b9b077d5a9c40ca63deeb604ab9d86d41b4998595ae0ffbacec"


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


def test_every_found_match_applies():
    # `find_matches` admits an occurrence only with its fresh wires bound,
    # so `rewrite_at` refuses none of the matches it finds
    found, refused = 0, []
    for c in _digest_corpus():
        for rule_id in RULES:
            for direction in ("forward", "backward"):
                for m in find_matches(c, rule_id, direction):
                    found += 1
                    try:
                        rewrite_at(c, m)
                    except RewriteError as exc:
                        refused.append((m.label(), str(exc)))
    assert (found, refused) == (8205, [])


INSERTION_FORMS = [
    ("R1_InverseCancel", "backward"),
    ("R1_ControlZero", "backward"),
    ("R1_TargetPlus", "backward"),
    ("DiscardedWireTail", "backward"),
    ("BellPrepFold", "backward"),
    ("MeasureDiscarded", "forward"),
]


def test_insertion_forms_are_exactly_those_with_an_empty_matched_side():
    insertions = {
        (rule, direction)
        for (rule, direction), forms in FORMS.items()
        if rule != "Commute" and not next(iter(forms.values())).src
    }
    assert insertions == set(INSERTION_FORMS)


def test_an_insertion_search_over_the_match_bound_is_refused(monkeypatch):
    c = parse("qubits 4\ncbits 0\nH q0")
    listed = find_matches(c, "R1_InverseCancel", "backward")
    assert len(listed) == 2 * (3 * 4 + 2 * 4 * 3)
    assert listed == exhaustive_insertions(c, "R1_InverseCancel", "backward")[0]
    built = []
    injective = engine._injective
    monkeypatch.setattr(engine, "_injective", lambda ws: built.append(ws) or injective(ws))
    # the last variant, CZ, counts the 48 matches listed before it and its
    # 16 candidate pairs (repeated wires included) at each of 2 positions
    monkeypatch.setattr(engine, "MAX_MATCHES", 48 + 2 * 16)
    assert find_matches(c, "R1_InverseCancel", "backward") == listed
    monkeypatch.setattr(engine, "MAX_MATCHES", 48 + 2 * 16 - 1)
    with pytest.raises(RewriteError, match="needs at least 80 bindings, over the limit of 79"):
        find_matches(c, "R1_InverseCancel", "backward")
    # H's first position has 4 candidates: refused before one is built
    built.clear()
    monkeypatch.setattr(engine, "MAX_MATCHES", 3)
    with pytest.raises(RewriteError, match="needs at least 4 bindings"):
        find_matches(c, "R1_InverseCancel", "backward")
    assert built == []
    # pattern searches are not counted
    assert len(find_matches(parse("qubits 1\ncbits 0\n" + "H q0\n" * 8), "R1_InverseCancel")) == 7


def _bell_report_circuit(rng):
    # five qubits shaped like the benchmark's mixed circuits: q0 an input,
    # q1 |0>, q2 |+>, a Bell pair on q3 q4; a CNOT onto the |+> wire, one
    # from the |0> wire, an inverse pair, two measurements feeding an XOR
    # into a REPORT cbit; c3 left unwritten, some wires discarded
    def gate():
        if rng.random() < 0.5:
            return Gate1(str(rng.choice(["H", "X", "Z"])), int(rng.integers(5)))
        a, b = (int(w) for w in rng.choice(5, size=2, replace=False))
        return Gate2(str(rng.choice(["CNOT", "CZ"])), a, b)

    a, b = (int(w) for w in rng.choice(5, size=2, replace=False))
    pair = gate()
    body = [
        Gate2("CNOT", int(rng.choice([0, 3, 4])), 2),
        Gate2("CNOT", 1, int(rng.choice([0, 2, 3, 4]))),
        gate(), pair, pair,
        Measure(a, 0), gate(), ClassicalCtrl("CX", 0, (a + 1) % 5),
        Measure(b, 1), ClassicalXor(0, 1, 2), ClassicalCtrl("CZC", 2, int(rng.integers(5))),
        gate(),
    ]
    roles = {w: str(r) for w, r in enumerate(rng.choice(["output", "discard"], size=5))}
    return circuit(
        5, 4, body, preps=[prep_zero(1), prep_plus(2), prep_bell(3, 4)], inputs=[0],
        q_roles=roles, c_roles={2: "report"},
    )


def _insertion_corpus():
    # the digest corpus, plus random circuits with |0>, |+> and Bell preps,
    # some wires given the discard role and some cbits left unwritten, and
    # five-qubit circuits with a Bell pair and a REPORT cbit
    rng = np.random.default_rng(4711)
    extra = []
    for _ in range(30):
        c = random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=10)
        roles = tuple(str(r) for r in rng.choice(["output", "discard"], size=c.num_qubits))
        extra.append(dataclasses.replace(c, q_roles=roles))
    return _digest_corpus() + extra + [_bell_report_circuit(rng) for _ in range(8)]


def test_insertion_search_equals_the_exhaustive_enumeration():
    # the search enumerates only wires each variable's tests admit; brute
    # force over every position and injective binding, filtered by
    # `_admit`, finds the same matches
    admitted, refused = dict.fromkeys(INSERTION_FORMS, 0), dict.fromkeys(INSERTION_FORMS, 0)
    on_five = dict.fromkeys(INSERTION_FORMS, 0)
    for c in _insertion_corpus():
        for rule, direction in INSERTION_FORMS:
            expected, n_refused = exhaustive_insertions(c, rule, direction)
            assert find_matches(c, rule, direction) == expected, (rule, direction, serialize(c))
            admitted[rule, direction] += len(expected)
            refused[rule, direction] += n_refused
            on_five[rule, direction] += len(expected) if c.num_qubits == 5 and c.num_cbits == 4 else 0
    assert all(admitted.values()), admitted
    # every insertion form, the conditioned ones included, admits matches
    # on the five-qubit circuits, where R1's two-qubit variants bind 20
    # wire pairs at each position
    assert all(on_five.values()), on_five
    # every form with a condition or a required prep refuses somewhere;
    # R1_InverseCancel backward has neither, so it admits every candidate
    assert [form for form, n in refused.items() if not n] == [("R1_InverseCancel", "backward")]


def test_an_insertion_form_without_a_condition_admits_each_binding_once(monkeypatch):
    # R1_InverseCancel backward has no condition, so `_admit` reads no
    # position: it runs once per candidate binding, not once per position,
    # and the matches equal the exhaustive enumeration
    c = parse("qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nPREP q2 +\nH q0\nCNOT q1 q0")
    calls = []
    admit = engine._admit
    monkeypatch.setattr(engine, "_admit", lambda *args: calls.append(args) or admit(*args))
    found = find_matches(c, "R1_InverseCancel", "backward")
    assert found == exhaustive_insertions(c, "R1_InverseCancel", "backward")[0]
    # 3 wires for each one-qubit variant, 6 ordered pairs for each two-qubit one
    assert len(calls) == 3 * 3 + 2 * 6
    assert len(found) == len(calls) * (len(c.body) + 1)
    # a conditioned insertion form is admitted at each position: a control
    # q0 or q1 onto the |+> wire q2, at 3 positions
    calls.clear()
    assert len(find_matches(c, "R1_TargetPlus", "backward")) == len(calls) == 2 * 3


def test_no_match_without_a_free_qubit_for_the_ancilla():
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nCNOT q0 q1")
    assert find_matches(c, "R5_DistributeCNOT") == []
    m = match("R5_DistributeCNOT", site=(0,), bindings={"c": 0, "t": 1}, variant="i")
    with pytest.raises(RewriteError, match="fresh-wire allocation failure for 'a'"):
        rewrite_at(c, m)


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


def test_a_replacement_is_checked_against_each_wire_count():
    # `_splice` checks a replacement once per wire count: the same grounded
    # tuple is refused where it names an undeclared wire, before and after
    # it was accepted where it does not
    new = (Gate1("H", 2), Measure(2, 1))
    wide = parse("qubits 3\ncbits 2\nINPUT q0\nH q0")
    for c in (parse("qubits 2\ncbits 2\nINPUT q0\nH q0"), wide, parse("qubits 3\ncbits 1\nH q0")):
        kind = "q2" if c.num_qubits == 2 else "c1"
        if c is wide:
            out = _splice(c, 1, 1, new, (), c.num_cbits, None, (1,))
            assert out.body == c.body + new
            continue
        with pytest.raises(CircuitError, match=f"undeclared wire {kind}") as exc:
            _splice(c, 1, 1, new, (), c.num_cbits, None, (1,))
        assert exc.value.index == (1 if kind == "q2" else 2)


@pytest.mark.parametrize(
    "rule, direction, bindings, error",
    [
        ("R1_TargetPlus", "backward", {"c": 0}, None),
        ("R1_ControlZero", "backward", {"t": 1}, "allocation failure for 'c'"),
        ("DiscardedWireTail", "backward", {}, "allocation failure for 'w'"),
        ("MeasureDiscarded", "forward", {"r": 0}, "allocation failure for 'w'"),
    ],
)
def test_insertion_leaving_out_a_wire_allocates_it_before_the_condition(
    rule, direction, bindings, error
):
    # a left-out wire is one its variable's tests admit; with none, the
    # match fails to allocate it
    c = parse("qubits 2\ncbits 1\nINPUT q0\nPREP q1 +\nX q0")
    m = match(rule, direction, (), bindings)
    if error is not None:
        with pytest.raises(RewriteError, match=error):
            rewrite_at(c, m)
        return
    new = rewrite_at(c, m, verify=True)
    assert new.body == c.body + (Gate2("CNOT", 0, 1),)


def test_a_left_out_wire_is_the_first_its_tests_admit():
    # q0 is the first free qubit, but only q1 is provably |0>
    c = parse("qubits 2\ncbits 0\nINPUT q0\nPREP q1 0\nX q0")
    new = rewrite_at(c, match("R1_ControlZero", "backward", (), {}, "CNOT"), verify=True)
    assert new.body == c.body + (Gate2("CNOT", 1, 0),)


def test_left_out_wires_take_the_first_binding_the_search_lists():
    # q0 is the only |+> wire, so the target t must be q0 and the control
    # c q1: binding c first to the first wire it may take, q0, leaves t none
    c = parse("qubits 2\ncbits 0\nPREP q0 +\nINPUT q1")
    [listed] = find_matches(c, "R1_TargetPlus", "backward")
    assert listed.bindings == (("c", 1), ("t", 0))
    new = rewrite_at(c, match("R1_TargetPlus", "backward", (0,)), verify=True)
    assert new == rewrite_at(c, listed) and new.body == (Gate2("CNOT", 1, 0),)


_DISCARDED_H = "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nDISCARD q1\nREPORT c0\nH q1"
_R4_HOST = "qubits 3\ncbits {}\nINPUT q0\nINPUT q1\nINPUT q2\nREPORT {}\n"
_R4_CNOT = "CNOT q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2"


# (circuit text, rule, direction, bindings): a rewrite that writes, erases or
# changes a report wire, at the site `_report_rewrite` names
_REPORT_REWRITES = {
    # writes the unwritten report c0
    "write": (_DISCARDED_H, "MeasureDiscarded", "forward", {"w": 1, "r": 0}),
    # erases the write of report c0
    "unwrite": (_DISCARDED_H + "\nMEASURE q1 c0", "MeasureDiscarded", "backward", {"w": 1, "r": 0}),
    # changes report r2 = c1 from a xor b to b
    "change": (_R4_HOST.format(2, "c1") + _R4_CNOT, "R4_XorSubstitute", "forward", {}),
    # erases report r3 = c2
    "erase": (
        _R4_HOST.format(3, "c2") + "MEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c2\nCX c2 q2",
        "R4_XorSubstitute",
        "backward",
        {"r3": 2},
    ),
}


def _report_rewrite(case: str) -> tuple[Circuit, Match]:
    text, rule, direction, bindings = _REPORT_REWRITES[case]
    if rule == "R4_XorSubstitute":
        site = (0, 1, 2, 3)
        bindings = {"a": 0, "b": 1, "r1": 0, "r2": 1, "t": 2} | bindings
    else:
        site = (1,)
    return parse(text), match(rule, direction, site, bindings)


@pytest.mark.parametrize("case", list(_REPORT_REWRITES))
def test_no_rewrite_writes_changes_or_erases_a_report_wire(case):
    # the rules' report tests refuse these rewrites
    c, m = _report_rewrite(case)
    assert find_matches(c, m.rule, m.direction) == []
    with pytest.raises(RewriteError, match="role report"):
        rewrite_at(c, m, verify=True)


@pytest.mark.parametrize("case", list(_REPORT_REWRITES))
def test_only_the_window_check_refuses_a_rewrite_of_a_report(monkeypatch, case):
    # with the report tests bypassed (each cbit test sees every cbit as
    # scratch), the window check refuses each rewrite, since it copies a
    # written report out of its window, so verification fails; whole-circuit
    # channel equality, which sees only qubits, still calls the two circuits
    # equal, and the oracle does not
    for rule in ("MeasureDiscarded", "R4_XorSubstitute"):
        for direction in DIRECTIONS:
            forms = FORMS[rule, direction]
            for variant, form in list(forms.items()):
                condition = tuple(
                    (var, test if form.kinds[var] == "q" else _as_scratch(test))
                    for var, test in form.condition
                )
                monkeypatch.setitem(forms, variant, dataclasses.replace(form, condition=condition))
    c, m = _report_rewrite(case)
    new = rewrite_at(c, m)
    assert not engine._window_equal(c, new, m)
    assert channel_equal(extract_channel(c), extract_channel(new))
    assert not oracle_equal(c, new)
    with pytest.raises(VerificationError, match=m.rule):
        engine.apply_steps(c, [m])
    with pytest.raises(VerificationError, match=m.rule):
        rewrite_at(c, m, verify=True)


def _as_scratch(test):
    """`test` run on the circuit with every cbit's role scratch."""

    def scratch(c, pos, matched, w):
        return test(dataclasses.replace(c, c_roles=("scratch",) * c.num_cbits), pos, matched, w)

    return scratch


def test_a_fresh_cbit_is_never_a_report_wire():
    # c2 is the only untouched cbit, but it is reported: r3 takes a new one
    c = parse(_R4_HOST.format(3, "c2") + _R4_CNOT)
    (m,) = find_matches(c, "R4_XorSubstitute")
    new = rewrite_at(c, m, verify=True)
    assert serialize(new).endswith("MEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c3\nCX c3 q2")
    assert new.c_roles == c.c_roles + ("scratch",)
    assert oracle_equal(c, new)


def test_classical_forms_are_sound_in_context():
    # every found match of a form with a classical variable rewrites to a
    # circuit the oracle, which also compares report distributions, finds
    # equal; random discard and report roles exercise their conditions
    rng = np.random.default_rng(5150)
    rules = ("R3_DeferMeasure", "R4_XorSubstitute", "MeasureDiscarded")
    checked = {(rule, d): 0 for rule in rules for d in ("forward", "backward")}
    unequal = []
    for _ in range(40):
        c = random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=10)
        q_roles = tuple(str(r) for r in rng.choice(["output", "discard"], size=c.num_qubits))
        c_roles = tuple(str(r) for r in rng.choice(["scratch", "report"], size=c.num_cbits))
        c = dataclasses.replace(c, q_roles=q_roles, c_roles=c_roles)
        for rule, direction in checked:
            for m in find_matches(c, rule, direction):
                checked[rule, direction] += 1
                if not oracle_equal(c, rewrite_at(c, m)):
                    unequal.append((m.label(), serialize(c)))
    assert unequal == []
    # random circuits never hold R4's pattern; the report cases above do
    assert sum(checked.values()) >= 40, checked
    assert [form for form, n in checked.items() if not n] == [
        ("R4_XorSubstitute", "forward"),
        ("R4_XorSubstitute", "backward"),
    ], checked


def _planted_r4(rng, direction, variant):
    """A random context with the `src` of one R4 form planted at a random
    position, grounded with random bindings, and its site. The planted cbits
    are new, so only a random tail reads one again; a tail may instead touch
    `b` after its measurement. Roles are random: `b` and every other qubit
    discarded with probability 3/4, each cbit reported with 1/5."""
    form = rule_forms("R4_XorSubstitute", direction)[variant]
    c = random_circuit(rng, max_qubits=4, max_cbits=2, max_instructions=6)
    n = c.num_qubits + 1  # a spare qubit keeps three distinct operands
    cvars = [v for v in form.src_vars if form.kinds[v] == "c"]
    bindings = dict(zip("abt", (int(w) for w in rng.choice(n, size=3, replace=False))))
    bindings.update({v: c.num_cbits + k for k, v in enumerate(cvars)})
    m = c.num_cbits + len(cvars)
    tail = {
        0: [Gate1("H", bindings["b"])],
        1: [ClassicalCtrl("CZC", bindings[str(rng.choice(cvars))], int(rng.integers(n)))],
    }.get(int(rng.integers(6)), [])
    k = int(rng.integers(len(c.body) + 1))
    body = c.body[:k] + tuple(ground(form.src, bindings)) + c.body[k:] + tuple(tail)
    q_roles = rng.choice(["output", "discard"], size=n, p=[0.25, 0.75])
    c_roles = rng.choice(["scratch", "report"], size=m, p=[0.8, 0.2])
    planted = circuit(
        n, m, body, preps=c.preps, inputs=c.inputs,
        q_roles={w: str(r) for w, r in enumerate(q_roles)},
        c_roles={w: str(r) for w, r in enumerate(c_roles)},
    )
    return planted, tuple(range(k, k + len(form.src)))


def _r4_sweep():
    """Plant each R4 form in seeded random contexts: per direction, how many
    planted occurrences `find_matches` admits and refuses, and every found
    match whose rewrite is invalid or not oracle-equal in context."""
    rng = np.random.default_rng(4404)
    counts = {d: {"admitted": 0, "refused": 0} for d in DIRECTIONS}
    unsound = []
    for direction in DIRECTIONS:
        for variant in RULES["R4_XorSubstitute"].variants:
            for _ in range(24):
                c, site = _planted_r4(rng, direction, variant)
                found = find_matches(c, "R4_XorSubstitute", direction)
                admitted = any(m.site == site and m.variant == variant for m in found)
                counts[direction]["admitted" if admitted else "refused"] += 1
                for m in found:
                    try:
                        ok = oracle_equal(c, rewrite_at(c, m))
                    except CircuitError:
                        ok = False
                    if not ok:
                        unsound.append((direction, m.label(), serialize(c)))
    return counts, unsound


def test_rule_iv_is_sound_in_context():
    # random circuits never hold R4's pattern, so it is planted: every
    # found match is oracle-equal in context, and the condition both
    # admits and refuses planted occurrences in each direction
    counts, unsound = _r4_sweep()
    assert unsound == []
    for direction in DIRECTIONS:
        assert counts[direction]["admitted"] and counts[direction]["refused"], counts


def test_rule_iv_sweep_finds_an_unsound_rewrite_without_the_condition(monkeypatch):
    # with every test of R4's condition admitting everything, the same
    # sweep finds, in each direction, rewrites that change the channel or
    # the reports, or that build an invalid circuit
    for direction in DIRECTIONS:
        forms = FORMS["R4_XorSubstitute", direction]
        for variant, form in list(forms.items()):
            admit_all = tuple((var, lambda *args: None) for var, _ in form.condition)
            monkeypatch.setitem(forms, variant, dataclasses.replace(form, condition=admit_all))
    _, unsound = _r4_sweep()
    assert {direction for direction, _, _ in unsound} == set(DIRECTIONS)


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


def test_a_circuit_never_searched_builds_no_wire_index():
    # the index is built on first use: a rewrite's output that is never
    # searched carries none, so a sweep of rewrites keeps no indexes
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nH q0\nCNOT q0 q1")
    assert "wire_index" not in vars(c)
    m = find_matches(c, "R1_InverseCancel")[0]
    assert "wire_index" in vars(c)
    new = rewrite_at(c, m)
    assert "wire_index" not in vars(new)
    find_matches(new, "R1_InverseCancel")
    assert "wire_index" in vars(new)


# every form a search finds in the body (`Commute` and insertions have no `src`)
_PATTERN_FORMS = [form for forms in FORMS.values() for form in forms.values() if form.src]


def _search_corpus():
    rng = np.random.default_rng(30)
    mixed = [random_circuit(rng, max_qubits=6, max_cbits=4, max_instructions=40) for _ in range(40)]
    gates = [random_gate_circuit(rng, n, length) for n, length in ((8, 50), (12, 100), (8, 200), (24, 400))]
    return mixed + gates


def test_the_wire_index_lists_each_opcodes_positions():
    for c in _search_corpus():
        ops = {}
        for k, instr in enumerate(c.body):
            ops.setdefault(opcode(instr), []).append(k)
        assert c.wire_index.ops == ops


def test_the_indexed_search_equals_the_reference_scan():
    # the index walk against the scan of every later body index with a
    # carried skipped-wire set, on full searches, on searches restricted to
    # each listed site and to perturbed ones, and seeded with the listed
    # bindings, as `_check_applicable` runs it (a restricted scan costs the
    # site's last index, so a body of n >= 50 instructions checks every
    # (n // 25)-th listed site)
    found = 0
    for c in _search_corpus():
        n = len(c.body)
        for form in _PATTERN_FORMS:
            listed = linear_find_sites(c, form)
            assert engine._find_sites(c, form) == listed
            found += len(listed)
            for site, bindings in listed[:: max(1, n // 25)]:
                perturbed = {
                    site,
                    site[::-1],  # descending
                    tuple(j + 1 for j in site),
                    site[:-1] + (n,),  # out of range
                    (-1,) + site[1:],
                }
                for at in perturbed:
                    assert engine._find_sites(c, form, at) == linear_find_sites(c, form, at)
                    assert engine._find_sites(c, form, at, bindings) == linear_find_sites(
                        c, form, at, bindings
                    )
    assert found > 1000


def test_matching_a_long_body_follows_its_wires(monkeypatch):
    # each later CNOT of R6's templates shares a bound wire with the one
    # before, so it has one candidate: the next instruction on that wire
    # (`linear_find_sites`, which tries every later index, makes 18,750
    # unifications here)
    c = random_gate_circuit(np.random.default_rng(1), 24, 800)
    calls = []
    unify = engine._unify
    monkeypatch.setattr(engine, "_unify", lambda *args: calls.append(1) or unify(*args))
    find_matches(c, "R6_CNOTMirror", "forward")
    assert 0 < len(calls) <= 3 * len(c.body)


def test_a_form_is_searched_only_in_a_body_holding_its_opcodes(monkeypatch):
    searched = []
    found = engine._found
    monkeypatch.setattr(
        engine, "_found", lambda c, form, *args, **kw: searched.append(form.variant) or found(c, form, *args, **kw)
    )
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nX q1\nH q0\nZ q1")
    assert [m.site for m in find_matches(c, "R1_InverseCancel")] == [(0, 2)]
    assert searched == ["H"]  # one X and one Z are too few, and there is no CNOT or CZ
    searched.clear()
    assert find_matches(c, "R1_InverseCancel", "backward")  # insertions need none
    assert len(searched) == len(rule_forms("R1_InverseCancel", "backward"))


def _outcome(rewrite, c, m):
    """The fields of the rewrite's output, or the type and message of the
    error it raises."""
    try:
        out = rewrite(c, m)
    except (RewriteError, CircuitError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return tuple(getattr(out, f.name) for f in dataclasses.fields(Circuit))


def _hand_built(rng, c, found):
    """A random match on `c`: a found one re-bound, left partly unbound or
    moved, or one drawn from scratch."""
    if found and rng.random() < 0.6:
        m = found[int(rng.integers(len(found)))]
        form = rule_forms(m.rule, m.direction)[m.variant]
        site, b = list(m.site), m.binding_map
        roll = rng.random()
        if roll < 0.3 and b:
            var = sorted(b)[int(rng.integers(len(b)))]
            size = c.num_qubits if form.kinds[var] == "q" else c.num_cbits
            b[var] = int(rng.integers(size + 1))  # one past the last wire too
        elif roll < 0.6:
            b = {v: w for v, w in b.items() if rng.random() < 0.5}
        elif roll < 0.8 and site:
            k = int(rng.integers(len(site)))
            site[k] += int(rng.choice([-1, 1]))
        return Match(m.rule, m.direction, tuple(site), tuple(sorted(b.items())), m.variant)
    rule, direction = list(FORMS)[int(rng.integers(len(FORMS)))]
    forms = FORMS[rule, direction]
    form = list(forms.values())[int(rng.integers(len(forms)))]
    b = {}
    for var in dict.fromkeys(form.src_vars + form.dst_vars):
        if var in form.src_vars or rng.random() < 0.5:
            size = c.num_qubits if form.kinds[var] == "q" else c.num_cbits
            b[var] = int(rng.integers(size + 1))
    width = len(form.src) or int(rule == "Commute" or rng.random() < 0.8)
    site = sorted(int(j) for j in rng.integers(len(c.body) + 1, size=width))
    return Match(rule, direction, tuple(site), tuple(sorted(b.items())), form.variant)


def test_the_local_check_builds_what_the_full_check_accepts():
    # every found match and random hand-built matches, on the digest corpus
    # and on random circuits with preps, discard and report roles: each
    # output equals, field by field, the `Circuit(...)` that the full
    # `validate` accepts, and each refusal is the same
    rng = np.random.default_rng(1313)
    corpus = _digest_corpus()
    for _ in range(200):
        c = random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=6)
        q_roles = tuple(str(r) for r in rng.choice(["output", "discard"], size=c.num_qubits))
        c_roles = tuple(str(r) for r in rng.choice(["scratch", "report"], size=c.num_cbits))
        corpus.append(dataclasses.replace(c, q_roles=q_roles, c_roles=c_roles))
    n_found, admitted, refused = 0, 0, 0
    for c in corpus:
        found = [m for rule, direction in FORMS for m in find_matches(c, rule, direction)]
        for m in found:
            assert _outcome(rewrite_at, c, m) == _outcome(full_rewrite, c, m), m.label()
        n_found += len(found)
        for _ in range(12):
            m = _hand_built(rng, c, found)
            outcome = _outcome(rewrite_at, c, m)
            assert outcome == _outcome(full_rewrite, c, m), (m, serialize(c))
            if outcome[0] is RewriteError:
                refused += 1
            else:
                admitted += 1
    assert n_found >= 30_000 and admitted >= 1_000 and refused >= 1_000, (
        n_found, admitted, refused
    )


# (rule, direction, variant, replaced field and its value, circuit text):
# each replacement makes a rule produce an invalid circuit
_DEFECTS = {
    "written twice": (
        "MeasureDiscarded", "forward", "default",
        {"dst": (Measure("w", "r"), Measure("w", "r"))},
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nDISCARD q1\nH q0",
    ),
    "read before written": (
        "R3_DeferMeasure", "backward", "cX",
        {"dst": (ClassicalCtrl("CX", "r", "t"), Measure("m", "r"))},
        "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nCNOT q0 q1\nMEASURE q0 c0",
    ),
    "control equals target": (
        # the CZ may share the CNOT's control, so `a` and `x` may alias
        "CzControlCommute", "forward", "cz_first",
        {"dst": (Gate2("CNOT", "a", "x"), Gate2("CZ", "x", "y"))},
        "qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nCZ q0 q1\nCNOT q0 q2",
    ),
    "prep clash": (
        "BellPrepFold", "forward", "hcnot",
        {"dst_preps": (PrepDecl("bell", ("a", "b")), prep_zero("a"))},
        "qubits 2\ncbits 0\nPREP q0 0\nPREP q1 0\nH q0\nCNOT q0 q1",
    ),
}


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_the_local_check_refuses_what_the_full_check_refuses(monkeypatch, defect):
    rule, direction, variant, change, text = _DEFECTS[defect]
    forms = FORMS[rule, direction]
    monkeypatch.setitem(forms, variant, dataclasses.replace(forms[variant], **change))
    c = parse(text)
    m = next(m for m in find_matches(c, rule, direction) if m.variant == variant)
    with pytest.raises(CircuitError) as full:
        full_rewrite(c, m)
    # found on `c` (no second check) or hand-built (checked again)
    for applied in (m, dataclasses.replace(m)):
        with pytest.raises(CircuitError) as local:
            rewrite_at(c, applied)
        assert (str(local.value), local.value.index) == (str(full.value), full.value.index)


def test_found_matches_apply_without_a_second_check(monkeypatch):
    # the package's `circuit` is the builder function, not the module
    circuit_module = importlib.import_module("qrewrite.circuit")
    calls = {"check": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    corpus = _digest_corpus()[:6]
    found = [
        (c, m) for c in corpus for rule, direction in FORMS for m in find_matches(c, rule, direction)
    ]
    monkeypatch.setattr(engine, "_check_applicable", counting("check", engine._check_applicable))
    monkeypatch.setattr(circuit_module, "validate", counting("validate", circuit_module.validate))
    outs = [rewrite_at(c, m) for c, m in found]
    assert len(found) > 1000 and calls == {"check": 0, "validate": 0}
    # an equal copy of the circuit is another object: its matches are
    # checked again, and give the same outputs
    copies = {id(c): dataclasses.replace(c) for c in corpus}
    calls["validate"] = 0
    assert [rewrite_at(copies[id(c)], m) for c, m in found] == outs
    assert calls == {"check": len(found), "validate": 0}


def test_a_stale_found_match_is_checked_again():
    # a found match applied to another circuit fares as its hand-built copy
    applied = refused = 0
    for c in _digest_corpus()[:8]:
        found = [m for rule, direction in FORMS for m in find_matches(c, rule, direction)]
        rewritten = [rewrite_at(c, m) for m in found[:: 1 + len(found) // 5]]
        for new in rewritten:
            for m in found[:: 1 + len(found) // 50]:
                got = _outcome(rewrite_at, new, m)
                assert got == _outcome(rewrite_at, new, dataclasses.replace(m))
                assert got == _outcome(full_rewrite, new, m)
                refused += got[0] is RewriteError
                applied += got[0] is not RewriteError
    assert applied > 1000 and refused > 100, (applied, refused)


def test_found_matches_keep_the_dataclass_contract():
    # `_found` builds each match without the frozen `__init__`: it still
    # equals, hashes and prints as the match `match` builds, refuses a
    # field assignment, and its copy carries no admission
    found = 0
    for c in _digest_corpus():
        for rule, direction in FORMS:
            for m in find_matches(c, rule, direction):
                built = match(m.rule, m.direction, m.site, dict(m.bindings), m.variant)
                assert m == built and hash(m) == hash(built) and repr(m) == repr(built)
                for f in dataclasses.fields(Match):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(m, f.name, getattr(m, f.name))
                assert m._admitted is not None and dataclasses.replace(m)._admitted is None
                found += 1
    assert found > 8000, found


def test_every_found_match_rewrites_as_its_hand_built_copy():
    # a found match splices the replacement, preps and cbits its admission
    # computed; its copy recomputes them through `_check_applicable` and
    # `_admit`. Among them: new preps (BellPrepFold), a new cbit
    # (R4_XorSubstitute, which random circuits never hold, so it is planted)
    # and insertion admissions shared across positions
    rng = np.random.default_rng(4405)
    planted = [
        _planted_r4(rng, "forward", variant)[0]
        for variant in RULES["R4_XorSubstitute"].variants
        for _ in range(24)
    ]
    seen = {"preps": 0, "new cbit": 0, "shared": 0}
    for c in _digest_corpus() + _sweep_corpus() + planted:
        for rule, direction in FORMS:
            positions = {}
            for m in find_matches(c, rule, direction):
                assert rewrite_at(c, m) == rewrite_at(c, dataclasses.replace(m)), m
                adm = m._admitted
                seen["preps"] += adm.preps is not None and adm.preps != c.preps
                seen["new cbit"] += adm.num_cbits > c.num_cbits
                positions.setdefault(id(adm), set()).add(m.site)
            seen["shared"] += sum(len(sites) > 1 for sites in positions.values())
    assert all(n >= 10 for n in seen.values()), seen
