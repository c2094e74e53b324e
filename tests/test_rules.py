"""Rule catalog soundness: channel preservation, exact unitary identities,
XOR-arithmetic oracles, invertibility, and static conditions."""
import dataclasses
import hashlib
import re
import zlib

import numpy as np
import pytest

from qrewrite.circuit import FIELD_KINDS, Gate1, Gate2, Measure, ParseError, circuit, parse
from qrewrite.engine import RewriteError, find_matches, match, rewrite_at
from qrewrite.equivalence import channel_equal, oracle_equal, unitary_equal
from qrewrite.rules import (
    CATALOG_IDS,
    DIRECTIONS,
    FORMS,
    RULES,
    STRUCTURAL_IDS,
    RewriteRule,
    _GROUND_MEMO_SIZE,
    _compile,
    ground,
    rule_forms,
)
from qrewrite.sim import build_unitary, extract_channel

from util import instantiate, pure_gate, random_bindings, rule_pair


def test_instantiate_r5_distributed():
    pat, rep = instantiate("R5_DistributeCNOT", {"c": 0, "t": 2, "a": 1}, "i")
    assert pat == [Gate2("CNOT", 0, 2)]
    assert rep == [
        Gate2("CNOT", 0, 1),
        Gate2("CNOT", 1, 2),
        Gate2("CNOT", 0, 1),
        Gate2("CNOT", 1, 2),
    ]


def test_instantiate_r1_pair():
    pat, rep = instantiate("R1_InverseCancel", {"w": 3}, "H")
    assert pat == [Gate1("H", 3), Gate1("H", 3)]
    assert rep == []


def test_instantiate_r6_replacement():
    pat, rep = instantiate("R6_CNOTMirror", {"a": 0, "b": 1, "c": 2}, "A2")
    assert pat == [Gate2("CNOT", 0, 1), Gate2("CNOT", 1, 2)]
    assert rep == [Gate2("CNOT", 1, 2), Gate2("CNOT", 0, 1), Gate2("CNOT", 0, 2)]


def test_instantiate_rejects_non_injective():
    with pytest.raises(ValueError, match="non-injective"):
        instantiate("R5_DistributeCNOT", {"c": 0, "t": 2, "a": 0}, "i")


def test_instantiate_requires_fresh_wires():
    with pytest.raises(ValueError, match="missing fresh wire"):
        instantiate("R5_DistributeCNOT", {"c": 0, "t": 2}, "i")


def _xor_eval(body, n, bits):
    vals = list(bits)
    for g in body:
        if g.kind != "CNOT":
            raise AssertionError("xor oracle only handles CNOT chains")
        vals[g.target] ^= vals[g.control]
    return tuple(vals)


def test_r6_xor_algebra_all_basis_states():
    # both sides compute (x, x^y, x^y^z) on every basis state
    pat, rep = instantiate("R6_CNOTMirror", {"a": 0, "b": 1, "c": 2}, "A2")
    for idx in range(8):
        bits = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
        assert _xor_eval(pat, 3, bits) == _xor_eval(rep, 3, bits)
        assert _xor_eval(pat, 3, bits) == (bits[0], bits[0] ^ bits[1], bits[0] ^ bits[1] ^ bits[2])


def test_r7_xor_algebra_all_basis_states():
    pat, rep = instantiate("R7_ParallelToLambda", {"c": 0, "t1": 1, "t2": 2})
    for idx in range(8):
        bits = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
        assert _xor_eval(pat, 3, bits) == _xor_eval(rep, 3, bits)


def test_r5_exact_identity_both_variants():
    # the distributed forms equal CNOT(c, t) tensor identity(a) exactly
    expected = build_unitary(circuit(3, 0, [Gate2("CNOT", 0, 2)]))
    for variant in ("i", "ii"):
        _, rep = instantiate("R5_DistributeCNOT", {"c": 0, "t": 2, "a": 1}, variant)
        u = build_unitary(circuit(3, 0, rep))
        assert np.max(np.abs(u - expected)) <= 1e-12
    # permutation matrices are integral, so this is exact
    assert np.array_equal(expected, expected.round())


def test_r6_r7_unitary_identity():
    for rule_id, variants in (
        ("R6_CNOTMirror", ("A0", "A1", "A2", "B0", "B1", "B2")),
        ("R7_ParallelToLambda", ("default",)),
    ):
        for variant in variants:
            b = (
                {"a": 0, "b": 1, "c": 2}
                if rule_id == "R6_CNOTMirror"
                else {"c": 0, "t1": 1, "t2": 2}
            )
            pat, rep = instantiate(rule_id, b, variant)
            u = build_unitary(circuit(3, 0, pat))
            v = build_unitary(circuit(3, 0, rep))
            assert np.max(np.abs(u - v)) <= 1e-12, (rule_id, variant)


N_BINDINGS = 50


@pytest.mark.parametrize("rule_id", CATALOG_IDS)
def test_rule_soundness(rule_id):
    """50 random bindings: pattern and replacement are channel-equal, and
    pure-gate rules agree as exact unitaries with no global phase."""
    rng = np.random.default_rng(zlib.crc32(rule_id.encode()))
    rule = RULES[rule_id]
    for k in range(N_BINDINGS):
        variant = rule.variants[k % len(rule.variants)]
        bindings = random_bindings(rng, rule_id, variant)
        c1, c2 = rule_pair(rule_id, bindings, variant)
        ch_ok = channel_equal(extract_channel(c1), extract_channel(c2))
        if not ch_ok:
            # anti-bug cross check before declaring failure
            assert oracle_equal(c1, c2), (rule_id, variant, bindings)
            raise AssertionError(f"channel mismatch for {rule_id} {bindings}")
        if pure_gate(rule) and rule_id != "R1_InverseCancel":
            assert unitary_equal(build_unitary(c1), build_unitary(c2)), (
                rule_id,
                variant,
                bindings,
            )
        elif rule_id == "R1_InverseCancel":
            assert unitary_equal(build_unitary(c1), build_unitary(c2))


@pytest.mark.parametrize("rule_id", [r for r in STRUCTURAL_IDS if r != "Commute"])
def test_structural_rule_soundness(rule_id):
    rng = np.random.default_rng(zlib.crc32(rule_id.encode()))
    rule = RULES[rule_id]
    for k in range(20):
        variant = rule.variants[k % len(rule.variants)]
        bindings = random_bindings(rng, rule_id, variant)
        c1, c2 = rule_pair(rule_id, bindings, variant)
        assert channel_equal(extract_channel(c1), extract_channel(c2)), (
            rule_id,
            variant,
            bindings,
        )


def _host_circuit_for(rule_id, variant, bindings):
    """A circuit containing the rule's forward pattern, for round-trip tests."""
    from util import rule_pair as _rp

    c1, _ = _rp(rule_id, bindings, variant)
    return c1


@pytest.mark.parametrize(
    "rule_id", CATALOG_IDS + tuple(r for r in STRUCTURAL_IDS if r != "Commute")
)
def test_forward_backward_round_trip(rule_id):
    """Applying forward then backward at the produced site restores the circuit."""
    rng = np.random.default_rng(zlib.crc32((rule_id + "rt").encode()))
    rule = RULES[rule_id]
    for k in range(len(rule.variants)):
        variant = rule.variants[k]
        bindings = random_bindings(rng, rule_id, variant)
        host = _host_circuit_for(rule_id, variant, bindings)
        fwd = [
            m
            for m in find_matches(host, rule_id, "forward")
            if m.variant == variant and dict(m.bindings).items() <= bindings.items()
        ]
        assert fwd, (rule_id, variant, bindings)
        mid = rewrite_at(host, fwd[0])
        back = [
            m
            for m in find_matches(mid, rule_id, "backward")
            if m.variant == variant
        ]
        restored = [rewrite_at(mid, m) for m in back]
        assert any(r == host for r in restored), (rule_id, variant)


def test_target_plus_condition_cases():
    fires = parse("qubits 2\ncbits 0\nPREP q1 +\nINPUT q0\nCNOT q0 q1")
    assert find_matches(fires, "R1_TargetPlus", "forward")
    # |+> arising from H|0> is also statically provable
    h_plus = parse("qubits 2\ncbits 0\nPREP q1 0\nINPUT q0\nH q1\nCNOT q0 q1")
    ms = find_matches(h_plus, "R1_TargetPlus", "forward")
    assert [m.site for m in ms] == [(1,)]


def test_target_plus_condition_blocks_touched_wire():
    touched = parse("qubits 2\ncbits 0\nPREP q1 +\nINPUT q0\nX q0\nCNOT q0 q1\nCNOT q0 q1")
    ms = find_matches(touched, "R1_TargetPlus", "forward")
    # only the first CNOT sees an untouched |+>; after it the state is unknown
    assert [m.site for m in ms] == [(1,)]


def test_control_zero_condition():
    c = parse("qubits 2\ncbits 0\nPREP q0 0\nINPUT q1\nCNOT q0 q1\nCZ q0 q1")
    ms = find_matches(c, "R1_ControlZero", "forward")
    assert [m.site for m in ms] == [(0,)]  # after the first CNOT, q0 is unknown


def test_rule_iv_requires_discarded_operand():
    # q1 is re-entangled after its measurement: the substitution must not fire
    c = parse(
        "qubits 3\ncbits 3\nINPUT q0\nINPUT q1\nINPUT q2\nOUTPUT q1\n"
        "CNOT q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2"
    )
    assert not find_matches(c, "R4_XorSubstitute", "forward")
    ok = parse(
        "qubits 3\ncbits 3\nINPUT q0\nINPUT q1\nINPUT q2\n"
        "CNOT q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2"
    )
    ms = find_matches(ok, "R4_XorSubstitute", "forward")
    assert [m.site for m in ms] == [(0, 1, 2, 3)]
    new = rewrite_at(ok, ms[0], verify=True)
    assert new.num_cbits == 3  # fresh c2 allocated


_R4_FORWARD = (
    "qubits 3\ncbits 3\nINPUT q0\nINPUT q1\nINPUT q2\n"
    "CNOT q0 q1\nMEASURE q0 c0\nMEASURE q1 c1\nCX c1 q2\n"
)
_R4_BACKWARD = (
    "qubits 3\ncbits 3\nINPUT q0\nINPUT q1\nINPUT q2\n"
    "MEASURE q0 c0\nMEASURE q1 c1\nXOR c0 c1 c2\nCX c2 q2\n"
)
_R4_BINDINGS = {"a": 0, "b": 1, "r1": 0, "r2": 1, "r3": 2, "t": 2}


@pytest.mark.parametrize(
    "direction, host, tail, error",
    [
        ("forward", _R4_FORWARD, "H q1", "wire b is used after"),
        ("forward", _R4_FORWARD, "CZC c1 q0", "r2 has readers outside"),
        ("forward", _R4_FORWARD, "MEASURE q2 c2", "r3 is not fresh"),
        ("backward", _R4_BACKWARD, "H q1", "wire b is used after"),
        ("backward", _R4_BACKWARD, "CZC c1 q0", "r2 has readers outside"),
        ("backward", _R4_BACKWARD, "CX c2 q0", "r3 is not fresh"),
    ],
)
def test_rule_iv_condition_rejections(direction, host, tail, error):
    """Each R4 context check, in both directions: the matcher finds no
    match, and a hand-built match is a RewriteError naming the check.
    Forward, r3 is a fresh wire that only a hand binding can clash with, so
    the matcher's match (r3 allocated) still applies."""
    c = parse(host + tail)
    found = find_matches(c, "R4_XorSubstitute", direction)
    if "r3" in error and direction == "forward":
        assert [m.site for m in found] == [(0, 1, 2, 3)]
        assert rewrite_at(c, found[0], verify=True).num_cbits == 4
    else:
        assert found == []
    m = match("R4_XorSubstitute", direction, (0, 1, 2, 3), _R4_BINDINGS, "cX")
    with pytest.raises(RewriteError, match=error):
        rewrite_at(c, m)


def test_every_rule_direction_and_variant_is_compiled():
    for rule in RULES.values():
        for direction in DIRECTIONS:
            forms = rule_forms(rule.id, direction)
            assert tuple(forms) == rule.variants
            for variant, form in forms.items():
                assert (form.rule, form.direction, form.variant) == (
                    rule.id, direction, variant,
                )
    assert sum(len(forms) for forms in FORMS.values()) == 72


def test_every_form_variable_has_a_kind():
    for forms in FORMS.values():
        for form in forms.values():
            for var in form.src_vars + form.dst_vars:
                assert form.kinds[var] in ("q", "c"), (form.rule, var)


def test_every_template_slot_is_a_variable_name():
    for forms in FORMS.values():
        for form in forms.values():
            for instr in form.src + form.dst:
                for name, _ in FIELD_KINDS[type(instr)]:
                    assert isinstance(getattr(instr, name), str), (form.rule, instr)
            for p in form.src_preps + form.dst_preps:
                assert all(isinstance(w, str) for w in p.wires), (form.rule, p)


def test_every_condition_test_reads_a_variable_of_its_form():
    # `_admit` binds every variable of both sides before it runs the tests
    conditional = set()
    for forms in FORMS.values():
        for form in forms.values():
            for var, _ in form.condition:
                assert var in form.src_vars + form.dst_vars, (form.rule, var)
                conditional.add(form.rule)
    assert conditional == {
        "R1_TargetPlus", "R1_ControlZero", "R4_XorSubstitute",
        "DiscardedWireTail", "MeasureDiscarded", "BellPrepFold",
    }


def test_pure_gate_rules_are_those_with_only_unconditional_gates():
    # derived from the templates: no condition, no preps, only gates
    assert {rule_id for rule_id, rule in RULES.items() if pure_gate(rule)} == {
        "R1_InverseCancel",
        "R2_CZFlip",
        "R2_CNOTviaCZ",
        "R2_CNOTReversal",
        "R2_HMirror",
        "R5_DistributeCNOT",
        "R6_CNOTMirror",
        "R7_ParallelToLambda",
        "ControlsCommute",
        "TargetsCommute",
        "CzControlCommute",
        "Commute",
    }


def test_only_r4_and_r5_forward_need_fresh_wires():
    # variables a rewrite must allocate: produced side, absent from the
    # matched side, on forms that match instructions (not insertions)
    fresh = {
        (form.rule, form.direction, form.variant): set(form.dst_vars) - set(form.src_vars)
        for forms in FORMS.values()
        for form in forms.values()
        if form.src
    }
    assert {k: v for k, v in fresh.items() if v} == {
        ("R4_XorSubstitute", "forward", "cX"): {"r3"},
        ("R4_XorSubstitute", "forward", "cZ"): {"r3"},
        ("R5_DistributeCNOT", "forward", "i"): {"a"},
        ("R5_DistributeCNOT", "forward", "ii"): {"a"},
    }


def test_instantiate_rejects_unknown_direction_and_missing_pattern_binding():
    with pytest.raises(ValueError, match="unknown direction"):
        instantiate("R2_CZFlip", {"a": 0, "b": 1}, direction="sideways")
    with pytest.raises(ValueError, match="missing binding for 'b'"):
        instantiate("R2_CZFlip", {"a": 0})


def test_ground_renames_qubits_and_cbits_apart():
    # with a classical map, qubit 0 and cbit 0 take different wires
    assert ground([Measure(0, 0)], {0: 1}, {0: 0}) == [Measure(1, 0)]
    assert ground([Measure(0, 0)], {0: 1}) == [Measure(1, 1)]


def test_the_grounding_memo_equals_ground():
    # each form grounds `dst` once per binding tuple; a hit returns the
    # very tuple the miss grounded
    rng = np.random.default_rng(21)
    for forms in FORMS.values():
        for form in forms.values():
            form = dataclasses.replace(form)  # an empty memo
            for _ in range(8):
                b = random_bindings(rng, form.rule, form.variant, n_qubits=6)
                got = form._ground_dst(b)
                assert got == tuple(ground(form.dst, b)), (form.rule, form.variant, b)
                assert form._ground_dst(dict(b)) is got


def test_the_grounding_memo_is_bounded_and_stays_exact():
    form = dataclasses.replace(rule_forms("R1_InverseCancel", "backward")["CNOT"])
    pairs = [(c, t) for c in range(40) for t in range(40) if c != t]
    assert len(pairs) > _GROUND_MEMO_SIZE
    for _ in range(2):  # the second pass re-grounds evicted tuples
        for c, t in pairs:
            b = {"c": c, "t": t}
            assert form._ground_dst(b) == tuple(ground(form.dst, b))
            assert len(form._dst_memo) <= _GROUND_MEMO_SIZE
    assert len(form._dst_memo) == _GROUND_MEMO_SIZE


def test_a_replaced_form_does_not_share_the_grounding_memo():
    # the memo belongs to the form object, not to its rule, direction and
    # variant: a copy with another `dst` grounds its own
    form = rule_forms("R1_InverseCancel", "backward")["H"]
    b = {"w": 2}
    assert form._ground_dst(b) == (Gate1("H", 2), Gate1("H", 2))
    other = dataclasses.replace(form, dst=form.dst[:1])
    assert other._ground_dst(b) == (Gate1("H", 2),)
    assert form._ground_dst(b) == (Gate1("H", 2), Gate1("H", 2))


FORMS_DIGEST = "c8bee896c59b705e4d411215d59703f490c342dca9ec4be7bf2356ff48a215aa"


def test_compiled_forms_are_pinned():
    # every field of every compiled form, conditions by variable only: a
    # change in how rules are stated must compile to the same records
    h = hashlib.sha256()
    for key in sorted(FORMS):
        for variant, f in FORMS[key].items():
            h.update(repr((
                f.rule, f.direction, f.variant, f.src, f.dst, f.src_preps,
                f.dst_preps, f.src_vars, f.dst_vars, sorted(f.kinds.items()),
                sorted(sorted(p) for p in f.alias_ok), [v for v, _ in f.condition],
            )).encode())
    assert h.hexdigest() == FORMS_DIGEST


@pytest.mark.parametrize(
    "template, error",
    [
        ("H w; HH w", "syntax error: 'HH w'"),
        ("CNOT c", "syntax error: 'CNOT c'"),
        ("PREP a 1; CNOT a b", "unknown prep state '1'"),
        ("BELL a", "syntax error: 'BELL a'"),
        ("MEASURE a a", "variable 'a' names both a quantum and a classical wire"),
    ],
)
@pytest.mark.parametrize("side", [0, 1])
def test_malformed_templates_fail_at_compile_time(template, error, side):
    # an unknown mnemonic, a wrong operand count, an unknown prep state, a
    # one-wire BELL and a variable in slots of both kinds, as pattern or as
    # replacement
    pair = (template, "") if side == 0 else ("", template)
    rule = RewriteRule("Malformed", {"default": pair})
    with pytest.raises(ParseError, match=f"^rule Malformed: {re.escape(error)}$"):
        _compile(rule, "forward")
