"""Step verification's two tiers: the window check (`engine._window_equal`)
and the whole-circuit channel check behind it."""
import dataclasses
from collections import Counter
from itertools import product

import numpy as np
import pytest

from qrewrite import engine, sim
from qrewrite.circuit import Gate1, Gate2, parse
from qrewrite.engine import (
    VerificationError,
    _window_equal,
    apply_steps,
    find_matches,
    rewrite_at,
    simplify,
)
from qrewrite.equivalence import channel_equal, oracle_equal
from qrewrite.rules import DIRECTIONS, FORMS
from qrewrite.scenarios import derive
from qrewrite.sim import STATE_VECTORS, SimulationError, extract_channel

from util import random_circuit


# derivation -> steps accepted by the window check and by the channel check
TIERS = {
    "TeleportFromTransfer": {"window": 9, "channel": 6},
    "DenseFromCopy": {"window": 5, "channel": 6},
    "GateTeleportFromTeleport": {"window": 21, "channel": 14},
}


def _with_random_roles(rng, c):
    q_roles = tuple(str(r) for r in rng.choice(["output", "discard"], size=c.num_qubits))
    c_roles = tuple(str(r) for r in rng.choice(["scratch", "report"], size=c.num_cbits))
    return dataclasses.replace(c, q_roles=q_roles, c_roles=c_roles)


def _sweep_corpus():
    rng = np.random.default_rng(777)
    return [
        _with_random_roles(rng, random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=10))
        for _ in range(40)
    ]


def _steps():
    """(before, after, label) for every step of the three derivations and
    of unverified `simplify` on seeded random circuits, then every found
    match of every rule and direction on the sweep corpus."""
    for name in TIERS:
        trace = derive(name, verify=False)
        before = [trace.start] + [s.circuit for s in trace.steps]
        for prev, step in zip(before, trace.steps):
            yield prev, step.circuit, f"{name}: {step.label}"
    rng = np.random.default_rng(77)
    for _ in range(40):
        c = random_circuit(rng, max_qubits=4, max_cbits=2, max_instructions=12)
        _, trace = simplify(c, verify=False)
        before = [c] + [s.circuit for s in trace.steps]
        for prev, step in zip(before, trace.steps):
            yield prev, step.circuit, f"simplify: {step.label}"
    for c in _sweep_corpus():
        for rule, direction in FORMS:
            for m in find_matches(c, rule, direction):
                yield c, rewrite_at(c, m), m.label()


def test_the_window_check_accepts_only_channel_equal_steps():
    # whenever the window check accepts a step, the whole-circuit channel
    # check accepts it too; a sample of accepted steps on circuits with
    # report roles is also oracle-equal, report distributions included
    accepted, fell_through, unequal = 0, 0, []
    for prev, new, label in _steps():
        if not _window_equal(prev, new):
            fell_through += 1
            continue
        accepted += 1
        if not channel_equal(extract_channel(prev), extract_channel(new)):
            unequal.append(label)
        elif accepted % 25 == 0 and prev.report_cbits and not oracle_equal(prev, new):
            unequal.append(label)
    assert unequal == []
    assert accepted >= 6_000 and fell_through >= 400, (accepted, fell_through)


def test_memoized_window_verdicts_equal_the_uncached_decision(monkeypatch):
    # on every step, from an empty memo and again with it warm
    steps = [(prev, new) for prev, new, _ in _steps()]
    memo = engine._gates_equal_on
    with monkeypatch.context() as m:
        m.setattr(engine, "_gates_equal_on", memo.__wrapped__)
        uncached = [_window_equal(prev, new) for prev, new in steps]
    assert memo.cache_info().currsize == 0
    assert [_window_equal(prev, new) for prev, new in steps] == uncached
    cold = memo.cache_info()
    assert 0 < cold.misses < cold.hits, cold
    assert [_window_equal(prev, new) for prev, new in steps] == uncached
    assert memo.cache_info().misses == cold.misses


def test_the_fixed_part_equals_the_kron_construction(monkeypatch):
    # each side's gates act on the Kronecker product, qubit 0 most
    # significant, of each known qubit's column and an identity for each
    # arbitrary one
    seen = []
    monkeypatch.setattr(engine, "_apply_gates", lambda state, gates: seen.append(state) or state)
    for k in (1, 2, 3):
        for states in product([None, *STATE_VECTORS], repeat=k):
            assert engine._gates_equal_on.__wrapped__((), (), states)
            want = np.ones((1, 1))
            for state in states:
                want = np.kron(want, np.eye(2) if state is None else STATE_VECTORS[state][:, None])
            assert len(seen) == 2
            assert all(np.array_equal(fixed, want) for fixed in seen), states
            seen.clear()


def test_one_local_form_on_other_wires_shares_one_memo_entry():
    # CNOT from an input onto a |0> wire, twice, on (q0, q1) and on (q2, q1):
    # numbered in order of first appearance, both are CNOT 0 1 on (None, zero)
    head = "qubits 3\ncbits 0\nINPUT q0\nPREP q1 0\nINPUT q2\n"
    memo = engine._gates_equal_on
    for pair in ("CNOT q0 q1\nCNOT q0 q1", "CNOT q2 q1\nCNOT q2 q1"):
        a = parse(head + pair)
        assert _window_equal(a, dataclasses.replace(a, body=()))
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1), info


@pytest.fixture
def null_controls_admit_everything(monkeypatch):
    """R1_ControlZero and R1_TargetPlus with every test of their conditions
    admitting everything, in both directions."""
    for rule in ("R1_ControlZero", "R1_TargetPlus"):
        for direction in DIRECTIONS:
            forms = FORMS[rule, direction]
            for variant, form in list(forms.items()):
                admit_all = tuple((var, lambda *args: None) for var, _ in form.condition)
                monkeypatch.setitem(forms, variant, dataclasses.replace(form, condition=admit_all))


def test_the_window_check_refuses_unsound_null_controls(null_controls_admit_everything):
    # without their conditions, the two rules rewrite unsoundly in context;
    # the window check accepts only sound rewrites, and every unsound one
    # fails verification
    accepted = unsound = 0
    for c in _sweep_corpus():
        channel = extract_channel(c)
        for rule in ("R1_ControlZero", "R1_TargetPlus"):
            for direction in DIRECTIONS:
                for m in find_matches(c, rule, direction):
                    new = rewrite_at(c, m)
                    window = _window_equal(c, new)
                    if channel_equal(channel, extract_channel(new)):
                        accepted += window
                        continue
                    unsound += 1
                    assert not window, m.label()
                    with pytest.raises(VerificationError):
                        rewrite_at(c, m, verify=True)
    assert accepted >= 900 and unsound >= 1_500, (accepted, unsound)


# (rule, direction, variant, unsound `dst`, circuit text): each replacement
# changes what a pure-gate form computes in this context
_UNSOUND_DST = {
    "H H is not X": (
        "R1_InverseCancel", "forward", "H", (Gate1("X", "w"),),
        "qubits 1\ncbits 0\nINPUT q0\nH q0\nH q0",
    ),
    "CZ on |++> is not the identity": (
        "R2_CZFlip", "forward", "default", (),
        "qubits 2\ncbits 0\nPREP q0 +\nPREP q1 +\nCZ q0 q1",
    ),
    "CNOT is not CZ between Hs on one side": (
        "R2_CNOTviaCZ", "forward", "default", (Gate1("H", "t"), Gate2("CZ", "c", "t")),
        "qubits 3\ncbits 0\nINPUT q0\nPREP q1 0\nINPUT q2\nH q1\nCNOT q0 q1\nCNOT q1 q2",
    ),
}


@pytest.mark.parametrize("defect", list(_UNSOUND_DST))
def test_an_unsound_pure_gate_form_fails_verification(monkeypatch, defect):
    rule, direction, variant, dst, text = _UNSOUND_DST[defect]
    forms = FORMS[rule, direction]
    monkeypatch.setitem(forms, variant, dataclasses.replace(forms[variant], dst=dst))
    c = parse(text)
    m = next(m for m in find_matches(c, rule, direction) if m.variant == variant)
    assert not _window_equal(c, rewrite_at(c, m))
    with pytest.raises(VerificationError, match=rule):
        rewrite_at(c, m, verify=True)
    with pytest.raises(VerificationError, match=rule):
        apply_steps(c, [m])


@pytest.mark.parametrize("name", list(TIERS))
def test_each_step_records_the_check_that_accepted_it(monkeypatch, name):
    # the start's channel is extracted once, at the first step that needs
    # it; a window-checked step extracts none
    calls = Counter()

    def counting(c):
        calls[c] += 1
        return extract_channel(c)

    monkeypatch.setattr(engine, "extract_channel", counting)
    trace = derive(name)
    assert Counter(s.tier for s in trace.steps) == TIERS[name]
    assert all(s.verified for s in trace.steps)
    channel_steps = [s.circuit for s in trace.steps if s.tier == "channel"]
    assert calls == Counter([trace.start] + channel_steps)
    assert {s.tier for s in derive(name, verify=False).steps} == {None}


def test_simplify_by_window_checks_alone_extracts_no_channel(monkeypatch):
    c = parse(
        "qubits 3\ncbits 0\nPREP q0 0\nINPUT q1\nPREP q2 +\n"
        "H q1\nH q1\nX q0\nX q0\nCNOT q0 q1\nCNOT q1 q2\nCZ q1 q2\nCZ q1 q2"
    )

    def refuse(c):
        raise AssertionError("channel extracted")

    monkeypatch.setattr(engine, "extract_channel", refuse)
    final, trace = simplify(c)
    assert final.body == ()
    assert [s.tier for s in trace.steps] == ["window"] * 5


# (gates that take q0 from |0> to its state, old window, new window): the
# two sides agree only because q0 is |1> (CNOT onto q1 is X q1) or |->
# (CNOT onto q0 kicks back Z onto q1) there
_FIXED = {
    "|1>": ("X q0", "CNOT q0 q1", "X q1"),
    "|->": ("X q0\nH q0", "CNOT q1 q0", "Z q1"),
}
# (how q0 starts, what runs on it first): each leaves q0's state unknown
# to `circuit.wire_state_before`
_UNKNOWN = {
    "after a CNOT from an input": ("PREP q0 0\nINPUT q2", "CNOT q2 q0"),
    "on a Bell wire": ("BELL q0 q2", ""),
    "after a measurement": ("PREP q0 0\nINPUT q2", "MEASURE q0 c0"),
}


def _window_pair(state: str, start: str = "PREP q0 0\nINPUT q2", first: str = ""):
    gates, old, new = _FIXED[state]
    head = f"qubits 3\ncbits 1\n{start}\nINPUT q1\n{first}\n{gates}\n"
    return parse(head + old), parse(head + new)


@pytest.mark.parametrize("state", list(_FIXED))
def test_the_window_check_reads_a_fixed_one_or_minus_wire(state):
    a, b = _window_pair(state)
    assert _window_equal(a, b) and _window_equal(b, a)
    assert channel_equal(extract_channel(a), extract_channel(b))


@pytest.mark.parametrize("unknown", list(_UNKNOWN))
@pytest.mark.parametrize("state", list(_FIXED))
def test_the_window_check_refuses_a_wire_of_unknown_state(state, unknown):
    a, b = _window_pair(state, *_UNKNOWN[unknown])
    assert not _window_equal(a, b) and not _window_equal(b, a)


def _cancel_across(n: int) -> str:
    """`H q0`, a CNOT chain on the other n - 1 inputs, `H q0` again: one
    R1_InverseCancel window over all n qubits, none of known state."""
    chain = "\n".join(f"CNOT q{i} q{i + 1}" for i in range(1, n - 1))
    inputs = "\n".join(f"INPUT q{i}" for i in range(n))
    return f"qubits {n}\ncbits 0\n{inputs}\nH q0\n{chain}\nH q0\n"


def test_the_window_check_is_refused_over_the_byte_budget(monkeypatch):
    # 14 qubits of unknown state: a (2^14, 2^14) isometry, 4 GiB
    a = parse(_cancel_across(14))
    b = dataclasses.replace(a, body=a.body[1:-1])
    with pytest.raises(SimulationError, match="prepared state needs 4294967296 bytes"):
        _window_equal(a, b)
    with pytest.raises(SimulationError, match="prepared state needs"):
        simplify(a)
    # 3 qubits: 2^3 x 2^3 entries of 16 bytes, at and just over the budget
    a = parse(_cancel_across(3))
    b = dataclasses.replace(a, body=a.body[1:-1])
    monkeypatch.setattr(sim, "BYTE_BUDGET", 1024)
    assert _window_equal(a, b)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 1023)
    with pytest.raises(SimulationError, match="prepared state needs 1024 bytes"):
        _window_equal(a, b)
