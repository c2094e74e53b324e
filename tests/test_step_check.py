"""Step verification's two tiers: the window check (`engine._window_equal`)
and the whole-circuit channel check behind it."""
import dataclasses
from collections import Counter
from itertools import product

import numpy as np
import pytest

from qrewrite import engine, sim
from qrewrite.circuit import CircuitError, Gate1, Gate2, parse, prep_plus
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


# derivation -> steps accepted by each check: the window check takes every one
TIERS = {
    "TeleportFromTransfer": {"window": 15},
    "DenseFromCopy": {"window": 11},
    "GateTeleportFromTeleport": {"window": 35},
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


def _window_verdict(prev, new) -> tuple[bool, bool]:
    """The window check's verdict on a step, and whether its window
    circuits decided it (`engine._window_circuits_equal` was consulted)."""
    info = engine._window_circuits_equal.cache_info
    calls = sum(info()[:2])
    verdict = _window_equal(prev, new)
    return verdict, sum(info()[:2]) > calls


def test_the_window_check_accepts_only_channel_equal_steps():
    # whenever the window check accepts a step, the whole-circuit channel
    # check accepts it too; every step its window circuits accept (a window
    # that measures, reads or writes a cbit, changes a prep or traces a
    # qubit out) is also oracle-equal, reports included, as is a sample of
    # the rest on circuits with report roles
    accepted, by_circuits, fell_through, unequal = 0, 0, 0, []
    for prev, new, label in _steps():
        window, circuits = _window_verdict(prev, new)
        if not window:
            fell_through += 1
            continue
        accepted += 1
        by_circuits += circuits
        if not channel_equal(extract_channel(prev), extract_channel(new)):
            unequal.append(label)
        elif circuits or accepted % 25 == 0 and prev.report_cbits:
            if not oracle_equal(prev, new):
                unequal.append(label)
    assert unequal == []
    # the few that fall through are windows the common prefix and suffix
    # cut off from the rewrite's own site (an inserted CNOT next to an equal
    # one), where the control's state is no longer known
    assert accepted >= 6_900 and by_circuits >= 1_500 and 0 < fell_through <= 30, (
        accepted, by_circuits, fell_through,
    )


def test_memoized_window_verdicts_equal_the_uncached_decision(monkeypatch):
    # on every step, from empty memos and again with them warm
    steps = [(prev, new) for prev, new, _ in _steps()]
    memos = (engine._gates_equal_on, engine._window_circuits_equal)
    with monkeypatch.context() as m:
        for memo in memos:
            m.setattr(engine, memo.__wrapped__.__name__, memo.__wrapped__)
        uncached = [_window_equal(prev, new) for prev, new in steps]
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    assert [_window_equal(prev, new) for prev, new in steps] == uncached
    cold = [memo.cache_info() for memo in memos]
    assert all(0 < info.misses < info.hits for info in cold), cold
    assert [_window_equal(prev, new) for prev, new in steps] == uncached
    assert [memo.cache_info().misses for memo in memos] == [info.misses for info in cold]


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


# the rules whose conditions keep their rewrites sound in context
_CONDITIONED = (
    "DiscardedWireTail", "MeasureDiscarded", "BellPrepFold", "R1_ControlZero", "R1_TargetPlus",
)


def test_the_window_check_accepts_no_unsound_rewrite_without_conditions(monkeypatch):
    # with the conditions of the five rules dropped, many of their rewrites
    # change the channel in context; the window check accepts none of them,
    # nor one that changes the reports (the oracle checks every acceptance)
    for rule in _CONDITIONED:
        for direction in DIRECTIONS:
            forms = FORMS[rule, direction]
            for variant, form in list(forms.items()):
                monkeypatch.setitem(forms, variant, dataclasses.replace(form, condition=()))
    rng = np.random.default_rng(2024)
    accepted, unsound, wrong = 0, Counter(), []
    for _ in range(20):
        c = random_circuit(rng, max_qubits=4, max_cbits=3, max_instructions=8)
        c = _with_random_roles(rng, c)
        channel = extract_channel(c)
        for rule in _CONDITIONED:
            for direction in DIRECTIONS:
                for m in find_matches(c, rule, direction):
                    try:
                        new = rewrite_at(c, m)
                    except CircuitError:  # a cbit written twice, a prep clash
                        continue
                    sound = channel_equal(channel, extract_channel(new))
                    unsound[rule] += not sound
                    if _window_equal(c, new):
                        accepted += 1
                        if not (sound and oracle_equal(c, new)):
                            wrong.append(m.label())
    assert wrong == []
    assert accepted >= 500 and sum(unsound.values()) >= 1_000, (accepted, unsound)
    assert all(unsound[rule] for rule in _CONDITIONED), unsound


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
    # it; a window-checked step extracts no whole-circuit channel, only
    # those of its small window circuits
    calls = Counter()

    def counting(c):
        calls[c] += 1
        return extract_channel(c)

    monkeypatch.setattr(engine, "extract_channel", counting)
    trace = derive(name)
    assert Counter(s.tier for s in trace.steps) == TIERS[name]
    assert all(s.verified for s in trace.steps)
    whole = {trace.start, *(s.circuit for s in trace.steps)}
    channel_steps = [s.circuit for s in trace.steps if s.tier == "channel"]
    want = Counter([trace.start] + channel_steps) if channel_steps else Counter()
    assert Counter(c for c in calls.elements() if c in whole) == want
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


def test_a_window_circuit_is_refused_over_the_byte_budget(monkeypatch):
    # R3 on inputs q0, q1 with report c0: window circuits of q0, q1 and one
    # output qubit copying c0, two inputs, so a prepared state of 2^3 x 2^2
    # entries of 16 bytes; refused on a memo hit just as on a miss
    head = "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nREPORT c0\n"
    a = parse(head + "MEASURE q0 c0\nCX c0 q1")
    b = parse(head + "CNOT q0 q1\nMEASURE q0 c0")
    memo = engine._window_circuits_equal
    monkeypatch.setattr(sim, "BYTE_BUDGET", 512)
    assert _window_equal(a, b)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 511)
    with pytest.raises(SimulationError, match="prepared state needs 512 bytes"):
        _window_equal(a, b)  # a hit
    memo.cache_clear()
    with pytest.raises(SimulationError, match="prepared state needs 512 bytes"):
        _window_equal(a, b)  # a miss
    assert memo.cache_info().currsize == 0


@pytest.mark.parametrize(
    "old, new, equal",
    [
        # c0 is written before the window: each of its values is checked
        ("CX c0 q1\nCX c0 q1", "", True),
        ("CX c0 q1", "X q1", False),
        ("CX c0 q1\nH q1\nCZC c0 q1\nH q1", "", True),
    ],
    ids=["cancel", "unequal", "conjugated"],
)
def test_the_window_check_reads_a_cbit_written_before_it(old, new, equal):
    head = "qubits 2\ncbits 1\nINPUT q0\nINPUT q1\nMEASURE q0 c0\n"
    a, b = parse(head + old), parse(head + new)
    assert _window_equal(a, b) is _window_equal(b, a) is equal
    assert channel_equal(extract_channel(a), extract_channel(b)) is equal


def test_the_declarations_may_differ_only_in_scratch_cbits_and_untouched_preps():
    a = parse("qubits 2\ncbits 1\nINPUT q0\nPREP q1 0\nH q0\nMEASURE q0 c0")
    added = dataclasses.replace(a, num_cbits=2, c_roles=("scratch", "scratch"))
    assert _window_equal(a, added) and _window_equal(added, a)
    # an unwritten report is a report outcome of its own
    reported = dataclasses.replace(added, c_roles=("scratch", "report"))
    assert not _window_equal(a, reported)
    # q1 is a |0> or a |+> wire nothing touches: a channel change
    plus = dataclasses.replace(a, preps=(prep_plus(1),))
    assert not _window_equal(a, plus)
    # q1 without its prep is an input: another channel
    assert not _window_equal(a, dataclasses.replace(a, preps=()))
