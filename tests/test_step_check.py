"""Step verification: the window check (`engine._window_equal`), which
decides each verified step on the instructions its match names, and on
its own verdicts on pairs of circuits (the whole-body diff)."""
import dataclasses
from collections import Counter
from itertools import product

import numpy as np
import pytest

from qrewrite import engine, sim
from qrewrite.circuit import CircuitError, Gate1, Gate2, _splice, parse, prep_plus
from qrewrite.engine import (
    VerificationError,
    _gather,
    _window_equal,
    apply_steps,
    find_matches,
    rewrite_at,
    simplify,
)
from qrewrite.equivalence import channel_equal, oracle_equal
from qrewrite.rules import DIRECTIONS, FORMS
from qrewrite.scenarios import _SCRIPTS, derive
from qrewrite.sim import STATE_VECTORS, SimulationError, extract_channel

from util import random_circuit, random_gate_circuit


# derivation -> its number of steps, each accepted by the window check
STEP_COUNTS = {
    "TeleportFromTransfer": 15,
    "DenseFromCopy": 11,
    "GateTeleportFromTeleport": 35,
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


def _committed(c):
    """The match `simplify` commits on `c`: the first of its priority forms."""
    return next(m for rule in engine._SIMPLIFY_PRIORITY for m in find_matches(c, *rule))


def _steps():
    """(before, match, after) for every step of the three derivations and
    of unverified `simplify` on seeded random circuits, then every found
    match of every rule and direction on the sweep corpus."""
    for name in STEP_COUNTS:
        trace = derive(name, verify=False)
        before = [trace.start] + [s.circuit for s in trace.steps]
        for prev, m, step in zip(before, _SCRIPTS[name][1], trace.steps):
            yield prev, m, step.circuit
    rng = np.random.default_rng(77)
    for _ in range(40):
        c = random_circuit(rng, max_qubits=4, max_cbits=2, max_instructions=12)
        _, trace = simplify(c, verify=False)
        before = [c] + [s.circuit for s in trace.steps]
        for prev, step in zip(before, trace.steps):
            m = _committed(prev)
            assert m.label() == step.label
            yield prev, m, step.circuit
    for c in _sweep_corpus():
        for rule, direction in FORMS:
            for m in find_matches(c, rule, direction):
                yield c, m, rewrite_at(c, m)


def test_the_window_check_accepts_only_channel_equal_steps():
    # the window of each step's match decides every step, and each one it
    # accepts is equal by whole-circuit channel equality and by the
    # oracle, which also compares the reports
    accepted, unequal = 0, []
    for prev, m, new in _steps():
        assert _window_equal(prev, new, m), m.label()
        accepted += 1
        channel = channel_equal(extract_channel(prev), extract_channel(new))
        if not (channel and oracle_equal(prev, new)):
            unequal.append(m.label())
    assert unequal == []
    assert accepted >= 6_900, accepted


def _reached_by_commute_matches(c, target):
    """Whether found `Commute` matches, each applied where `c` first
    differs from `target`, turn `c` into `target`."""
    while c.body != target.body:
        i = next(k for k, (x, y) in enumerate(zip(c.body, target.body)) if x != y)
        # bring target's instruction at i left, one disjoint swap at a time
        j = c.body.index(target.body[i], i)
        for k in range(j - 1, i - 1, -1):
            found = [m for m in find_matches(c, "Commute") if m.site == (k,)]
            if not found:
                return False
            c = rewrite_at(c, found[0])
    return c == target


def _gathered_steps():
    """(before, match, after, gathered circuit, position, matched
    instructions) for every step of `_steps()` and of unverified `simplify`
    on a 16-qubit gate body, where the matcher skips more often. The
    gathered circuit is `rewrite_at`'s splice with the matched instructions
    in place of the replacement, which puts them at the match's position
    ahead of the skipped ones."""
    wide = random_gate_circuit(np.random.default_rng(16), 16, 200)
    _, trace = simplify(wide, verify=False)
    before = [wide] + [s.circuit for s in trace.steps]
    wide_steps = [(prev, _committed(prev), new) for prev, new in zip(before, before[1:])]
    for prev, m, new in [*_steps(), *wide_steps]:
        pos, end, src, kept = _gather(prev, FORMS[m.rule, m.direction][m.variant], m.site)
        gathered = _splice(prev, pos, end, src, kept, prev.num_cbits, None, ())
        yield prev, m, new, gathered, pos, tuple(src)


def test_the_gathered_circuit_is_reached_by_commute_matches():
    # found disjoint swaps make the gathered circuit of the circuit before
    # the step, so both have one channel and one joint law of the reports
    moved = 0
    for prev, m, _, gathered, pos, src in _gathered_steps():
        assert _reached_by_commute_matches(prev, gathered), m.label()
        matched = m.site if FORMS[m.rule, m.direction][m.variant].src else ()
        assert src == tuple(prev.body[j] for j in matched)
        assert gathered.body[pos : pos + len(src)] == src
        moved += gathered.body != prev.body
    assert moved >= 35, moved


def _common_length(x: tuple, y: tuple) -> int:
    """The length of the longest common prefix of `x` and `y`."""
    return next((k for k, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))


def test_a_step_window_is_read_in_the_gathered_circuit(monkeypatch):
    # a step's window, decided from the circuit before it and the match,
    # hands its window circuits the local form that the whole-body diff of
    # the gathered circuit and the step's circuit hands them, wherever that
    # diff leaves the matched instructions against the replacement
    forms = []
    monkeypatch.setattr(engine, "_window_circuits_equal", lambda *form: forms.append(form) or True)

    def local_form(*args):
        forms.clear()
        _window_equal(*args)
        return list(forms)

    compared = moved = 0
    for prev, m, new, gathered, pos, src in _gathered_steps():
        x, y = gathered.body, new.body
        p = _common_length(x, y)
        if (p, _common_length(x[p:][::-1], y[p:][::-1])) != (pos, len(x) - pos - len(src)):
            continue  # the diff's prefix or suffix reaches into the window
        diff = local_form(gathered, new)
        assert local_form(prev, new, m) == diff, m.label()
        compared += 1
        moved += gathered.body != prev.body and bool(diff)
    assert compared >= 6_000 and moved >= 20, (compared, moved)


def test_a_step_window_refuses_a_circuit_that_is_not_the_rewrite():
    # the step's circuit must be the gathered circuit with the replacement
    # in place of the matched instructions; one that lost a skipped
    # instruction or the rest of the body, or gained one before the match,
    # cannot tell
    c = parse("qubits 3\ncbits 0\nINPUT q0\nINPUT q1\nINPUT q2\nH q0\nCNOT q1 q2\nH q0\nX q2")
    (m,) = find_matches(c, "R1_InverseCancel")
    new = rewrite_at(c, m)
    assert new.body == c.body[1:2] + c.body[3:] and _window_equal(c, new, m)
    for body in (new.body[1:], new.body[:1], (Gate1("Z", 2),) + new.body):
        assert not _window_equal(c, dataclasses.replace(new, body=body), m)


def test_memoized_window_verdicts_equal_the_uncached_decision(monkeypatch):
    # on every step, from an empty memo and again with it warm
    steps = list(_steps())
    memo = engine._window_circuits_equal
    with monkeypatch.context() as m:
        m.setattr(engine, "_window_circuits_equal", memo.__wrapped__)
        uncached = [_window_equal(prev, new, step) for prev, step, new in steps]
    assert memo.cache_info().currsize == 0
    assert [_window_equal(prev, new, step) for prev, step, new in steps] == uncached
    cold = memo.cache_info()
    assert 0 < cold.misses < cold.hits, cold
    assert [_window_equal(prev, new, step) for prev, step, new in steps] == uncached
    assert memo.cache_info().misses == cold.misses


def test_the_fixed_part_equals_the_kron_construction(monkeypatch):
    # each side's window circuit starts in the Kronecker product, qubit 0
    # most significant, of each known qubit's column and an identity for
    # each arbitrary one: the isometry of a window with no instruction
    seen = []
    monkeypatch.setattr(engine, "channel_equal", lambda a, b: seen.extend((a, b)) or True)
    for k in (1, 2, 3):
        for states in product([None, *STATE_VECTORS], repeat=k):
            qubits = tuple((state, "output") for state in states)
            assert engine._window_circuits_equal.__wrapped__((), (), qubits, (), (), ())
            want = np.ones((1, 1))
            for state in states:
                want = np.kron(want, np.eye(2) if state is None else STATE_VECTORS[state][:, None])
            assert len(seen) == 2
            assert all(np.array_equal(ch.kraus, want[None]) for ch in seen), states
            seen.clear()


def test_one_local_form_on_other_wires_shares_one_memo_entry():
    # CNOT from an input onto a |0> wire, twice, on (q0, q1) and on (q2, q1):
    # numbered in order of first appearance, both are CNOT 0 1 on (None, zero)
    head = "qubits 3\ncbits 0\nINPUT q0\nPREP q1 0\nINPUT q2\n"
    memo = engine._window_circuits_equal
    for pair in ("CNOT q0 q1\nCNOT q0 q1", "CNOT q2 q1\nCNOT q2 q1"):
        a = parse(head + pair)
        (m,) = find_matches(a, "R1_InverseCancel")
        assert _window_equal(a, rewrite_at(a, m), m)
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
                    window = _window_equal(c, new, m)
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
                    if _window_equal(c, new, m):
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
    assert not _window_equal(c, rewrite_at(c, m), m)
    with pytest.raises(VerificationError, match=rule):
        rewrite_at(c, m, verify=True)
    with pytest.raises(VerificationError, match=rule):
        apply_steps(c, [m])


@pytest.mark.parametrize("name", list(STEP_COUNTS))
def test_each_step_records_the_check_that_accepted_it(monkeypatch, name):
    # a verified step extracts no whole-circuit channel, only those of its
    # small window circuits
    calls = Counter()

    def counting(c):
        calls[c] += 1
        return extract_channel(c)

    monkeypatch.setattr(engine, "extract_channel", counting)
    trace = derive(name)
    assert len(trace.steps) == STEP_COUNTS[name]
    assert all(s.verified is True for s in trace.steps)
    whole = {trace.start, *(s.circuit for s in trace.steps)}
    assert calls and not whole & set(calls)
    assert {s.verified for s in derive(name, verify=False).steps} == {None}


def test_simplify_by_window_checks_alone_extracts_no_channel(monkeypatch):
    c = parse(
        "qubits 3\ncbits 0\nPREP q0 0\nINPUT q1\nPREP q2 +\n"
        "H q1\nH q1\nX q0\nX q0\nCNOT q0 q1\nCNOT q1 q2\nCZ q1 q2\nCZ q1 q2"
    )

    def refuse_whole(window):
        # every circuit of this simplify has 3 qubits, each window 2 or fewer
        if window.num_qubits == c.num_qubits:
            raise AssertionError("whole-circuit channel extracted")
        return extract_channel(window)

    monkeypatch.setattr(engine, "extract_channel", refuse_whole)
    final, trace = simplify(c)
    assert final.body == ()
    assert [s.verified for s in trace.steps] == [True] * 5


def test_each_verified_step_runs_the_window_check_once(monkeypatch):
    # `rewrite_at` is the one place a step is verified; `apply_steps` and
    # `simplify` verify through it
    checked = []

    def counting(a, b, m=None):
        checked.append(m)
        return _window_equal(a, b, m)

    monkeypatch.setattr(engine, "_window_equal", counting)
    c = parse("qubits 2\ncbits 0\nINPUT q0\nINPUT q1\nH q0\nCNOT q0 q1\nCNOT q0 q1\nH q0")
    m = find_matches(c, "R1_InverseCancel")[0]
    rewrite_at(c, m)
    assert checked == []
    rewrite_at(c, m, verify=True)
    assert checked == [m]
    for verify in (True, False):
        checked.clear()
        final, trace = simplify(c, verify)
        assert final.body == () and len(trace.steps) == 2
        assert [m.label() for m in checked] == ([s.label for s in trace.steps] if verify else [])
        start, steps, _ = _SCRIPTS["DenseFromCopy"]
        checked.clear()
        trace = apply_steps(parse(start), steps, verify)
        assert checked == (steps if verify else [])
        assert [s.verified for s in trace.steps] == [verify or None] * len(steps)


def test_a_site_restricted_search_finds_the_listed_match():
    # `_found` builds every found match; restricted to a listed match's
    # site it yields that match first, with the same admission. An
    # insertion's site is its position alone, so there it yields a match
    # with no bindings, whose admission is one of those listed there
    exact = inserted = 0
    for c in _sweep_corpus():
        for rule, direction in FORMS:
            listed = find_matches(c, rule, direction)
            for m in listed:
                form = m._admitted.form
                first = next(engine._found(c, form, m.site), None)
                if form.src or rule == "Commute":
                    assert first == m and first._admitted == m._admitted, m
                    exact += 1
                else:
                    assert first is not None, m
                    assert first.bindings == () and first._admitted in [
                        x._admitted for x in listed if x.site == m.site and x._admitted.form is form
                    ], m
                    inserted += 1
    assert exact >= 300 and inserted >= 6_000, (exact, inserted)


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


def _r4_across(n: int) -> str:
    """R4_XorSubstitute on inputs q0, q1 and q(n-1), reporting c0, with a
    CNOT chain on the n - 4 wires between skipped between its first and
    second instructions."""
    chain = "\n".join(f"CNOT q{i} q{i + 1}" for i in range(2, n - 2))
    inputs = "\n".join(f"INPUT q{i}" for i in range(n))
    return (
        f"qubits {n}\ncbits 2\n{inputs}\nREPORT c0\nCNOT q0 q1\n{chain}\n"
        f"MEASURE q0 c0\nMEASURE q1 c1\nCX c1 q{n - 1}\n"
    )


@pytest.mark.parametrize("n, length", [(16, 200), (24, 400), (64, 400)])
def test_verified_simplify_is_unverified_simplify_at_any_width(n, length):
    # each window holds its bound wires alone, so width costs it nothing:
    # at 64 qubits the whole-body diff of a step spans more than 2^48 bytes
    c = random_gate_circuit(np.random.default_rng(n), n, length)
    final, trace = simplify(c)
    plain, untraced = simplify(c, verify=False)
    assert final == plain and len(trace.steps) >= 10
    assert [s.label for s in trace.steps] == [s.label for s in untraced.steps]
    assert all(s.verified is True for s in trace.steps)


def test_the_window_check_is_refused_over_the_byte_budget(monkeypatch):
    # 14 qubits of unknown state: a (2^14, 2^14) isometry, 4 GiB, for the
    # whole-body diff; a step's window holds its bound wires alone, so
    # verified `simplify` cancels the two Hs on q0 by themselves
    a = parse(_cancel_across(14))
    b = dataclasses.replace(a, body=a.body[1:-1])
    with pytest.raises(SimulationError, match="prepared state needs 4294967296 bytes"):
        _window_equal(a, b)
    final, trace = simplify(a)
    assert final == b and [s.label for s in trace.steps] == ["R1_InverseCancel [H] @ (0, 13) {w=0}"]
    # R4 binds six wires across a 14-qubit chain: three input qubits, a
    # copied report and two summed cbits, so 2^4 x 2^3 entries of 16 bytes,
    # at and just over the budget
    c = parse(_r4_across(14))
    (m,) = find_matches(c, "R4_XorSubstitute")
    assert len(m.bindings) == 5 and m.site[1] - m.site[0] == 11
    monkeypatch.setattr(sim, "BYTE_BUDGET", 2048)
    assert rewrite_at(c, m, verify=True) == rewrite_at(c, m)
    monkeypatch.setattr(sim, "BYTE_BUDGET", 2047)
    with pytest.raises(SimulationError, match="prepared state needs 2048 bytes"):
        rewrite_at(c, m, verify=True)
    with pytest.raises(SimulationError, match="prepared state needs 2048 bytes"):
        apply_steps(c, [m])
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
