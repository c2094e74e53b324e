"""Shared helpers for the test suite: random circuits and rule pair builders."""
from __future__ import annotations

import numpy as np

from qrewrite.circuit import (
    ClassicalCtrl,
    ClassicalXor,
    Gate1,
    Gate2,
    Measure,
    circuit,
    prep_bell,
    prep_plus,
    prep_zero,
)
from qrewrite.rules import ground_preps, instantiate, rule_forms


def random_state(rng: np.random.Generator, n_wires: int) -> np.ndarray:
    vec = rng.normal(size=1 << n_wires) + 1j * rng.normal(size=1 << n_wires)
    return vec / np.linalg.norm(vec)


def random_circuit(
    rng: np.random.Generator,
    max_qubits: int = 5,
    max_cbits: int = 3,
    max_instructions: int = 15,
    allow_measure: bool = True,
    p_input: float = 0.25,
):
    """A random valid circuit: every wire prepped or input, classical wires
    single-assignment, classical reads only after assignment."""
    n = int(rng.integers(2, max_qubits + 1))
    m = int(rng.integers(0, max_cbits + 1)) if allow_measure else 0
    preps, inputs = [], []
    w = 0
    while w < n:
        roll = rng.random()
        if roll < p_input:
            inputs.append(w)
            w += 1
        elif roll < p_input + 0.15 and w + 1 < n:
            preps.append(prep_bell(w, w + 1))
            w += 2
        elif roll < 0.75:
            preps.append(prep_zero(w))
            w += 1
        else:
            preps.append(prep_plus(w))
            w += 1

    body = []
    assigned: list[int] = []
    for _ in range(int(rng.integers(0, max_instructions + 1))):
        kinds = ["g1", "g2", "g2"]
        if m and len(assigned) < m:
            kinds.append("measure")
        if assigned:
            kinds.append("cctrl")
        if assigned and len(assigned) < m:
            kinds.append("xor")
        k = rng.choice(kinds)
        if k == "g1":
            body.append(Gate1(str(rng.choice(["H", "X", "Z"])), int(rng.integers(n))))
        elif k == "g2":
            a, b = rng.choice(n, size=2, replace=False)
            body.append(Gate2(str(rng.choice(["CNOT", "CZ"])), int(a), int(b)))
        elif k == "measure":
            free = [cb for cb in range(m) if cb not in assigned]
            cb = int(rng.choice(free))
            assigned.append(cb)
            body.append(Measure(int(rng.integers(n)), cb))
        elif k == "cctrl":
            body.append(
                ClassicalCtrl(
                    str(rng.choice(["CX", "CZC"])),
                    int(rng.choice(assigned)),
                    int(rng.integers(n)),
                )
            )
        else:
            free = [cb for cb in range(m) if cb not in assigned]
            out = int(rng.choice(free))
            a, b = (int(x) for x in rng.choice(assigned, size=2, replace=True))
            assigned.append(out)
            body.append(ClassicalXor(a, b, out))
    return circuit(n, m, body, preps=preps, inputs=inputs)


def random_bindings(rng: np.random.Generator, rule_id: str, variant: str, n_qubits=4):
    """Random injective wire bindings for a rule variant (aliases respected)."""
    form = rule_forms(rule_id, "forward")[variant]
    used = dict.fromkeys(form.src_vars + form.dst_vars)
    qvars = [v for v in used if form.kinds[v] == "q"]
    cvars = [v for v in used if form.kinds[v] == "c"]
    if rule_id == "CzControlCommute":
        x, y, t = (int(v) for v in rng.choice(n_qubits, size=3, replace=False))
        a = int(rng.choice([w for w in range(n_qubits) if w != t]))
        return {"x": x, "y": y, "t": t, "a": a}
    qs = rng.choice(n_qubits, size=len(qvars), replace=False)
    bindings = {v: int(w) for v, w in zip(qvars, qs)}
    bindings.update({v: i for i, v in enumerate(cvars)})
    return bindings


def rule_pair(rule_id: str, bindings: dict, variant: str, n_qubits: int = 4):
    """Pattern and replacement as standalone circuits with matching roles,
    including the preps a conditional rule relies on."""
    form = rule_forms(rule_id, "forward")[variant]
    pat, rep = instantiate(rule_id, bindings, variant)
    preps_p = ground_preps(form.src_preps, bindings)
    preps_r = ground_preps(form.dst_preps, bindings)
    extra = []
    if rule_id == "R1_TargetPlus":
        extra = [prep_plus(bindings["t"])]
    if rule_id == "R1_ControlZero":
        extra = [prep_zero(bindings["c"])]
    roles = {}
    if rule_id in ("DiscardedWireTail", "MeasureDiscarded"):
        roles = {bindings["w"]: "discard"}
    cbits = [v for k, v in bindings.items() if form.kinds.get(k) == "c"]
    m = max(cbits, default=-1) + 1
    c1 = circuit(n_qubits, m, pat, preps=extra + preps_p, q_roles=dict(roles))
    c2 = circuit(n_qubits, m, rep, preps=extra + preps_r, q_roles=dict(roles))
    return c1, c2
