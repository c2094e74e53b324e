"""Command line front end: run, unitary, check, rewrite, simplify, demo.

Exit codes: 0 success, 1 usage error (or standard output closed early),
2 circuit parse error or unreadable input file, 3 verification failure,
4 not equivalent (for `check`).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .circuit import Circuit, ParseError, parse, serialize
from .engine import (
    VerificationError,
    find_matches,
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
from .rules import RULES
from .scenarios import derive, make
from .sim import build_unitary, extract_channel, run, SimulationError, _require_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_NOT_EQUIV = 4


def format_complex(z: complex) -> str:
    re = 0.0 if abs(z.real) < 1e-12 else z.real
    im = 0.0 if abs(z.imag) < 1e-12 else z.imag
    return f"{re:.12g}{im:+.12g}i"


def format_vector(vec: np.ndarray) -> str:
    return ",".join(format_complex(z) for z in vec)


def parse_ket(spec: str, n_wires: int) -> np.ndarray:
    """Input state: '|01>'-style basis label or comma-separated amplitudes;
    a state over `sim.BYTE_BUDGET` is refused before it is allocated, and
    a NaN or infinite amplitude is refused."""
    spec = spec.strip()
    dim = 1 << n_wires
    _require_budget(dim, "input state")
    if spec.startswith("|"):
        bits = spec[1:-1]
        if spec[-1] not in ">⟩" or len(bits) != n_wires or any(b not in "01" for b in bits):
            raise ValueError(f"bad basis label {spec!r} for {n_wires} wires")
        vec = np.zeros(dim, dtype=complex)
        vec[int(bits, 2) if bits else 0] = 1.0
        return vec
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != dim:
        raise ValueError(f"expected {dim} amplitudes, got {len(parts)}")
    # a trailing "i" is the imaginary unit; "inf" keeps its "i"
    vec = np.array([complex(p[:-1] + "j" if p.endswith("i") else p) for p in parts])
    if not np.isfinite(vec).all():
        raise ValueError("input state has a non-finite amplitude")
    # divided by its largest real or imaginary part first, so the norm
    # neither overflows nor underflows; the float view is divided, since a
    # complex division by a subnormal scale overflows
    scale = np.abs(vec.view(float)).max()
    if scale == 0:
        raise ValueError("input state has zero norm")
    vec = (vec.view(float) / scale).view(complex)
    return vec / np.linalg.norm(vec)


def _count(text: str) -> int:
    """`--shots` or `--seed`: an integer in 0..2^63-1, as numpy takes it."""
    if not (text.isdecimal() and int(text) < 1 << 63):
        raise argparse.ArgumentTypeError(f"expected an integer in 0..2^63-1, got {text!r}")
    return int(text)


class InputFileError(Exception):
    """An input file that is missing, a directory or unreadable."""


def _load(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            text = fh.read()
    except OSError as exc:
        raise InputFileError(exc) from exc
    return parse(text)


def _outcome_text(outcome: dict[int, int]) -> str:
    if not outcome:
        return "-"
    return " ".join(f"c{k}={v}" for k, v in sorted(outcome.items()))


def _cmd_run(args) -> int:
    c = _load(args.file)
    input_state = None
    n_in = len(c.effective_inputs)
    if args.input is not None:
        input_state = parse_ket(args.input, n_in)
    elif n_in:
        print(f"error: circuit has {n_in} input wire(s); pass --input", file=sys.stderr)
        return EXIT_USAGE
    branches = run(c, input_state)
    if args.shots:
        rng = np.random.default_rng(args.seed)
        probs = np.array([b.probability for b in branches])
        counts = rng.multinomial(args.shots, probs / probs.sum())
        for br, n in zip(branches, counts):
            print(f"{_outcome_text(br.outcome)}\t{n}")
    else:
        for br in branches:
            print(
                f"{_outcome_text(br.outcome)}\tp={br.probability:.12g}\t"
                f"{format_vector(br.state)}"
            )
    return EXIT_OK


def _cmd_unitary(args) -> int:
    c = _load(args.file)
    mat = build_unitary(c)
    for row in mat:
        print(format_vector(row))
    return EXIT_OK


def _cmd_check(args) -> int:
    a, b = _load(args.a), _load(args.b)
    mode = args.mode
    probe = None
    if mode in ("unitary", "phase"):
        equal = unitary_equal(
            build_unitary(a), build_unitary(b), up_to_phase=(mode == "phase")
        )
    elif mode == "channel":
        equal = channel_equal(extract_channel(a), extract_channel(b))
    else:
        probe = distinguishing_probe(a, b)
        equal = probe is None
    if equal:
        print(f"equivalent ({mode})")
        return EXIT_OK
    if mode != "oracle":
        try:
            probe = distinguishing_probe(a, b)
        except (EquivalenceError, SimulationError):
            pass
    print(f"not equivalent ({mode})")
    if probe is not None:
        print(f"distinguishing probe: {probe}")
    return EXIT_NOT_EQUIV


def _cmd_rewrite(args) -> int:
    c = _load(args.file)
    if args.rule not in RULES:
        print(f"error: unknown rule id {args.rule!r}", file=sys.stderr)
        return EXIT_USAGE
    direction = "backward" if args.backward else "forward"
    matches = find_matches(c, args.rule, direction)
    if args.list or args.site is None:
        if not matches:
            print("no matches")
        for k, m in enumerate(matches):
            print(f"{k}: {m.label()}")
        return EXIT_OK
    if not 0 <= args.site < len(matches):
        print(f"error: site index {args.site} out of range", file=sys.stderr)
        return EXIT_USAGE
    new = rewrite_at(c, matches[args.site], verify=not args.no_verify)
    print(serialize(new))
    print("UNVERIFIED" if args.no_verify else "VERIFIED")
    return EXIT_OK


def _cmd_simplify(args) -> int:
    final, trace = simplify(_load(args.file), verify=not args.no_verify)
    print(trace.render())
    print("final:")
    print(serialize(final))
    return EXIT_OK


_DEMOS = {
    "teleportation": "TeleportFromTransfer",
    "densecoding": "DenseFromCopy",
    "gateteleportation": "GateTeleportFromTeleport",
}


def _cmd_demo(args) -> int:
    if args.name == "swap":
        xor_swap, alt_swap = make("XorSwap"), make("AltSwap")
        print("XOR swap circuit:")
        print(serialize(xor_swap))
        print("alternative swap circuit:")
        print(serialize(alt_swap))
        u, v = build_unitary(xor_swap), build_unitary(alt_swap)
        swap = np.eye(4)[[0, 2, 1, 3]]
        checks = [
            ("xor swap unitary == SWAP", unitary_equal(u, swap)),
            ("alternative swap unitary == SWAP", unitary_equal(v, swap)),
            ("circuits oracle-equal", oracle_equal(xor_swap, alt_swap)),
        ]
        ok = True
        for label, passed in checks:
            print(f"{label}: {'VERIFIED' if passed else 'FAILED'}")
            ok = ok and passed
        return EXIT_OK if ok else EXIT_VERIFY
    print(derive(_DEMOS[args.name]).render())
    print("final circuit structurally equal to target: VERIFIED")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qrewrite",
        description="Simulate, rewrite and equivalence-check small quantum circuits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a circuit and print branches")
    p.add_argument("file")
    p.add_argument("--input", help="ket spec: |01>-style label or amplitudes")
    p.add_argument("--shots", type=_count, default=0)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("unitary", help="print the unitary of a pure gate circuit")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_unitary)

    p = sub.add_parser("check", help="decide circuit equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--mode", choices=("unitary", "phase", "channel", "oracle"), default="channel"
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("rewrite", help="list or apply rule matches")
    p.add_argument("file")
    p.add_argument("--rule", required=True)
    p.add_argument("--backward", action="store_true")
    p.add_argument("--site", type=int, default=None, help="apply the k-th match")
    p.add_argument("--list", action="store_true")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("simplify", help="greedy verified simplification")
    p.add_argument("file")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=_cmd_simplify)

    p = sub.add_parser("demo", help="replay a verified derivation")
    p.add_argument("name", choices=(*_DEMOS, "swap"))
    p.set_defaults(fn=_cmd_demo)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head -1` does
        # Python's documented idiom: the output still buffered goes to
        # devnull, so the interpreter's flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (SimulationError, EquivalenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
