"""Command-line surface.

JSON reports go to stdout; a short human summary goes to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  A usage error
found after parsing is one `<command>: <message>` line on stderr.
"""

import argparse
import json
import sys
from typing import NoReturn

from .circuit import parse, serialize
from .classical import MAX_EXHAUSTIVE_N, learn_classical
from .noise import NoiseProfile, estimate_asp, exact_asp
from .oracle import QueryLedger, SecretString, make_teacher
from .quantum import run_quantum_learn
from .synth import _build
from .transpile import CouplingGraph, QubitMapping, transpile
from .verify import SUITES, run_suites

SCHEMA_VERSION = 2


def _report(command: str, params: dict, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "parameters": params}
    doc.update(payload)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _refuse(command: str, message: str) -> NoReturn:
    """Refuse a request: one line on stderr, nothing on stdout, exit 2."""
    print(f"{command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _secret(command: str, text: str) -> SecretString:
    if not text or any(c not in "01" for c in text):
        _refuse(command, f"--secret must be a nonempty binary string, got {text!r}")
    return SecretString.from_string(text)


def _cmd_learn(args) -> int:
    s = _secret("learn", args.secret)
    if args.mode == "classical":
        ledger = QueryLedger()
        recovered, queries = learn_classical(make_teacher(s, ledger), s.n)
        payload = {
            "recovered": "".join(map(str, recovered)),
            "classical_queries": ledger.classical_queries,
            "quantum_oracle_uses": 0,
            "total_queries": queries,
        }
    else:
        try:
            result = run_quantum_learn(s, trace=args.trace)
        except ValueError as exc:  # only a traced run has a limit on n
            _refuse("learn", f"--trace: {exc}")
        payload = {
            "recovered": "".join(map(str, result.recovered)),
            "classical_queries": result.classical_queries,
            "quantum_oracle_uses": result.quantum_uses,
            "total_queries": result.total_queries,
        }
        if args.trace:
            payload["trace"] = [
                {
                    "round": rt.round_index,
                    "q_prev": rt.q_prev,
                    "q_cur": rt.q_cur,
                    "prefix": "".join(map(str, rt.prefix)),
                    "candidates": ["".join(map(str, c)) for c in rt.candidates],
                    "alphas": {f"{k1}{k2}": a for (k1, k2), a in rt.alphas.items()},
                    # each snapshot's support: its index's x then q bits to [re, im]
                    "states": {
                        stage: {format(idx, f"0{rt.width}b"): [amp.real, amp.imag] for idx, amp in support.items()}
                        for stage, support in rt.supports.items()
                    },
                }
                for rt in result.traces
            ]
    ok = payload["recovered"] == str(s)
    _report("learn", {"secret": str(s), "mode": args.mode}, payload)
    print(
        f"learn: recovered {payload['recovered']} with {payload['total_queries']} queries",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    s = _secret("synth", args.secret)
    try:
        circuit, oracle_block = _build(s)
    except ValueError as exc:  # under 2 bits, or over the synthesis width limit
        _refuse("synth", str(exc))
    try:
        with open(args.out, "w") as handle:
            handle.write(serialize(circuit))
    except OSError as exc:
        print(f"synth: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    _report(
        "synth",
        {"secret": str(s)},
        {
            "out": args.out,
            "width": circuit.width,
            "gate_counts": circuit.gate_counts(),
            "oracle_gate_counts": oracle_block.gate_counts(),
            "depth": circuit.depth(),
        },
    )
    print(f"synth: wrote {circuit.width}-qubit circuit to {args.out}", file=sys.stderr)
    return 0


def _load_graph(name: str) -> CouplingGraph:
    try:
        if name.endswith(".json"):
            return CouplingGraph.from_json(name)
        return CouplingGraph.named(name)
    except (OSError, ValueError) as exc:
        _refuse("transpile", f"bad --target {name!r}: {exc}")


def _cmd_transpile(args) -> int:
    try:
        with open(args.infile) as handle:
            circuit = parse(handle.read())
    except OSError as exc:
        _refuse("transpile", f"cannot read --in: {exc}")
    except ValueError as exc:
        _refuse("transpile", f"parse failure: {exc}")
    graph = _load_graph(args.target)
    mapping = None
    if args.mapping:
        try:
            mapping = QubitMapping(tuple(int(p) for p in args.mapping.split(",")))
        except ValueError as exc:
            _refuse("transpile", f"bad --mapping {args.mapping!r}: {exc}")
    try:
        final, report = transpile(circuit, graph, mapping=mapping)
    except ValueError as exc:  # too wide, a mapping that does not fit, the search limit, the sweep cap
        _refuse("transpile", str(exc))
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(serialize(final))
        except OSError as exc:
            print(f"transpile: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    _report(
        "transpile",
        {"in": args.infile, "target": args.target},
        {"out": args.out, "report": report.to_dict()},
    )
    counts = report.final_counts
    print(
        f"transpile: mapping {report.mapping}, cx {counts['cx']}, rz {counts['rz']}, "
        f"sx {counts['sx']}, x {counts['x']}, depth {report.final_depth}, "
        f"legal {report.legal}",
        file=sys.stderr,
    )
    return 0 if report.legal else 1


def _cmd_asp(args) -> int:
    s = _secret("asp", args.secret)
    if s.n < 2:
        _refuse(
            "asp",
            "needs a secret of at least 2 bits; a 1-bit secret is learned by "
            "one classical query and has no quantum round to replay",
        )
    if args.noise == "default":
        profile = None  # zero noise
    elif args.noise == "quito":
        profile = NoiseProfile.quito()
    else:
        try:
            profile = NoiseProfile.from_json(args.noise)
        except (OSError, ValueError) as exc:
            _refuse("asp", f"bad --noise {args.noise!r}: {exc}")
    try:
        report = estimate_asp(s, profile, trials=args.trials, shots=args.shots, seed=args.seed)
    except ValueError as exc:  # --trials, --shots or --seed out of range
        _refuse("asp", str(exc))
    exact = exact_asp(s, profile)  # the density matrix of a 5-qubit compile: 4^5 entries
    _report(
        "asp",
        {"secret": str(s), "noise": args.noise, "trials": args.trials, "shots": args.shots, "seed": args.seed},
        {"asp": {**report.to_dict(), "exact": exact, "z": report.z(exact)}},
    )
    print(f"asp: mean {report.mean:.4f} +- {report.stddev:.4f}, exact {exact:.4f}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    sized = [name for name in ("classical", "quantum") if name in names]
    if sized and args.max_n is not None and not 1 <= args.max_n <= MAX_EXHAUSTIVE_N:
        _refuse("verify", f"--max-n for the {'/'.join(sized)} suite must be in 1..{MAX_EXHAUSTIVE_N}, got {args.max_n}")
    rows = run_suites(names, max_n=args.max_n)
    for row in rows:
        print(row.line(), file=sys.stderr)
    passed = sum(r.passed for r in rows)
    print(f"verify: {passed}/{len(rows)} checks passed", file=sys.stderr)
    _report(
        "verify",
        {"suite": args.suite, "max_n": args.max_n},
        {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows]},
    )
    return 0 if passed == len(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcplearn",
        description="Learn secret bit strings through a longest-common-prefix oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="run a learner against a simulated teacher")
    p.add_argument("--secret", required=True, help="the hidden bit string")
    p.add_argument("--mode", choices=("classical", "quantum"), default="quantum")
    p.add_argument("--trace", action="store_true", help="include per-round snapshots")

    p = sub.add_parser("synth", help="emit the full learner circuit as text")
    p.add_argument("--secret", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("transpile", help="fit a circuit file onto a coupling graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", required=True, help="linear3, quito, or a JSON graph file")
    p.add_argument("--mapping", default=None, help="comma-separated physical qubits, else auto")
    p.add_argument("--out", default=None)

    p = sub.add_parser("asp", help="Monte-Carlo success probability under noise")
    p.add_argument("--secret", required=True)
    p.add_argument("--noise", default="default", help="default (no noise), quito, or a JSON file")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--max-n", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "learn": _cmd_learn,
        "synth": _cmd_synth,
        "transpile": _cmd_transpile,
        "asp": _cmd_asp,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
