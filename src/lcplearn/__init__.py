"""Learning secret bit strings through a longest-common-prefix oracle.

Classical and quantum learners with exact statevector simulation,
diagonal-oracle circuit synthesis, hardware-topology transpilation with
peephole optimization, and a simplified noisy replay.
"""

from .circuit import CX, H, RZ, SX, X, Z, Circuit, Gate, parse, serialize
from .classical import (
    LowerBoundReport,
    learn_classical,
    min_external_path_length,
    verify_optimality,
)
from .noise import AspReport, NoiseProfile, estimate_asp, exact_asp, run_noisy
from .oracle import (
    PhaseOracle,
    Query,
    QueryLedger,
    SecretString,
    f,
    lcp,
    make_teacher,
    oracle_diagonal,
)
from .quantum import (
    AlgorithmLayout,
    CertificationError,
    QuantumRunResult,
    RoundTrace,
    build_round_circuit,
    certify_round,
    r_operator,
    run_quantum_learn,
)
from .statevector import Statevector, init_basis, simulate
from .synth import (
    WalshSpectrum,
    build_full_circuit,
    synth_R,
    synth_diagonal,
    walsh_decompose,
)
from .transpile import (
    CouplingGraph,
    PassReport,
    QubitMapping,
    optimize,
    rewrite_to_device,
    transpile,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmLayout",
    "AspReport",
    "CX",
    "CertificationError",
    "Circuit",
    "CouplingGraph",
    "Gate",
    "H",
    "LowerBoundReport",
    "NoiseProfile",
    "PassReport",
    "PhaseOracle",
    "QuantumRunResult",
    "QubitMapping",
    "Query",
    "QueryLedger",
    "RZ",
    "RoundTrace",
    "SX",
    "SecretString",
    "Statevector",
    "WalshSpectrum",
    "X",
    "Z",
    "build_full_circuit",
    "build_round_circuit",
    "certify_round",
    "estimate_asp",
    "exact_asp",
    "f",
    "init_basis",
    "lcp",
    "learn_classical",
    "make_teacher",
    "min_external_path_length",
    "optimize",
    "oracle_diagonal",
    "parse",
    "r_operator",
    "rewrite_to_device",
    "run_noisy",
    "run_quantum_learn",
    "serialize",
    "simulate",
    "synth_R",
    "synth_diagonal",
    "transpile",
    "verify_optimality",
    "walsh_decompose",
]
