"""grimm: computational tools for Grimm's conjecture and coprime
factorizations of binomial coefficients."""

__version__ = "0.1.0"

from .arith import (
    Window,
    PrimeSieve,
    default_sieve,
    factorize,
    is_prime,
    prime_divisors,
    probable_prime,
    representation_threshold,
    vp_binomial,
)
from .assign import (
    Counterexample,
    GrimmAssignment,
    LargestN,
    RepresentationDecision,
    exact_representation_exists,
    g_of_m,
    grimm_assignment,
    scan_counterexamples,
    w_of_m,
)
from .conjectures import (
    CompositeRun,
    CramerGapRecord,
    DivisorProbe,
    VerificationReport,
    conjecture1_probe,
    conjecture2_i,
    conjecture2_ii,
    cramer_gap_report,
    cramer_gap_scan,
    enumerate_composite_runs,
    verify_grimm_range,
    verify_small_windows,
)
from .coprime import (
    CoprimeRepresentation,
    construct_representation,
    full_representation,
    representation_from_factors,
    verify_representation,
)
from .matching import max_matching
from .primegen import GenerationResult, PrimePool, generate, select_pool, sweep
from .smooth import HnSet, enumerate_hn, hn_cardinality, in_hn

__all__ = [name for name in dir() if not name.startswith("_")]
