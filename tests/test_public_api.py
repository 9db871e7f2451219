import grimm

# The package's public names.  Adding or removing an export changes this
# list on purpose, in the same change.
PUBLIC = [
    "CompositeRun", "CoprimeRepresentation", "Counterexample", "CramerGapRecord",
    "DivisorProbe", "GenerationResult", "GrimmAssignment", "HnSet", "LargestN",
    "PrimePool", "PrimeSieve", "RepresentationDecision", "VerificationReport",
    "Window", "arith", "assign", "conjecture1_probe", "conjecture2_i",
    "conjecture2_ii", "conjectures", "construct_representation", "coprime",
    "cramer_gap_report", "cramer_gap_scan", "default_sieve",
    "enumerate_composite_runs", "enumerate_hn", "exact_representation_exists",
    "factorize", "full_representation", "g_of_m", "generate", "grimm_assignment",
    "hn_cardinality", "in_hn", "is_prime", "matching", "max_matching",
    "prime_divisors", "primegen", "probable_prime", "representation_from_factors",
    "representation_threshold", "scan_counterexamples", "select_pool", "smooth",
    "sweep", "verify_grimm_range", "verify_representation", "verify_small_windows",
    "vp_binomial", "w_of_m",
]


def test_public_names_are_pinned():
    assert sorted(grimm.__all__) == PUBLIC
    assert all(hasattr(grimm, name) for name in PUBLIC)
