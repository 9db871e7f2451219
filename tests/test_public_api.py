import ast
from pathlib import Path

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


def _modules() -> dict[str, ast.Module]:
    src = Path(grimm.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _names(tree: ast.Module) -> set[str]:
    """Every identifier a module binds, reads or imports, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_module_layering_is_pinned():
    modules = _modules()
    siblings = {node.module for node in ast.walk(modules["conjectures"])
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert siblings == {"arith", "assign"}
    # The interval strike is arith's own: first_prime and band_primes wrap it.
    assert [name for name, tree in modules.items() if "_strike" in _names(tree)] == ["arith"]
    # A report follows from its command line: no module reads the environment.
    for name, tree in modules.items():
        assert not _names(tree) & {"environ", "getenv"}, name
