"""The public API holds only what the product or an acceptance check uses:
every export, every public method and property of a library class, and
every error type."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kerrmoyal"

# Exported names that serve an acceptance check rather than the product or
# the benchmark, each with the test it serves.
ACCEPTANCE_REFERENCES = {
    # classical-limit asymptotics, acceptance criterion 08
    "semiclassical_trajectory": ("test_acceptance.py",
                                 "test_criterion_08_semiclassical_convergence"),
    "jacobi_residual": ("test_acceptance.py",
                        "test_criterion_08_semiclassical_convergence"),
    "expectation_a_semiclassical": ("test_acceptance.py",
                                    "test_criterion_08_semiclassical_convergence"),
}


def _referenced_names(tree):
    """Names read (Load context) as a Name or an Attribute node; a definition
    or an assignment, docstrings and imports do not count."""
    loads = [node for node in ast.walk(tree)
             if isinstance(getattr(node, "ctx", None), ast.Load)]
    return ({node.id for node in loads if isinstance(node, ast.Name)}
            | {node.attr for node in loads if isinstance(node, ast.Attribute)})


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported_names():
    return {alias.asname or alias.name
            for node in ast.walk(_parse(PACKAGE / "__init__.py"))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _product_reads():
    """Every name read in the library (bar __init__.py) or in perfbench."""
    users = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    users += list((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_referenced_names(_parse(path)) for path in users))


def _public_members():
    """(module, class, name) of every public method and property a library
    class defines; dunder and underscore names are not public."""
    return {(path.name, cls.name, node.name)
            for path in PACKAGE.glob("*.py")
            for cls in ast.walk(_parse(path)) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_every_export_has_a_caller_or_an_acceptance_test():
    unused = _exported_names() - _product_reads() - set(ACCEPTANCE_REFERENCES)
    assert not unused, f"exported but called only by tests: {sorted(unused)}"


def test_every_public_method_and_property_has_a_product_reader():
    reads = _product_reads()
    unread = sorted(f"{module}: {cls}.{name}" for module, cls, name in _public_members()
                    if name not in reads)
    assert not unread, f"methods and properties read only by tests: {unread}"


def test_acceptance_references_are_exported_and_used_by_their_test():
    exported = _exported_names()
    stale = set(ACCEPTANCE_REFERENCES) & _product_reads()
    assert not stale, f"acceptance references with a product reader: {sorted(stale)}"
    for name, (module, test) in ACCEPTANCE_REFERENCES.items():
        assert name in exported, name
        [func] = [node for node in ast.walk(_parse(ROOT / "tests" / module))
                  if isinstance(node, ast.FunctionDef) and node.name == test]
        assert name in _referenced_names(func), (name, test)


def test_every_error_type_is_raised_by_name():
    # an error type raised only through a variable (a class passed as an
    # argument) can outlive the last condition that chose it
    errors = _parse(PACKAGE / "errors.py")
    types = {"KerrMoyalError"}
    for node in errors.body:    # in order, so a subclass of a subclass counts
        if isinstance(node, ast.ClassDef) and {b.id for b in node.bases} & types:
            types.add(node.name)
    raised = {node.exc.func.id
              for path in PACKAGE.glob("*.py") for node in ast.walk(_parse(path))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    never = sorted(types - {"KerrMoyalError"} - raised)
    assert not never, f"error types never raised by name: {never}"
