"""The public surface: every exported name has a caller or a stated reason."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bfdesign

SRC = Path(bfdesign.__file__).parent

# exported names that no module of the package calls, each with its reason
NO_CALLER = {
    "base_sample_size": "user entry point: the single-look baseline with its window",
    "bf01": "user entry point: the Bayes factor of one observed count",
    "calibrate": "user entry point: the first calibrated design in search order",
    "critical_efficacy": "user entry point: the efficacy count at one size; it and the "
    "design grid share bayesfactor.critical_counts",
    "critical_futility": "user entry point: the futility count at one size; it and the "
    "design grid share bayesfactor.critical_counts",
    "evaluate": "user entry point: the characteristics of one given design",
    "predictive_pmf": "user entry point: one predictive mass of the kernel",
    "simon_oc": "user entry point: characteristics of a given Simon design",
}

# ParameterError built outside priors.py: rules that its range checks do not
# state, each with its reason
OWN_CHECK = {
    ("bayesfactor.py", "k_f"): "k_f > 1 has no upper end, and README quotes its message",
}


def _referenced_names():
    """Names loaded or imported by the package's modules other than __init__."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_or_a_reason():
    referenced = _referenced_names()
    assert sorted(set(bfdesign.__all__) - referenced - set(NO_CALLER)) == []
    # the allowlist names only exports that still lack a caller
    assert set(NO_CALLER) <= set(bfdesign.__all__)
    assert not set(NO_CALLER) & referenced


def test_every_import_is_used():
    # a module other than __init__ imports only what it uses, so a removal
    # leaves no dead import behind
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert unused == []


def test_the_oracle_stays_off_the_import_path():
    # a fresh interpreter, so no other test has imported the oracle yet
    script = "import sys, bfdesign, bfdesign.cli; print('bfdesign.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


def test_only_the_oracle_names_the_joint_matrix():
    # predictive defines it and __init__ re-exports it; the closed form
    # never builds the two-batch joint table
    naming = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.FunctionDef):
                names = {node.name}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if "joint_predictive_matrix" in names:
                naming.add(path.name)
    assert naming == {"__init__.py", "oracle.py", "predictive.py"}


def test_the_decision_margin_is_written_once():
    # the float 1e-9 is a constant only where operating defines MARGIN;
    # docstrings and comments may still name it
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and node.value == 1e-9:
                    target = stmt.targets[0].id if isinstance(stmt, ast.Assign) else stmt.lineno
                    sites.append((path.name, target))
    assert sites == [("operating.py", "MARGIN")]


def test_range_rules_live_in_priors():
    # a refusal by name is built by the checks of priors.py, or at a rule
    # of `OWN_CHECK`, and nowhere else
    built = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "priors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ParameterError":
                name = node.args[0]
                built.add((path.name, getattr(name, "value", ast.unparse(name))))
    assert built == set(OWN_CHECK)
