"""The mutant list of tools/mutants.py against the checkout's sources.

Claims checked here:
    - every listed mutant's old text occurs exactly once in its file, so
      each mutant changes the one place it names
Whether the mutants are killed is the tool's own run; no mutant is
applied here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_names_one_place():
    assert mutants.MUTANTS
    assert mutants.misplaced(ROOT) == []
