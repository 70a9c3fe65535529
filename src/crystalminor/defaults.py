"""Defaults shared by the library and the command line, and the names of
the ``verify`` checks in the order they are registered.  This module
imports nothing, so the parser is built without the modules that use them."""

DEFAULT_CAP = 100_000
DEFAULT_SEED = 20260817
DEFAULT_PHI_SAMPLES = 20
CHECK_NAMES = ("thm5-5", "prop6-1", "prop6-10", "thm5-6", "prop5-1", "prop2-4", "lemma5-4", "axioms")
