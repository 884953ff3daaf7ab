"""Developer tooling that enforces the repo's determinism contract.

The load-bearing guarantee of this codebase is bit-for-bit
reproducibility: the golden study digest must be identical across worker
counts, fault plans, and dataset lookup orders.  The invariants that make
that true (keyed RNG draws, frozen configs, sorted iteration on digest
paths, a layered import graph, locked serialized surfaces) used to be
enforced by convention only; ``repro audit`` turns them into one
mechanical check:

* :mod:`repro.devtools.config` -- ``[tool.reproaudit]``, the one config;
* :mod:`repro.devtools.source` -- the one walk and parse of the tree;
* :mod:`repro.devtools.rules` -- the finding catalogue and the per-file
  REP001..REP007 AST rules;
* :mod:`repro.devtools.reprolint` -- disable comments and the per-file
  pass;
* :mod:`repro.devtools.audit` -- the whole-program passes, the CLI and
  its text/JSON renderers.
"""
