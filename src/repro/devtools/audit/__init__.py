"""repro audit: the whole-program passes and the CLI that runs them.

One walk of the package root parses each file once
(:mod:`repro.devtools.source`), and every pass reads that parse:

* :mod:`~repro.devtools.audit.importgraph` -- the intra-package import
  DAG against the declared layering in ``[tool.reproaudit]`` (cycles,
  forbidden edges, layer-skipping imports, with a
  ``# reproaudit: allow-edge -- justification`` escape hatch);
* :mod:`~repro.devtools.audit.schemalock` -- every serialized surface
  (record files, shard wire tuple, bench report, span records) against
  the committed ``schemas.lock.json``;
* :mod:`~repro.devtools.audit.apilock` -- the public API of the runtime
  packages against the committed ``api.lock.json``;
* the per-file REP determinism rules (:mod:`repro.devtools.reprolint`).

:mod:`~repro.devtools.audit.driver` wires them behind ``repro audit``
(exit 0 clean, 1 findings, 2 usage/config errors or unparseable
source).
"""
