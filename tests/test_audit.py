"""repro audit: import-graph layering, schema lock, API lock, exit codes.

The fixture corpus under ``tests/data/audit_fixtures/`` exercises each
finding class on miniature trees; the mutation tests copy the real
``src/repro`` into a tmpdir (the ``live_tree`` fixture) and flip one
locked fact at a time; and the meta-test asserts the live tree itself
is audit-clean, mirroring ``test_reprolint.py``'s.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.audit.apilock import extract_api
from repro.devtools.audit.driver import (
    main as audit_main,
    render_text,
    run_audit,
)
from repro.devtools.audit.importgraph import (
    build_graph,
    check_layering,
    find_cycles,
    layer_of,
)
from repro.devtools.audit.schemalock import (
    canonical_json,
    diff_locked,
    extract_schemas,
)
from repro.devtools.config import load_audit_config
from repro.devtools.rules import RULES
from repro.devtools.source import load_tree

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "audit_fixtures"
LIVE_CONFIG = str(REPO_ROOT / "pyproject.toml")

#: Layer table for the three-layer fixture tree.
_FIXTURE_LAYERS = {
    "low": ("pkg.low",),
    "mid": ("pkg.mid",),
    "high": ("pkg.high",),
    "root": ("pkg",),
}
_FIXTURE_MAY_IMPORT = {
    "low": (),
    "mid": ("low",),
    "high": ("mid",),
    "root": ("high", "mid", "low"),
}


def _codes(findings):
    return sorted(f.code for f in findings)


def _fixture_graph(name):
    return build_graph(load_tree(str(FIXTURES / name), "src/pkg"))


# --- import graph: cycles ----------------------------------------------


def test_runtime_cycle_is_arc001():
    graph = _fixture_graph("cycle_tree")
    cycles = find_cycles(graph)
    assert cycles == [("pkg.a", "pkg.b")]
    findings = check_layering(
        graph, {"all": ("pkg",)}, {"all": ()}
    )
    assert _codes(findings) == ["ARC001"]
    assert "pkg.a -> pkg.b -> pkg.a" in findings[0].message


def test_type_checking_edge_breaks_no_cycle():
    graph = _fixture_graph("cycle_tree")
    kinds = {(e.src, e.dst): e.kind for e in graph.edges}
    assert kinds[("pkg.c", "pkg.a")] == "type"
    assert all(
        "pkg.c" not in cycle for cycle in find_cycles(graph)
    )


# --- import graph: layering --------------------------------------------


def test_layering_findings_on_fixture_tree():
    graph = _fixture_graph("layers_tree")
    findings = check_layering(graph, _FIXTURE_LAYERS, _FIXTURE_MAY_IMPORT)
    by_code = {}
    for f in findings:
        by_code.setdefault(f.code, []).append(f)
    # high -> low skips the declared high -> mid -> low chain.
    assert len(by_code["ARC003"]) == 1
    assert "pkg.high.top" in by_code["ARC003"][0].message
    # low -> high is forbidden outright (upward), and so is the
    # unjustified-allow edge low -> mid in excused.py.
    assert len(by_code["ARC002"]) == 2
    # The bare `# reproaudit: allow-edge` is its own finding.
    assert len(by_code["AUD000"]) == 1
    assert by_code["AUD000"][0].path.endswith("excused.py")
    # The justified allow-edge suppressed the low -> high edge there.
    assert not any(
        f.code == "ARC002" and "excused" in f.path and f.line == 3
        for f in findings
    )


def test_unassigned_module_is_arc004():
    graph = _fixture_graph("layers_tree")
    # Without the "root" catch-all and "mid", pkg itself and the two
    # pkg.mid modules belong to no layer.
    layers = {"low": ("pkg.low",), "high": ("pkg.high",)}
    may = {"low": (), "high": ("low",)}
    findings = check_layering(graph, layers, may)
    arc004 = sorted(
        f.message for f in findings if f.code == "ARC004"
    )
    assert len(arc004) == 3
    assert any("pkg.mid.middle" in m for m in arc004)


def test_layer_of_longest_prefix_wins():
    assert layer_of("pkg.low.base", _FIXTURE_LAYERS) == "low"
    assert layer_of("pkg", _FIXTURE_LAYERS) == "root"
    assert layer_of("other.module", _FIXTURE_LAYERS) is None


# --- parse failures: exit 2, never a traceback -------------------------


def test_broken_file_is_fatal_finding():
    tree = load_tree(str(FIXTURES / "broken_tree"), "src/pkg")
    assert len(tree.failures) == 1
    failure = tree.failures[0]
    assert failure.code == "AUD001"
    assert failure.fatal
    # The healthy sibling still parsed.
    assert "pkg.fine" in build_graph(tree).modules


def _findings(root, capsys, *args):
    """Exit status and (code, path, fatal) of every finding of a JSON
    audit of ``root``."""
    status = _audit(root, "--format", "json", *args)
    payload = json.loads(capsys.readouterr().out)
    return status, [(f["code"], f["path"], f["fatal"]) for f in payload["findings"]]


def test_audit_cli_exits_2_on_broken_source(live_tree, capsys):
    (live_tree / "src" / "repro" / "broken.py").write_text("def broken(:\n")
    assert _findings(live_tree, capsys) == (
        2,
        [("AUD001", "src/repro/broken.py", True)],
    )


def test_lint_cli_exits_2_on_broken_source(live_tree, capsys):
    # The per-file REP rules that `repro lint` ran now run inside
    # `repro audit`.  A broken file under measure/ lies in every REP
    # rule's scope; the rules must skip it, so the one fatal AUD001 is
    # the whole report (no REP000 beside it, no traceback).
    (live_tree / "src" / "repro" / "measure" / "broken.py").write_text(
        "def broken(:\n"
    )
    assert _findings(live_tree, capsys) == (
        2,
        [("AUD001", "src/repro/measure/broken.py", True)],
    )


def test_audit_cli_exits_2_on_nul_bytes(live_tree, capsys):
    # ast.parse raises ValueError (not SyntaxError) on NUL bytes; the
    # audit must report it once, as a finding, not a traceback.  The
    # module is a locked surface: the lockfile passes must neither
    # report it again as drift nor drop it from the lockfiles.
    (live_tree / "src" / "repro" / "obs" / "span.py").write_text("x = 1\n\x00\n")
    locks = {
        name: (live_tree / name).read_bytes()
        for name in ("schemas.lock.json", "api.lock.json")
    }
    broken = (2, [("AUD001", "src/repro/obs/span.py", True)])
    assert _findings(live_tree, capsys) == broken
    assert _findings(live_tree, capsys, "--update-locks") == broken
    for name, data in locks.items():
        assert (live_tree / name).read_bytes() == data, name


def test_audit_cli_exits_2_on_undecodable_source(live_tree, capsys):
    (live_tree / "src" / "repro" / "latin1.py").write_bytes(b'x = "\xe9"\n')
    assert _findings(live_tree, capsys) == (
        2,
        [("AUD001", "src/repro/latin1.py", True)],
    )


def test_audit_parses_each_file_once(live_tree, monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    findings, files_checked = run_audit(
        load_audit_config(str(live_tree / "pyproject.toml"))
    )
    assert findings == []
    files = sorted(
        p.relative_to(live_tree).as_posix()
        for p in (live_tree / "src" / "repro").rglob("*.py")
    )
    assert files_checked == len(files)
    assert sorted(parsed) == files


def test_retired_lint_entry_points_are_usage_errors(capsys):
    # The per-file rules now always run inside `repro audit`; the old
    # subcommand and the audit flag that folded it in are both gone.
    retired = "lint"
    for argv in (["audit", f"--with-{retired}"], [retired]):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


# --- schema extraction -------------------------------------------------


def test_live_schema_extraction_covers_all_surfaces():
    schemas, findings = extract_schemas(load_tree(str(REPO_ROOT), "src/repro"))
    assert findings == []
    assert sorted(schemas) == [
        "bench_report",
        "record_log",
        "shard_wire",
        "span_record",
        "version",
    ]
    records = schemas["record_log"]
    assert records["format_version"] == 7
    assert ["version", "fingerprint"] in records["record_keys"]
    assert ["shard", "packed"] in records["record_keys"]
    assert ["payload_digest", "payload"] in records["record_keys"]
    assert records["stage_order"][0] == "validate"
    assert len(records["registered_dataclasses"]) == 24
    assert schemas["shard_wire"]["span_row_index"] == 4
    assert schemas["shard_wire"]["trace_codec"] == {
        "_TRACE": "struct.Struct('<IBBI')",
        "_HOP_FIELDS": ["H", "HI", "Hd", "HId"],
        "_STOP_REASONS": "(StopReason.COMPLETED, StopReason.GAP_LIMIT, StopReason.LOOP)",
    }
    assert schemas["bench_report"]["schema"] == "repro-bench-v1"
    span_fields = [f["name"] for f in schemas["span_record"]["fields"]]
    assert span_fields == [
        "span_id",
        "parent_id",
        "name",
        "category",
        "start",
        "duration",
        "counters",
    ]


def test_live_api_extraction_records_slim_sink_surface():
    config = load_audit_config(LIVE_CONFIG)
    api, findings = extract_api(
        load_tree(config.root, config.package_root), config.api_packages
    )
    assert findings == []
    exported = api["measure"]["all"]
    assert "EventSink" in exported
    for gone in ("as_sink", "FanoutSink", "as_event_sink", "ProbeSink", "StatsSink"):
        assert gone not in exported


def test_diff_locked_reports_per_surface():
    locked = {"a": {"x": 1, "y": 2}, "b": {"z": 3}}
    live = {"a": {"x": 1, "y": 9}, "b": {"z": 3}}
    findings = diff_locked(
        locked,
        live,
        "lock.json",
        code="SCH002",
        surface_paths={"a": "src/a.py"},
        update_hint="update",
    )
    assert _codes(findings) == ["SCH002"]
    assert findings[0].path == "src/a.py"
    assert "a.y" in findings[0].message


# --- lockfile round trips on a copied live tree ------------------------


def _audit(root, *args):
    return audit_main(["--config", str(root / "pyproject.toml"), *args])


def test_copied_live_tree_is_clean(live_tree):
    assert _audit(live_tree) == 0


def test_schema_field_mutation_flips_exit_1(live_tree):
    root = live_tree
    span = root / "src" / "repro" / "obs" / "span.py"
    text = span.read_text().replace(
        "    duration: float\n",
        "    duration: float\n    jitter: float = 0.0\n",
        1,
    )
    span.write_text(text)
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    sch = [f for f in findings if f.code == "SCH002"]
    assert any("span_record" in f.message for f in sch)


def test_stage_order_mutation_flips_exit_1(live_tree):
    root = live_tree
    stages = root / "src" / "repro" / "core" / "stages.py"
    stages.write_text(
        stages.read_text().replace('"round1",', '"round1b",', 1)
    )
    assert _audit(root) == 1


def test_api_mutation_flips_exit_1(live_tree):
    root = live_tree
    span = root / "src" / "repro" / "obs" / "span.py"
    span.write_text(
        span.read_text() + "\n\ndef sneaky_new_api():\n    return None\n"
    )
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    assert any(f.code == "API002" for f in findings)


def test_forbidden_edge_mutation_flips_exit_1(live_tree):
    root = live_tree
    asn = root / "src" / "repro" / "net" / "asn.py"
    asn.write_text(
        asn.read_text() + "\nfrom repro.core import anchors  # noqa\n"
    )
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    arc = [f for f in findings if f.code == "ARC002"]
    assert any("repro.net.asn" in f.message for f in arc)


def test_update_locks_round_trip(live_tree):
    root = live_tree
    span = root / "src" / "repro" / "obs" / "span.py"
    span.write_text(
        span.read_text().replace(
            "    duration: float\n",
            "    duration: float\n    jitter: float = 0.0\n",
            1,
        )
    )
    assert _audit(root) == 1
    assert _audit(root, "--update-locks") == 0
    assert _audit(root) == 0
    locked = json.loads((root / "schemas.lock.json").read_text())
    names = [f["name"] for f in locked["span_record"]["fields"]]
    assert "jitter" in names


def test_update_locks_does_not_launder_forbidden_edges(live_tree):
    root = live_tree
    asn = root / "src" / "repro" / "net" / "asn.py"
    asn.write_text(asn.read_text() + "\nfrom repro.core import anchors\n")
    assert _audit(root, "--update-locks") == 1


def test_missing_lockfiles_are_findings(live_tree):
    root = live_tree
    (root / "schemas.lock.json").unlink()
    (root / "api.lock.json").unlink()
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    assert _codes(findings) == ["API001", "SCH001"]
    assert _audit(root) == 1


def test_lockfiles_are_canonical_json():
    for name in ("schemas.lock.json", "api.lock.json"):
        text = (REPO_ROOT / name).read_text()
        assert text == canonical_json(json.loads(text)), name


# --- config ------------------------------------------------------------


def _emitted_codes():
    """Every constant ``code=`` a devtools module passes to ``Finding``
    or ``diff_locked``."""
    codes = set()
    for path in (REPO_ROOT / "src" / "repro" / "devtools").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) not in ("Finding", "diff_locked"):
                continue
            for kw in node.keywords:
                if kw.arg == "code" and isinstance(kw.value, ast.Constant):
                    codes.add(kw.value.value)
    return codes


def test_rule_catalog_covers_every_emitted_code():
    assert _emitted_codes() == set(RULES)
    assert "REP000" in RULES and "AUD001" in RULES


def test_list_rules_exits_0(capsys):
    assert audit_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line[:1].isupper()]
    assert listed == sorted(RULES)
    assert "ARC002" in listed and "SCH002" in listed and "REP007" in listed


# --- the meta-test: the live tree is clean -----------------------------


def test_live_tree_is_audit_clean():
    findings, files_checked = run_audit(load_audit_config(LIVE_CONFIG))
    assert files_checked > 50, "scan missed most of src/repro"
    assert findings == [], "\n" + render_text(
        findings, files_checked=files_checked
    )


def test_live_tree_with_lint_is_clean(capsys):
    # The CI audit job runs exactly this (the REP rules always run):
    # text for the log, JSON for the artifact.
    status = audit_main(["--config", LIVE_CONFIG])
    out = capsys.readouterr().out
    assert status == 0, out
    payload_status = audit_main(["--config", LIVE_CONFIG, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload_status == 0
    assert payload["tool"] == "reproaudit"
    assert payload["findings"] == []


def test_unknown_config_path_exits_2(tmp_path):
    missing = tmp_path / "nope" / "pyproject.toml"
    assert audit_main(["--config", str(missing)]) == 2
    # pyproject.toml is the only config source: no section, no audit.
    bare = tmp_path / "pyproject.toml"
    bare.write_text('[project]\nname = "x"\n')
    assert audit_main(["--config", str(bare)]) == 2
