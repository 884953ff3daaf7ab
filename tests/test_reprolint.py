"""REP rules: per-rule fixture regression tests + the live-tree meta-test.

Every REP rule is pinned three ways: a known-bad fixture must yield
exactly the expected findings, a known-good fixture must yield none, and
the disable-comment escape hatch must behave (justified suppresses,
unjustified suppresses nothing and is itself REP000).  ``repro audit``
always runs these rules, so the CLI tests run it on a copy of the live
tree, and the meta-test asserts the live ``src/repro`` tree is clean
under the repo's own scoping, so a regression anywhere in the tree
fails tier-1 even before CI's dedicated audit job runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.devtools.audit.driver import main, render_json, render_text, run_audit
from repro.devtools.config import load_audit_config, path_matches
from repro.devtools.reprolint import lint_source
from repro.devtools.rules import Finding, RULES, file_rule_codes

FIXTURES = Path(__file__).parent / "data" / "reprolint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: fixtures checked as if they lived under REP004's strict scope.
STRICT_FIXTURES = frozenset({"rep004_strict_bad.py", "rep004_strict_good.py"})


def _lint_fixture(name: str, codes: List[str]) -> List[Finding]:
    source = (FIXTURES / name).read_text()
    return lint_source(
        source, path=name, codes=codes, strict_clocks=name in STRICT_FIXTURES
    )


# --- rule catalogue ----------------------------------------------------


def test_rule_catalogue_is_complete():
    assert file_rule_codes() == (
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP007",
    )
    for spec in RULES.values():
        assert spec.title and spec.rationale and spec.fix_hint


# --- per-rule fixtures -------------------------------------------------

#: (rule, bad fixture, expected finding count, good fixture)
CASES = [
    ("REP001", "rep001_bad.py", 4, "rep001_good.py"),
    ("REP002", "rep002_bad.py", 4, "rep002_good.py"),
    ("REP003", "rep003_bad.py", 2, "rep003_good.py"),
    ("REP004", "rep004_bad.py", 4, "rep004_good.py"),
    ("REP005", "rep005_bad.py", 4, "rep005_good.py"),
    ("REP006", "rep006_bad.py", 3, "rep006_good.py"),
    ("REP007", "rep007_bad.py", 3, "rep007_good.py"),
    ("REP004", "rep004_strict_bad.py", 4, "rep004_strict_good.py"),
]


@pytest.mark.parametrize("code,bad,expected,good", CASES)
def test_bad_fixture_is_flagged(code, bad, expected, good):
    findings = _lint_fixture(bad, [code])
    assert len(findings) == expected, render_text(findings, files_checked=1)
    assert {f.code for f in findings} == {code}
    for f in findings:
        assert f.line > 0 and f.message and f.fix_hint


@pytest.mark.parametrize("code,bad,expected,good", CASES)
def test_good_fixture_is_clean(code, bad, expected, good):
    findings = _lint_fixture(good, [code])
    assert findings == [], render_text(findings, files_checked=1)


def test_bad_fixtures_clean_under_other_rules():
    """Fixtures are narrow: each bad file violates only its own rule."""
    for code, bad, _expected, _good in CASES:
        others = [c for c in file_rule_codes() if c != code]
        findings = _lint_fixture(bad, others)
        assert findings == [], f"{bad}: {render_text(findings, files_checked=1)}"


def test_rep001_flags_every_receiver_shape():
    """Module stream, attribute stream, alias, and keyed-in-unsafe-loop."""
    messages = [f.message for f in _lint_fixture("rep001_bad.py", ["REP001"])]
    assert any("module-level `random`" in m for m in messages)
    assert any("shared sequential RNG" in m for m in messages)
    assert any("aliased from a shared RNG" in m for m in messages)
    assert any("iteration order the linter cannot prove" in m for m in messages)


def test_rep004_strict_scope_only_adds_findings():
    """The strict scope reports every clock read; elsewhere the
    monotonic clocks stay timing metrics, and no finding is lost."""
    strict_bad = (FIXTURES / "rep004_strict_bad.py").read_text()
    assert lint_source(strict_bad, codes=["REP004"]) == []
    found = lint_source(strict_bad, codes=["REP004"], strict_clocks=True)
    assert [(f.line, f.message.split(" in the ")[0]) for f in found] == [
        (15, "clock read `time.perf_counter`"),
        (22, "clock read `time.monotonic`"),
        (28, "`monotonic` (imported from `time`)"),
        (29, "`monotonic` (imported from `time`)"),
    ]
    good = (FIXTURES / "rep004_good.py").read_text()
    assert len(lint_source(good, codes=["REP004"], strict_clocks=True)) == 3
    for name in ("rep004_bad.py", "rep004_good.py"):
        source = (FIXTURES / name).read_text()
        plain = set(lint_source(source, codes=["REP004"]))
        assert plain <= set(lint_source(source, codes=["REP004"], strict_clocks=True))


# --- the acceptance scenario: PR 3's WhoisRegistry bug ----------------

WHOIS_BUG = '''
import random

class WhoisRegistry:
    def __init__(self, seed, coverage):
        self._seed = seed
        self._coverage = coverage
        self._rng = random.Random(repr(("whois", seed)))

    def _compute(self, key, asn):
        # the draw consumes a shared stream: lookup order changes the answer
        if asn is not None and self._rng.random() >= self._coverage:
            asn = None
        return asn
'''


def test_rep001_catches_the_whois_registry_bug():
    findings = lint_source(WHOIS_BUG, path="whois.py", codes=["REP001"])
    assert len(findings) == 1
    assert findings[0].code == "REP001"
    assert "self._rng" in findings[0].message
    assert "keyed_uniform" in findings[0].fix_hint


# --- disable comments --------------------------------------------------


def test_justified_disable_suppresses():
    findings = _lint_fixture("disable_justified.py", ["REP005"])
    assert findings == [], render_text(findings, files_checked=1)


def test_unjustified_disable_suppresses_nothing():
    findings = _lint_fixture("disable_unjustified.py", ["REP005"])
    codes = sorted(f.code for f in findings)
    assert codes == ["REP000", "REP005"]
    rep000 = next(f for f in findings if f.code == "REP000")
    assert "justification" in rep000.message


def test_disable_for_other_rule_does_not_suppress():
    source = "def f(x=[]):  # reprolint: disable=REP001 -- wrong rule\n    return x\n"
    findings = lint_source(source, codes=["REP005"])
    assert [f.code for f in findings] == ["REP005"]


# --- parse errors ------------------------------------------------------


def test_syntax_error_is_aud001():
    findings = lint_source("def broken(:\n", path="broken.py")
    assert [f.code for f in findings] == ["AUD001"]
    assert findings[0].fatal
    assert "does not parse" in findings[0].message


# --- config ------------------------------------------------------------


def test_rule_scoping_by_path():
    config = load_audit_config(str(REPO_ROOT / "pyproject.toml"))
    # REP001 applies to the measurement layer...
    assert "REP001" in config.codes_for("src/repro/measure/ping.py")
    # ...but not to the world builder (serial RNG by contract)...
    assert "REP001" not in config.codes_for("src/repro/world/build.py")
    # ...and not to the keyed helpers themselves.
    assert "REP001" not in config.codes_for("src/repro/net/rng.py")
    # Unscoped rules apply everywhere.
    assert "REP005" in config.codes_for("src/repro/world/build.py")
    # REP004's strict scope is the adaptive control plane only.
    assert config.strict_clocks("src/repro/measure/health.py")
    assert config.strict_clocks("src/repro/measure/adapt.py")
    assert not config.strict_clocks("src/repro/measure/ping.py")


# --- the meta-test: the live tree is clean -----------------------------


def test_live_tree_is_reprolint_clean():
    config = load_audit_config(str(REPO_ROOT / "pyproject.toml"))
    findings, files_checked = run_audit(config)
    assert files_checked > 50, "scan missed most of src/repro"
    assert findings == [], "\n" + render_text(findings, files_checked=files_checked)
    # A scoping entry that matches no file silently switches its rule off.
    live = [
        p.relative_to(REPO_ROOT).as_posix()
        for p in (REPO_ROOT / "src" / "repro").rglob("*.py")
    ]
    scoped = [*config.rule_paths.values(), *config.rule_exclude.values()]
    for prefix in [p for paths in scoped for p in paths] + list(
        config.rep004_strict_paths
    ):
        assert any(path_matches(path, (prefix,)) for path in live), prefix


# --- output formats and CLI --------------------------------------------


def test_json_report_shape():
    findings = _lint_fixture("rep005_bad.py", ["REP005"])
    payload = json.loads(render_json(findings, files_checked=1))
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"REP005": 4}
    assert "REP005" in payload["rules"]
    assert all(f["code"] == "REP005" for f in payload["findings"])


def test_text_report_mentions_code_and_hint():
    findings = _lint_fixture("rep005_bad.py", ["REP005"])
    text = render_text(findings, files_checked=1)
    assert "REP005" in text
    assert "hint:" in text
    assert "4 finding(s)" in text


def _inject_mutable_default(root: Path) -> str:
    rel = "src/repro/measure/ping.py"
    target = root / rel
    target.write_text(
        target.read_text() + "\n\ndef _collect(into=[]):\n    return into\n"
    )
    return rel


def test_cli_exit_codes(live_tree, capsys):
    config = ["--config", str(live_tree / "pyproject.toml")]
    assert main(config) == 0
    _inject_mutable_default(live_tree)
    assert main(config) == 1
    assert main(["--list-rules"]) == 0
    capsys.readouterr()


def test_cli_json_output(live_tree, capsys):
    rel = _inject_mutable_default(live_tree)
    config = ["--config", str(live_tree / "pyproject.toml")]
    assert main([*config, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"REP005": 1}
    assert payload["rules"]["REP005"]["title"] == RULES["REP005"].title
    assert [f["path"] for f in payload["findings"]] == [rel]
