"""Tests for repro.sanitize — the simulator-source invariant checker.

Covers, per ISSUE 8's acceptance criteria:

* one seeded-violation fixture tree per rule, each firing *exactly* its
  rule ID (``tests/fixtures/sanitize/<rule>/``);
* the shipped ``src/repro`` tree is sanitize-clean (tier-1 gate);
* waiver comments suppress findings without hiding them;
* the declared functional-fingerprint fields are validated at import time;
* lint and sanitize share one registry/severity/report implementation.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.common import RuleRegistry, Severity
from repro.config import GPUConfig, _validate_fingerprint_spec
from repro.errors import ConfigError
from repro.sanitize import (
    RULES,
    SanitizeFinding,
    SanitizeReport,
    default_root,
    sanitize_tree,
)

FIXTURES = Path(__file__).parent / "fixtures" / "sanitize"

ALL_RULES = (
    "DET001",
    "DET002",
    "DET003",
    "OBS001",
)


def unsuppressed_rules(report: SanitizeReport) -> set:
    return {f.rule for f in report.findings if not f.suppressed}


# ----------------------------------------------------------------------
# Per-rule fixtures: each fires exactly its ID
# ----------------------------------------------------------------------
class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_fixture_fires_exactly_its_rule(self, rule_id):
        report = sanitize_tree(FIXTURES / rule_id.lower())
        assert not report.ok
        assert unsuppressed_rules(report) == {rule_id}

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_fixture_clean_under_every_other_rule(self, rule_id):
        others = [r for r in ALL_RULES if r != rule_id]
        report = sanitize_tree(FIXTURES / rule_id.lower(), rules=others)
        assert report.ok
        assert unsuppressed_rules(report) == set()

    def test_all_rules_registered(self):
        assert set(ALL_RULES) == set(RULES)
        for rule_id in ALL_RULES:
            assert RULES[rule_id].severity is Severity.ERROR


# ----------------------------------------------------------------------
# The shipped tree is clean (tier-1 gate)
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_shipped_tree_is_sanitize_clean(self):
        report = sanitize_tree()
        assert report.ok, "\n" + "\n".join(
            str(f) for f in report.findings if not f.suppressed
        )

    def test_waived_findings_are_still_reported(self):
        # The shipped tree carries DET002 waivers; each waived site must
        # surface as a suppressed finding, not vanish.
        report = sanitize_tree()
        waived = [f for f in report.findings if f.suppressed]
        assert any(f.rule == "DET002" for f in waived)
        assert all("(waived)" in str(f) for f in waived)


# ----------------------------------------------------------------------
# Waiver semantics
# ----------------------------------------------------------------------
class TestWaivers:
    def test_inline_and_line_above_forms(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import time\n"
            "t1 = time.time()  # sanitize: waive DET002 -- host bookkeeping\n"
            "# sanitize: waive DET002 -- host bookkeeping\n"
            "t2 = time.time()\n"
        )
        report = sanitize_tree(tmp_path, rules=["DET002"])
        assert report.ok
        assert len(report.findings) == 2
        assert all(f.suppressed for f in report.findings)

    def test_waiver_for_other_rule_does_not_suppress(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import time\n"
            "t = time.time()  # sanitize: waive DET003 -- wrong rule\n"
        )
        report = sanitize_tree(tmp_path, rules=["DET002"])
        assert not report.ok

    def test_multi_rule_waiver(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import time, random\n"
            "# sanitize: waive DET001,DET002 -- seeded fixture\n"
            "t = time.time() + random.random()\n"
        )
        report = sanitize_tree(tmp_path, rules=["DET001", "DET002"])
        assert report.ok
        assert len(report.findings) == 2


# ----------------------------------------------------------------------
# Declared fingerprint constants (config.py satellite)
# ----------------------------------------------------------------------
class TestFingerprintConstants:
    def test_validation_rejects_unknown_functional_path(self, monkeypatch):
        monkeypatch.setattr(
            GPUConfig,
            "FUNCTIONAL_FINGERPRINT_FIELDS",
            {"bad": "l1d.no_such_field"},
        )
        with pytest.raises(ConfigError, match="bad"):
            _validate_fingerprint_spec()

    def test_functional_fingerprint_follows_declared_fields(self):
        base = GPUConfig.default_sim()
        assert set(GPUConfig.FUNCTIONAL_FINGERPRINT_FIELDS) == {
            "warp_size",
            "l1_line_size",
        }
        # Timing-only knobs do not move it; functional knobs do.
        assert (
            base.functional_fingerprint()
            == base.with_scheduler("gto").functional_fingerprint()
        )
        wider = dataclasses.replace(base, warp_size=64)
        assert base.functional_fingerprint() != wider.functional_fingerprint()


# ----------------------------------------------------------------------
# Shared registry machinery (lint/sanitize bugfix satellite)
# ----------------------------------------------------------------------
class TestSharedMachinery:
    def test_lint_and_sanitize_share_the_registry_design(self):
        from repro.analysis import lints

        assert isinstance(lints._REGISTRY, RuleRegistry)
        assert lints.RULES is lints._REGISTRY.rules
        from repro.sanitize import REGISTRY

        assert isinstance(REGISTRY, RuleRegistry)
        assert RULES is REGISTRY.rules

    def test_duplicate_rule_id_rejected(self):
        registry = RuleRegistry("test")

        @registry.rule("X001", Severity.ERROR, "first")
        def first(ctx):
            return iter(())

        with pytest.raises(ValueError, match="duplicate"):

            @registry.rule("X001", Severity.ERROR, "second")
            def second(ctx):
                return iter(())

    def test_finding_renders_like_lint_findings(self):
        finding = SanitizeFinding(
            rule="DET001",
            severity=Severity.ERROR,
            message="boom",
            path="sm/sm.py",
            line=7,
            source="x = 1",
        )
        assert str(finding) == "sm/sm.py:7: error [DET001] boom | x = 1"
        payload = finding.to_dict()
        assert payload["rule"] == "DET001"
        assert payload["severity"] == "error"
        assert payload["path"] == "sm/sm.py"
        assert payload["line"] == 7
        assert payload["suppressed"] is False


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_sanitize_all_json(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["root"] == str(default_root())

    def test_sanitize_single_rule_on_fixture(self, capsys):
        from repro.cli import main

        rc = main(
            ["sanitize", "--rule", "DET002", "--root",
             str(FIXTURES / "det002")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "DET002" in out

    def test_sanitize_unknown_rule(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--rule", "NOPE"]) == 2
        assert "unknown sanitize rule" in capsys.readouterr().err
