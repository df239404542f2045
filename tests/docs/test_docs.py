"""Tier-1 documentation checks.

The CI ``docs`` job runs ``tools/check_docs.py`` in full; this suite
keeps the cheap invariants in the tier-1 loop so a broken link or a
drifted example fails locally before CI.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestDocsTree:
    def test_required_pages_exist(self):
        for page in ("architecture.md", "http-api.md", "consistency.md",
                     "fuzzing.md"):
            assert (REPO_ROOT / "docs" / page).is_file(), page

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in ("architecture.md", "http-api.md", "consistency.md",
                     "fuzzing.md"):
            assert f"docs/{page}" in readme, f"README does not link {page}"


class TestLinksAndAnchors:
    def test_no_broken_links_or_anchors(self):
        errors = check_docs.check_links(check_docs.doc_files())
        assert not errors, "\n".join(errors)

    def test_checker_catches_breakage(self, tmp_path, monkeypatch):
        # the checker itself must not silently pass everything
        bad = REPO_ROOT / "docs" / "_nonexistent_target_probe.md"
        assert not bad.exists()
        probe = REPO_ROOT / "docs" / "_probe_tmp.md"
        probe.write_text(
            "[a](_nonexistent_target_probe.md)\n"
            "[b](architecture.md#no-such-anchor)\n"
            "[ok](architecture.md#layers)\n",
            encoding="utf-8",
        )
        try:
            errors = check_docs.check_links([probe])
        finally:
            probe.unlink()
        assert len(errors) == 2, errors

    def test_github_anchor_slugs(self):
        assert check_docs.github_anchor("Views & deltas") == "views--deltas"
        assert check_docs.github_anchor("GET /explain") == "get-explain"
        assert check_docs.github_anchor("The MVCC layer") == "the-mvcc-layer"


class TestRunnableExamples:
    def test_marked_examples_are_extracted(self):
        blocks = check_docs.extract_runnable(
            REPO_ROOT / "docs" / "http-api.md"
        )
        languages = [language for language, _line, _code in blocks]
        assert len(blocks) >= 8
        assert "python" in languages and "bash" in languages
        # every bash example must self-report HTTP failures
        for language, line, code in blocks:
            if language == "bash" and "curl" in code:
                assert "-sf" in code, f"line {line}: curl without -sf"

    @pytest.mark.skipif(shutil.which("curl") is None,
                        reason="curl not installed")
    def test_documented_examples_run_against_live_server(self):
        errors = check_docs.run_examples(
            REPO_ROOT / "docs" / "http-api.md"
        )
        assert not errors, "\n".join(errors)
