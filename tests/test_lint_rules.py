"""Fixture tests for repro.lint: each rule demonstrated positive + negative.

Every rule gets at least one miniature project that *triggers* it and one
that passes clean, built under ``tmp_path`` with the same shape as the real
checkout (``src/repro/...``, ``docs/...``, ``tests/...``).  The suite ends
with the self-check: the actual repository must lint clean modulo the
checked-in ``lint_baseline.json``.
"""

from pathlib import Path

import pytest

from repro.lint import Project, all_rules, load_baseline, run_rules, save_baseline
from repro.lint.baseline import Baseline
from repro.lint.engine import Finding, LintInternalError
from repro.lint.rules import rules_by_id
from repro.lint.rules.codec_symmetry import CodecSymmetryRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.doc_drift import DocDriftRule
from repro.lint.rules.error_hygiene import ErrorHygieneRule
from repro.lint.rules.obs_discipline import ObsDisciplineRule
from repro.lint.rules.registry_sync import RegistrySyncRule

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files):
    """Write *files* (relpath -> text) under tmp_path; return a Project."""
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return Project(tmp_path)


def messages(findings):
    return [f.message for f in findings]


# ---------------------------------------------------------------- R001


class TestDeterminismRule:
    def test_flags_nondeterminism(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/bad.py": (
                "import random\n"
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
                "\n"
                "def pick(items, bag=[]):\n"
                "    bag.append(random.choice(items))\n"
                "    return bag\n"
                "\n"
                "def order(values):\n"
                "    return [v for v in set(values)]\n"
                "\n"
                "def fresh_rng():\n"
                "    return random.Random()\n"
            ),
        })
        found = messages(run_rules(project, [DeterminismRule()]))
        assert any("time.time" in m for m in found)
        assert any("random.choice" in m for m in found)
        assert any("mutable default" in m for m in found)
        assert any("unordered set" in m for m in found)
        assert any("without a seed" in m for m in found)

    def test_clean_deterministic_module(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/good.py": (
                "import random\n"
                "import time\n"
                "\n"
                "def sample(items, seed=0):\n"
                "    rng = random.Random(seed)\n"
                "    return rng.sample(items, 2)\n"
                "\n"
                "def timed():\n"
                "    return time.perf_counter()\n"
                "\n"
                "def order(values):\n"
                "    return [v for v in sorted(set(values))]\n"
            ),
        })
        assert run_rules(project, [DeterminismRule()]) == []

    def test_outside_core_is_not_in_scope(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/bench/timing.py": "import time\nNOW = time.time()\n",
        })
        assert run_rules(project, [DeterminismRule()]) == []

    def test_pragma_suppresses_one_line(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/pragmas.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # lint: ignore[R001]\n"
                "\n"
                "def stamp2():\n"
                "    return time.time()\n"
            ),
        })
        found = run_rules(project, [DeterminismRule()])
        assert len(found) == 1 and found[0].line == 7


# ---------------------------------------------------------------- R002


_R002_COMPLETE = {
    "src/repro/core/config.py": 'MATCHER_BACKENDS = ("hash", "multilevel")\n',
    "src/repro/core/matcher.py": (
        "class HashCandidates:\n    pass\n"
        "class MultiLevelCandidates:\n    pass\n"
        "def make_candidate_set(backend, alpha=5):\n"
        '    if backend == "hash":\n'
        "        return HashCandidates()\n"
        '    if backend == "multilevel":\n'
        "        return MultiLevelCandidates()\n"
        '    raise KeyError(backend)\n'
    ),
    "tests/test_matcher_equivalence.py": (
        "from repro.core.matcher import HashCandidates, MultiLevelCandidates\n"
        "def test_equivalent():\n"
        "    assert HashCandidates and MultiLevelCandidates\n"
    ),
    "docs/performance.md": "Backends: `hash` vs `multilevel`.\n",
}


class TestRegistrySyncRule:
    def test_complete_registry_is_clean(self, tmp_path):
        project = make_project(tmp_path, _R002_COMPLETE)
        assert run_rules(project, [RegistrySyncRule()]) == []

    def test_missing_everywhere_is_flagged(self, tmp_path):
        files = dict(_R002_COMPLETE)
        files["src/repro/core/matcher.py"] = (
            "class HashCandidates:\n    pass\n"
            "def make_candidate_set(backend, alpha=5):\n"
            '    if backend == "hash":\n'
            "        return HashCandidates()\n"
            '    raise KeyError(backend)\n'
        )
        files["tests/test_matcher_equivalence.py"] = (
            "from repro.core.matcher import HashCandidates\n"
            "def test_equivalent():\n"
            "    assert HashCandidates\n"
        )
        files["docs/performance.md"] = "Backends: `hash` only.\n"
        found = messages(run_rules(project := make_project(tmp_path, files),
                                   [RegistrySyncRule()]))
        assert any("not handled" in m for m in found)  # factory
        assert any("never exercises backend 'multilevel'" in m for m in found)
        assert any("does not document backend 'multilevel'" in m for m in found)

    def test_factory_key_missing_from_registry(self, tmp_path):
        files = dict(_R002_COMPLETE)
        files["src/repro/core/config.py"] = 'MATCHER_BACKENDS = ("hash",)\n'
        files["docs/performance.md"] = "Only `hash`.\n"
        files["tests/test_matcher_equivalence.py"] = (
            "from repro.core.matcher import HashCandidates\n"
        )
        found = messages(run_rules(make_project(tmp_path, files),
                                   [RegistrySyncRule()]))
        assert any("missing from MATCHER_BACKENDS" in m for m in found)


# ---------------------------------------------------------------- R003


class TestCodecSymmetryRule:
    def test_missing_inverse_is_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/oneway.py": (
                "def compress_blob(data):\n    return data\n"
                "class Packer:\n"
                "    def encode_row(self, row):\n        return row\n"
            ),
        })
        found = messages(run_rules(project, [CodecSymmetryRule()]))
        assert "module defines compress_blob() but no decompress_blob()" in found
        assert (
            "class Packer defines encode_row() but no decode_row()" in found
        )

    def test_paired_and_nonforward_names_are_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/roundtrip.py": (
                "def compress_blob(data):\n    return data\n"
                "def decompress_blob(data):\n    return data\n"
                "def compression_ratio():\n    return 1.0\n"
                "def compressed_size_bytes():\n    return 0\n"
                "def _compress_private(data):\n    return data\n"
            ),
        })
        assert run_rules(project, [CodecSymmetryRule()]) == []


# ---------------------------------------------------------------- R004


_R004_CATALOG = (
    "def _counter(name):\n"
    "    return name\n"
    "\n"
    'FOO = _counter("foo.count")\n'
)


class TestObsDisciplineRule:
    def test_unregistered_and_dynamic_names_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/obs/catalog.py": _R004_CATALOG,
            "src/repro/emit.py": (
                "def report(registry, suffix):\n"
                '    registry.counter("unregistered.name").inc()\n'
                '    registry.timer("also." + suffix)\n'
                "    local = 'foo.count'\n"
                "    registry.gauge(local)\n"
            ),
        })
        found = messages(run_rules(project, [ObsDisciplineRule()]))
        assert any("'unregistered.name'" in m for m in found)
        assert any("dynamic" in m for m in found)
        assert any("local name 'local'" in m for m in found)

    def test_catalog_constants_and_registered_literals_pass(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/obs/catalog.py": _R004_CATALOG,
            "src/repro/emit.py": (
                "from repro.obs import catalog\n"
                "from repro.obs.catalog import FOO\n"
                "def report(registry):\n"
                "    registry.counter(FOO).inc()\n"
                "    registry.counter(catalog.FOO).inc(2)\n"
                '    registry.counter("foo.count").inc(3)\n'
                "    registry.observe(1.5)\n"
            ),
        })
        assert run_rules(project, [ObsDisciplineRule()]) == []

    def test_obs_internals_are_exempt(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/obs/catalog.py": _R004_CATALOG,
            "src/repro/obs/registry.py": (
                "def merge(self, registry, name):\n"
                "    registry.counter(name)\n"
            ),
        })
        assert run_rules(project, [ObsDisciplineRule()]) == []


# ---------------------------------------------------------------- R005


class TestErrorHygieneRule:
    def test_flags_broad_excepts_builtin_raises_and_shadowing(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/sloppy.py": (
                "def load(path):\n"
                "    try:\n"
                "        return open(path).read()\n"
                "    except:\n"
                "        return None\n"
                "\n"
                "def parse(text):\n"
                "    try:\n"
                "        return int(text)\n"
                "    except Exception:\n"
                '        raise ValueError("bad")\n'
                "\n"
                "def probe(hash, items):\n"
                "    list = [hash]\n"
                "    return list\n"
            ),
        })
        found = messages(run_rules(project, [ErrorHygieneRule()]))
        assert any(m.startswith("bare except") for m in found)
        assert any(m.startswith("broad except Exception") for m in found)
        assert any("raises builtin ValueError" in m for m in found)
        assert any("parameter 'hash'" in m for m in found)
        assert any("shadows builtin 'list'" in m for m in found)

    def test_clean_error_discipline(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/tidy.py": (
                "from repro.core.errors import InvalidInputError\n"
                "\n"
                "def parse(text):\n"
                "    try:\n"
                "        return int(text)\n"
                "    except (TypeError, ValueError) as exc:\n"
                '        raise InvalidInputError("bad input") from exc\n'
                "\n"
                "def abstract():\n"
                "    raise NotImplementedError\n"
            ),
        })
        assert run_rules(project, [ErrorHygieneRule()]) == []


# ---------------------------------------------------------------- R006


class TestDocDriftRule:
    def test_undocumented_export_is_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/__init__.py": (
                '__all__ = ["documented_thing", "missing_thing"]\n'
            ),
            "docs/api.md": "# API\n\n`documented_thing` does things.\n",
        })
        found = run_rules(project, [DocDriftRule()])
        assert len(found) == 1
        assert "missing_thing" in found[0].message

    def test_documented_exports_pass(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/__init__.py": '__all__ = ["documented_thing"]\n',
            "docs/api.md": "`documented_thing` does things.\n",
        })
        assert run_rules(project, [DocDriftRule()]) == []


# ---------------------------------------------------------------- engine plumbing


class TestEngine:
    def test_rules_by_id_rejects_unknown(self):
        with pytest.raises(LintInternalError):
            rules_by_id(["R999"])

    def test_rules_by_id_selects(self):
        rules = rules_by_id(["R003", "R001"])
        assert [r.id for r in rules] == ["R003", "R001"]

    def test_all_rules_cover_r001_to_r010(self):
        assert [r.id for r in all_rules()] == [
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009", "R010",
        ]

    def test_path_filter_restricts_reporting(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/a.py": "import time\nT = time.time()\n",
            "src/repro/core/b.py": "import time\nU = time.time()\n",
        })
        found = run_rules(project, [DeterminismRule()],
                          paths=["src/repro/core/b.py"])
        assert [f.path for f in found] == ["src/repro/core/b.py"]

    def test_syntax_error_is_internal_error(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/broken.py": "def oops(:\n",
        })
        with pytest.raises(LintInternalError):
            run_rules(project, [DeterminismRule()])


class TestBaseline:
    def _finding(self, msg="m"):
        return Finding(path="src/repro/x.py", line=3, rule="R001", message=msg)

    def test_roundtrip_and_split(self, tmp_path):
        target = tmp_path / "baseline.json"
        accepted = self._finding("accepted")
        save_baseline(target, [accepted])
        baseline = load_baseline(target)
        new, suppressed = baseline.split([accepted, self._finding("new")])
        assert [f.message for f in suppressed] == ["accepted"]
        assert [f.message for f in new] == ["new"]

    def test_stale_entries_reported(self, tmp_path):
        target = tmp_path / "baseline.json"
        save_baseline(target, [self._finding("gone")])
        baseline = load_baseline(target)
        assert baseline.stale([]) == [("R001", "src/repro/x.py", "gone")]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json").entries == set()

    def test_wrong_schema_version_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text('{"schema_version": 99, "entries": []}')
        with pytest.raises(LintInternalError):
            load_baseline(target)

    def test_line_numbers_do_not_affect_identity(self):
        a = Finding(path="p", line=1, rule="R001", message="m")
        b = Finding(path="p", line=99, rule="R001", message="m")
        baseline = Baseline(entries={a.key()})
        new, suppressed = baseline.split([b])
        assert new == [] and suppressed == [b]


class TestCli:
    def test_exit_codes_and_json_schema(self, tmp_path, capsys):
        import json

        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/bad.py": "import time\nT = time.time()\n",
        })
        assert main(["--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["findings"][0]["rule"] == "R001"

        (tmp_path / "src/repro/core/bad.py").write_text(
            "import time\nT = time.perf_counter()\n"
        )
        assert main(["--root", str(tmp_path)]) == 0

    def test_internal_error_exit_code(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        assert main(["--root", str(tmp_path / "not-a-checkout")]) == 2

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/bad.py": "import time\nT = time.time()\n",
        })
        assert main(["--root", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "lint_baseline.json").is_file()
        assert main(["--root", str(tmp_path)]) == 0
        assert main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_gha_format_annotations(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/bad.py": "import time\nT = time.time()\n",
        })
        assert main(["--root", str(tmp_path), "--format", "gha"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=src/repro/core/bad.py,line=")
        assert "title=repro.lint R001::" in out
        # workflow-command data must escape newlines and percent signs
        assert "\n" not in out.rstrip("\n").split("::error", 1)[1]

    def test_unknown_pragma_warns_and_strict_exits_2(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/ok.py": (
                "import time\n"
                "T = time.perf_counter()  # lint: ignore[R999]\n"
            ),
        })
        assert main(["--root", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "pragma names unknown rule R999" in err
        assert main(["--root", str(tmp_path), "--strict"]) == 2

    def test_known_pragma_is_not_warned(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/ok.py": (
                "import time\n"
                "T = time.time()  # lint: ignore[R001]\n"
            ),
        })
        assert main(["--root", str(tmp_path), "--strict"]) == 0
        assert "unknown rule" not in capsys.readouterr().err

    def test_changed_mode_filters_to_git_diff(self, tmp_path, capsys):
        import subprocess

        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/committed.py": "import time\nT = time.time()\n",
            "src/repro/core/untouched.py": "import time\nU = time.time()\n",
        })
        git = ["git", "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["add", "-A"], check=True)
        subprocess.run(
            git + ["-c", "user.email=t@t", "-c", "user.name=t",
                   "commit", "-q", "-m", "seed"],
            check=True,
        )
        # untouched since HEAD: nothing to report
        assert main(["--root", str(tmp_path), "--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().out
        # touch one file: only its findings are reported
        (tmp_path / "src/repro/core/committed.py").write_text(
            "import time\nT = time.time()\nX = 1\n"
        )
        assert main(["--root", str(tmp_path), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "committed.py" in out
        assert "untouched.py" not in out

    def test_changed_mode_falls_back_outside_git(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        make_project(tmp_path, {
            "src/repro/core/bad.py": "import time\nT = time.time()\n",
        })
        assert main(["--root", str(tmp_path), "--changed"]) == 1
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert "bad.py" in captured.out


# ---------------------------------------------------------------- the repo itself


class TestRepositoryIsClean:
    def test_repo_lints_clean_modulo_baseline(self):
        project = Project(REPO_ROOT)
        findings = run_rules(project, all_rules())
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        new, _suppressed = baseline.split(findings)
        assert new == [], "non-baselined lint findings:\n" + "\n".join(
            f.render() for f in new
        )

    def test_baseline_has_no_stale_entries(self):
        project = Project(REPO_ROOT)
        findings = run_rules(project, all_rules())
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert baseline.stale(findings) == []
