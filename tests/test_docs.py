"""Documentation guards: the Sphinx site stays buildable and complete.

Two layers so the guards degrade gracefully:

* Environment-independent checks (always run): every ``repro.*`` module
  imports cleanly and carries a module docstring, every package's
  ``__all__`` names each export exactly once and each name resolves,
  every module appears in exactly one ``automodule`` directive under
  ``docs/api/``, and the hand-written pages parse as reStructuredText
  (docutils, with the Sphinx-specific directives stubbed out).
* The real ``sphinx-build -W`` (runs when sphinx is installed — CI's
  docs job always has it): the whole site must build with warnings as
  errors.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
SRC = REPO / "src"


def all_repro_modules() -> list[str]:
    """Every importable module name under ``src/repro``, from the tree."""
    names = ["repro"]
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        if name != "repro":
            names.append(name)
    return names


class TestDocstringCoverage:
    def test_every_module_imports_and_has_a_docstring(self):
        missing = []
        for name in all_repro_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"


def repro_packages() -> list[str]:
    """Every package under ``src/repro`` (``repro`` itself first)."""
    return [
        ".".join(init.parent.relative_to(SRC).parts)
        for init in sorted((SRC / "repro").rglob("__init__.py"))
    ]


class TestExports:
    def test_every_exported_name_resolves_once(self):
        problems = []
        for name in repro_packages():
            module = importlib.import_module(name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                problems.append(f"{name}: no __all__")
                continue
            problems.extend(
                f"{name}.{attr}: exported but undefined"
                for attr in exported
                if not hasattr(module, attr)
            )
            problems.extend(
                f"{name}.{attr}: exported {exported.count(attr)} times"
                for attr in sorted(set(exported))
                if exported.count(attr) > 1
            )
        assert not problems, problems


class TestApiPagesCoverage:
    def automodule_targets(self) -> list[str]:
        targets = []
        for page in sorted(DOCS.glob("**/*.rst")):
            targets.extend(
                re.findall(r"^\.\.\s+automodule::\s+(\S+)", page.read_text(), re.M)
            )
        return targets

    def test_every_module_is_documented(self):
        documented = set(self.automodule_targets())
        missing = [m for m in all_repro_modules() if m not in documented]
        assert not missing, f"modules absent from docs/api: {missing}"

    def test_no_stale_or_duplicate_automodule_entries(self):
        targets = self.automodule_targets()
        assert len(targets) == len(set(targets)), "duplicate automodule entries"
        known = set(all_repro_modules())
        stale = [t for t in targets if t not in known]
        assert not stale, f"automodule entries with no module behind them: {stale}"


@pytest.fixture(scope="module")
def parse_rst():
    """Docutils parser with the Sphinx-specific constructs stubbed out.

    Returns a callable mapping rst text to ``(line, message)`` pairs for
    every parse problem of warning severity or worse.  Cannot catch
    autodoc problems (CI's ``sphinx-build -W`` does), but catches broken
    literal blocks, lists, tables, and heading underlines without sphinx
    installed.
    """
    pytest.importorskip("docutils")
    from docutils import nodes
    from docutils.core import publish_doctree
    from docutils.parsers.rst import directives, roles
    from docutils.parsers.rst.directives.misc import Class as ClassDirective

    class _Ignore(ClassDirective):
        required_arguments = 0
        optional_arguments = 10
        has_content = True

        def run(self):
            return []

    for name in ("automodule", "toctree", "code-block"):
        directives.register_directive(name, _Ignore)
    for name in ("mod", "class", "func", "meth", "data", "attr", "doc",
                 "ref", "ivar", "obj", "exc"):
        roles.register_local_role(name, roles.GenericRole(name, nodes.literal))

    def _parse(text: str) -> list[tuple[int | None, str]]:
        problems: list[tuple[int | None, str]] = []
        doctree = publish_doctree(
            text,
            settings_overrides={"report_level": 5, "halt_level": 5},
        )
        for node in doctree.findall(lambda n: n.tagname == "system_message"):
            if node["level"] >= 2:
                problems.append((node.get("line"), node.astext()))
        return problems

    return _parse


class TestRstParses:
    """The hand-written pages must be valid rst (docutils-level check)."""

    @pytest.mark.parametrize(
        "page",
        sorted(p.relative_to(DOCS).as_posix() for p in DOCS.glob("**/*.rst")),
    )
    def test_page_parses_clean(self, parse_rst, page):
        problems = parse_rst((DOCS / page).read_text())
        assert not problems, f"{page}: {problems}"


class TestDocstringRst:
    """Docstrings must be valid rst outside napoleon's Google sections.

    Napoleon rewrites ``Args:``/``Attributes:``/... sections before the
    rst parser sees them, so indentation inside those is exempt; anything
    else that docutils flags would also fail ``sphinx-build -W``.
    """

    SECTION = re.compile(
        r"^(Args|Arguments|Attributes|Returns|Yields|Raises|Examples?|"
        r"Notes?|Usage|Warnings?|Warns|Keyword Arg(ument)?s|"
        r"Other Parameters|See Also|Todo):\s*$"
    )

    @classmethod
    def napoleon_section_lines(cls, doc: str) -> set[int]:
        lines = doc.splitlines()
        inside: set[int] = set()
        current = False
        for i, line in enumerate(lines):
            if cls.SECTION.match(line.strip()) and not line.startswith(" "):
                current = True
                continue
            if current:
                if line.strip() and not line.startswith(" "):
                    current = False
                else:
                    inside.add(i + 1)
        return inside

    def public_docstrings(self):
        import inspect

        for name in all_repro_modules():
            module = importlib.import_module(name)
            objs = [("module", module.__doc__)]
            for oname, obj in vars(module).items():
                if getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    objs.append((oname, obj.__doc__))
                    if inspect.isclass(obj):
                        for mname, member in vars(obj).items():
                            doc = getattr(member, "__doc__", None)
                            if doc and (
                                inspect.isfunction(member)
                                or isinstance(member, property)
                            ):
                                objs.append((f"{oname}.{mname}", doc))
            for label, doc in objs:
                if doc:
                    yield f"{name}:{label}", inspect.cleandoc(doc)

    def test_docstrings_parse_outside_napoleon_sections(self, parse_rst):
        problems = []
        for label, doc in self.public_docstrings():
            exempt = self.napoleon_section_lines(doc)
            for line, message in parse_rst(doc):
                if line not in exempt:
                    problems.append(f"{label}:{line}: {message[:120]}")
        assert not problems, "\n".join(problems)


class TestSphinxBuild:
    def test_sphinx_build_warningfree(self, tmp_path):
        pytest.importorskip("sphinx")
        result = subprocess.run(
            [
                sys.executable, "-m", "sphinx", "-W", "-b", "html",
                str(DOCS), str(tmp_path / "html"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, (
            f"sphinx-build -W failed:\n{result.stdout}\n{result.stderr}"
        )
