"""Documentation quality gates.

Two checks back the ``docs/`` tree:

* **docstring coverage** — every public class/function of the
  ``repro.campaign``, ``repro.service`` and ``repro.telemetry`` packages
  (and the public methods/properties they define) carries a docstring.
  These packages are the public scaling + control-plane + observability
  API; an undocumented symbol there is a regression.
* **intra-repo links** — every relative markdown link in ``README.md``
  and ``docs/*.md`` resolves to an existing file, so the docs tree cannot
  silently rot as files move.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

#: The packages whose public API must be fully docstring-covered.
DOCUMENTED_PACKAGES = ("repro.campaign", "repro.service", "repro.telemetry")

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``[text](target)`` markdown links; targets with spaces/titles excluded
#: by the character class (none are used in this repo).
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _modules_of(package_name):
    """Every module of a package, the package itself included."""
    package = importlib.import_module(package_name)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{package_name}.{info.name}"))
    return modules


def _public_symbols(package_name):
    """(qualified name, object) for every public class/function."""
    seen = {}
    for module in _modules_of(package_name):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not getattr(obj, "__module__", "").startswith(package_name):
                continue   # re-exported stdlib/other-package helpers
            seen[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return sorted(seen.items())


def _public_members(cls):
    """(qualified name, docstring) of the public members a class defines."""
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        qualified = f"{cls.__module__}.{cls.__qualname__}.{name}"
        if isinstance(attr, property):
            yield qualified, attr.__doc__
        elif isinstance(attr, (classmethod, staticmethod)):
            yield qualified, attr.__func__.__doc__
        elif inspect.isfunction(attr):
            yield qualified, attr.__doc__


class TestDocstringCoverage:
    def test_documented_packages_have_symbols(self):
        """Guard the guard: an import/path mistake must not pass vacuously."""
        campaign = [name for name, _ in _public_symbols("repro.campaign")]
        assert len(campaign) >= 20
        assert "repro.campaign.spec.CampaignSpec" in campaign
        assert "repro.campaign.workers.WorkerPoolExecutor" in campaign
        assert "repro.campaign.cache.ResultCache" in campaign
        service = [name for name, _ in _public_symbols("repro.service")]
        assert len(service) >= 10
        assert "repro.service.bus.RunEventBus" in service
        assert "repro.service.jobs.CampaignJobManager" in service
        assert "repro.service.client.ServiceClient" in service

    @pytest.mark.parametrize("package", DOCUMENTED_PACKAGES)
    def test_every_public_symbol_has_a_docstring(self, package):
        missing = []
        for name, obj in _public_symbols(package):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
            if inspect.isclass(obj):
                for member_name, doc in _public_members(obj):
                    if not (doc or "").strip():
                        missing.append(member_name)
        assert not missing, (
            f"public {package} symbols without docstrings:\n  "
            + "\n  ".join(sorted(set(missing))))

    @pytest.mark.parametrize("package", DOCUMENTED_PACKAGES)
    def test_every_module_has_a_docstring(self, package):
        missing = [module.__name__ for module in _modules_of(package)
                   if not (module.__doc__ or "").strip()]
        assert not missing, f"undocumented {package} modules: {missing}"


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return files


@pytest.mark.parametrize("md_file", _markdown_files(),
                         ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_intra_repo_markdown_links_resolve(md_file):
    assert md_file.exists(), f"{md_file} disappeared"
    broken = []
    for target in _MD_LINK.findall(md_file.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (md_file.parent / relative).exists():
            broken.append(target)
    assert not broken, (f"broken intra-repo links in "
                        f"{md_file.relative_to(REPO_ROOT)}: {broken}")


def test_docs_tree_is_present():
    """The documented entry points of the docs tree must exist."""
    for page in ("architecture.md", "campaigns.md", "extending-executors.md",
                 "observability.md", "service.md"):
        assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} is missing"
