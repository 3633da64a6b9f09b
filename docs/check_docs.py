"""Documentation checks run by the CI docs job.

Three checks, all against the files as committed:

1. **Executable snippets** — every fenced ``python`` block in the files
   listed in :data:`SNIPPET_FILES` (the README quickstart, the
   distributed deployment note, the fuzzing, observability and service
   guides, and the engine quick start in ``src/repro/search/README.md``)
   is executed, in order, in one namespace
   per file — so no documented snippet can drift from the real API.
2. **Link check** — every relative Markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file or directory (external
   ``http(s)`` links and pure anchors are skipped; fragment suffixes are
   stripped).
3. **API docstring audit** — every public module, class, function,
   method and property of the packages in :data:`AUDITED_PACKAGES`
   (currently ``repro.api``, ``repro.search``, ``repro.runtime``,
   ``repro.distributed``, ``repro.service``, ``repro.store``,
   ``repro.fuzz``, ``repro.obs`` and ``repro.loadgen``) must carry a
   docstring.  A public
   name without one fails the job, so the engine
   and runtime surface cannot silently grow undocumented API.

Run locally with::

    PYTHONPATH=src python docs/check_docs.py            # everything
    PYTHONPATH=src python docs/check_docs.py --only api # one check

Exits non-zero with a per-failure report when anything is broken.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Files whose ``python`` fences are executed (repo-relative).  Snippets
# within one file share a namespace, in order; files are independent.
SNIPPET_FILES = (
    "README.md",
    "docs/distributed.md",
    "docs/fuzzing.md",
    "docs/observability.md",
    "docs/service.md",
    "src/repro/search/README.md",
)

# Packages whose public API must be fully documented.
AUDITED_PACKAGES = (
    "repro.api",
    "repro.search",
    "repro.runtime",
    "repro.distributed",
    "repro.service",
    "repro.store",
    "repro.fuzz",
    "repro.obs",
    "repro.loadgen",
)

FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
# Markdown links, ignoring images; group 1 is the target.
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def run_python_snippets(path: Path) -> list[str]:
    """Execute every ```python block of ``path``; returns failure messages."""
    failures = []
    namespace: dict = {"__name__": "__doc_snippet__"}
    for index, match in enumerate(FENCE.finditer(path.read_text()), start=1):
        snippet = match.group(1)
        try:
            exec(compile(snippet, f"{path.name}#snippet{index}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report, don't crash the checker
            failures.append(f"{path.name} python snippet #{index} raised {error!r}")
    return failures


def check_links(path: Path) -> list[str]:
    """Verify the relative links of one Markdown file; returns failures."""
    failures = []
    for match in LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            failures.append(f"{path.relative_to(REPO)}: broken link -> {target}")
    return failures


def _public_names(module) -> list[str]:
    """The module's public surface: ``__all__``, else non-underscore names."""
    declared = getattr(module, "__all__", None)
    if declared is not None:
        return list(declared)
    return [name for name in vars(module) if not name.startswith("_")]


def _audit_member(owner: str, name: str, value) -> list[str]:
    """Docstring failures of one public class attribute."""
    if isinstance(value, property):
        documented = bool(value.fget and value.fget.__doc__)
    elif isinstance(value, (staticmethod, classmethod)):
        documented = bool(value.__func__.__doc__)
    elif inspect.isfunction(value):
        documented = bool(value.__doc__)
    else:
        return []  # plain class attributes need no docstring
    if documented:
        return []
    return [f"{owner}.{name}: public member without a docstring"]


def audit_module(module) -> list[str]:
    """Docstring failures of one module's public API."""
    failures = []
    if not (module.__doc__ or "").strip():
        failures.append(f"{module.__name__}: module without a docstring")
    for name in _public_names(module):
        value = getattr(module, name, None)
        if value is None or inspect.ismodule(value):
            continue
        qualified = f"{module.__name__}.{name}"
        if inspect.isclass(value):
            if value.__module__ != module.__name__:
                continue  # re-export; audited where it is defined
            if not (value.__doc__ or "").strip():
                failures.append(f"{qualified}: class without a docstring")
            for member_name, member in vars(value).items():
                if member_name.startswith("_"):
                    continue  # dunders and private helpers
                failures.extend(_audit_member(qualified, member_name, member))
        elif inspect.isfunction(value):
            if value.__module__ != module.__name__:
                continue
            if not (value.__doc__ or "").strip():
                failures.append(f"{qualified}: function without a docstring")
    return failures


def audit_packages(packages=AUDITED_PACKAGES) -> list[str]:
    """Docstring failures across every module of the audited packages."""
    failures = []
    for package_name in packages:
        package = importlib.import_module(package_name)
        failures.extend(audit_module(package))
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            failures.extend(audit_module(module))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=("snippets", "links", "api"),
        default=None,
        help="run a single check instead of all three",
    )
    arguments = parser.parse_args(argv)
    failures: list[str] = []
    if arguments.only in (None, "snippets"):
        for name in SNIPPET_FILES:
            path = REPO / name
            if path.exists():
                failures += run_python_snippets(path)
            else:
                failures.append(f"{name} is missing (listed in SNIPPET_FILES)")
    if arguments.only in (None, "links"):
        for markdown in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
            if markdown.exists():
                failures += check_links(markdown)
    if arguments.only in (None, "api"):
        failures += audit_packages()
    if failures:
        print(f"{len(failures)} documentation check(s) failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "documentation checks passed (snippets executed, links resolved, "
        "public API documented)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
