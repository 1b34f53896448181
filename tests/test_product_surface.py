"""Guard against product code that only its own package ``__init__`` reaches.

A module under ``src/repro`` earns its place when another product module
uses it: it imports the module directly, or imports a name that the
module's package ``__init__`` re-exports from it (``repro.cli`` doing
``from repro.server import run_server`` uses ``repro.server.http``).  A
module whose one importer is its own package ``__init__`` is exported
surface that nothing in the product calls — only tests would reach it.
Package ``__init__`` modules and the ``repro.cli`` entry point are exempt;
there is no other allowlist.

The same holds name by name: every public top-level function and class,
and every public method of a public top-level class, must be used somewhere
in the product outside its own definition.  Uses are matched by spelling (a
bare name or an attribute name), and a package ``__init__``'s re-export is
not a use.  :data:`NAME_EXEMPT` lists the names kept without a product
caller, each with its reason.

Matching by spelling cannot tell a method from a local variable or another
class's attribute of the same name (``ProcessRegistry.honest_inputs`` hid
behind a local ``honest_inputs``, ``StoreEntry.stale`` behind query hits'
``.stale``); ``tests/tools/surface_sweep.py`` records which functions the
product actually enters and catches those.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src"

#: Entry points nothing imports by design.
EXEMPT = frozenset({"repro.cli"})


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse_tree(root: Path = SOURCE_ROOT) -> tuple[dict[str, ast.Module], set[str]]:
    """Every module's syntax tree by dotted name, and the names that are packages."""
    trees: dict[str, ast.Module] = {}
    packages: set[str] = set()
    for path in sorted((root / "repro").rglob("*.py")):
        name = _module_name(path, root)
        trees[name] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "__init__.py":
            packages.add(name)
    return trees, packages


def _source(importer: str, node: ast.ImportFrom) -> str:
    """The module a ``from ... import`` statement names (the product imports absolutely)."""
    assert not node.level, f"{importer}: relative import; the guard resolves absolute ones only"
    return node.module or ""


def _re_exports(trees: dict[str, ast.Module], packages: set[str]) -> dict[tuple[str, str], tuple[str, str]]:
    """``(package, name)`` -> ``(module, name)`` for each name a package ``__init__`` imports."""
    exports: dict[tuple[str, str], tuple[str, str]] = {}
    for package in packages:
        for node in ast.walk(trees[package]):
            if isinstance(node, ast.ImportFrom):
                source = _source(package, node)
                if source in trees:
                    for alias in node.names:
                        exports[package, alias.asname or alias.name] = (source, alias.name)
    return exports


def _resolve(module: str, name: str, modules: set[str], exports: dict) -> str:
    """The module ``from module import name`` uses, following re-exports to their source."""
    while f"{module}.{name}" not in modules:
        if (module, name) not in exports:
            return module
        module, name = exports[module, name]
    return f"{module}.{name}"


def import_graph(root: Path = SOURCE_ROOT) -> dict[str, set[str]]:
    """For every module, the set of other modules that use it."""
    trees, packages = _parse_tree(root)
    modules = set(trees)
    exports = _re_exports(trees, packages)
    users: dict[str, set[str]] = {module: set() for module in modules}
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = _source(importer, node)
                targets = [_resolve(source, alias.name, modules, exports) for alias in node.names]
            else:
                continue
            for target in targets:
                if target in users and target != importer:
                    users[target].add(importer)
    return users


def checked_modules(root: Path = SOURCE_ROOT) -> list[str]:
    """Every module the guard checks: all but package ``__init__``s and :data:`EXEMPT`."""
    trees, packages = _parse_tree(root)
    return sorted(module for module in trees if module not in packages and module not in EXEMPT)


def orphan_modules(root: Path = SOURCE_ROOT) -> list[str]:
    """Modules whose only user is their own package ``__init__``."""
    users = import_graph(root)
    return [
        module
        for module in checked_modules(root)
        if not users[module] - {module.rpartition(".")[0]}
    ]


@pytest.fixture(scope="module")
def product_users() -> dict[str, set[str]]:
    return import_graph()


@pytest.mark.parametrize("module", checked_modules())
def test_module_has_a_product_caller(module, product_users):
    package = module.rpartition(".")[0]
    assert product_users[module] - {package}, (
        f"{module} is reached only through {package}'s __init__: delete it, "
        "or give it a caller in the product"
    )


def test_re_exported_names_count_as_uses(product_users):
    # ``repro.cli`` reaches the HTTP server only through ``repro.server``'s re-export.
    assert "repro.cli" in product_users["repro.server.http"]
    # ``from repro.analysis import experiments`` names a submodule.
    assert "repro.cli" in product_users["repro.analysis.experiments"]


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class TestGuardOnASyntheticTree:
    """The guard's verdicts on a four-module package written to ``tmp_path``."""

    FILES = {
        "repro/__init__.py": "",
        "repro/cli.py": "from repro.tools import helper\n",
        "repro/tools/__init__.py": (
            "from repro.tools.used import helper\n"
            "from repro.tools.orphan import unused\n"
        ),
        "repro/tools/used.py": "def helper():\n    return 1\n",
        "repro/tools/orphan.py": "def unused():\n    return 2\n",
        "repro/tools/direct.py": "import repro.tools.orphan_free\n",
        "repro/tools/orphan_free.py": "",
    }

    def test_modules_without_a_caller_beyond_their_init_are_orphans(self, tmp_path):
        root = _write_tree(tmp_path, self.FILES)
        assert orphan_modules(root) == ["repro.tools.direct", "repro.tools.orphan"]

    def test_re_export_use_is_followed_to_the_defining_module(self, tmp_path):
        users = import_graph(_write_tree(tmp_path, self.FILES))
        assert users["repro.tools.used"] == {"repro.tools", "repro.cli"}

    def test_plain_import_from_a_sibling_counts_as_a_use(self, tmp_path):
        users = import_graph(_write_tree(tmp_path, self.FILES))
        assert users["repro.tools.orphan_free"] == {"repro.tools.direct"}

    def test_packages_and_the_entry_point_are_not_checked(self, tmp_path):
        modules = checked_modules(_write_tree(tmp_path, self.FILES))
        assert "repro.cli" not in modules
        assert "repro.tools" not in modules and "repro" not in modules


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

#: ``module:qualname`` -> why the name stays although nothing in the product calls it.
NAME_EXEMPT = {
    "repro.analysis.report:render_series":
        "library surface: examples/robot_rendezvous.py prints its trajectory with it",
    "repro.core.safe_area:safe_area_point_via_tverberg":
        "test oracle: Lemma 1's Tverberg route to a Gamma point",
    "repro.core.safe_area:safe_area_contains":
        "test oracle: Gamma membership by the literal leave-f-out definition",
    "repro.engine.spec:read_jsonl":
        "CI's store-smoke reads recomputed rows with it",
    "repro.engine.spec:strip_timing":
        "CI's store-smoke and benchmarks/ledger compare rows with it",
    "repro.geometry.kernel:halfspace_depth":
        "depth oracle the kernel suites certify Gamma points with (ROADMAP item 2)",
    "repro.geometry.kernel:GammaKernel.clear_cache":
        "tests isolate the shared default kernel with it",
    "repro.server.service:CampaignService.query_rows":
        "direct-call read API: benchmarks/ledger's serve_mixed times it (HTTP uses read_query)",
    "repro.workloads.generators:basis_counterexample_registry":
        "paper-claims reference: tests/integration/test_paper_claims.py",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uses(node: ast.AST) -> Counter[str]:
    """How often each name is spelled in ``node``: bare names and attribute names."""
    counts: Counter[str] = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualname, node)`` of the public top-level functions, classes and their methods."""
    found: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_")
                )
    return found


def uncalled_names(root: Path = SOURCE_ROOT) -> list[str]:
    """``module:qualname`` of every public name no product module uses beyond its definition."""
    trees, packages = _parse_tree(root)
    uses: Counter[str] = Counter()
    for module, tree in trees.items():
        if module not in packages:
            uses.update(_uses(tree))
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            own = Counter() if module in packages else _uses(node)
            if uses[node.name] - own[node.name] <= 0:
                uncalled.append(f"{module}:{qualname}")
    return sorted(uncalled)


def modules_with_public_names(root: Path = SOURCE_ROOT) -> list[str]:
    """Every module that defines at least one name the name guard checks."""
    trees, _ = _parse_tree(root)
    return sorted(module for module, tree in trees.items() if _public_definitions(tree))


@pytest.fixture(scope="module")
def product_uncalled() -> list[str]:
    return uncalled_names()


@pytest.mark.parametrize("module", modules_with_public_names())
def test_public_names_have_a_product_caller(module, product_uncalled):
    unexplained = [
        name
        for name in product_uncalled
        if name.partition(":")[0] == module and name not in NAME_EXEMPT
    ]
    assert not unexplained, (
        f"nothing in the product calls {unexplained}: delete them, give them a "
        "caller, or exempt them in NAME_EXEMPT with the reason"
    )


def test_exemptions_name_live_uncalled_names(product_uncalled):
    # An exempt name that gained a caller, or is gone, leaves the list.
    assert sorted(NAME_EXEMPT.keys() - set(product_uncalled)) == []
    assert all(reason.strip() and "\n" not in reason for reason in NAME_EXEMPT.values())


class TestNameGuardOnASyntheticTree:
    """The name guard's verdicts on a small package written to ``tmp_path``."""

    FILES = {
        "repro/__init__.py": "",
        "repro/cli.py": "from repro.tools import area\n\nprint(area(None))\n",
        "repro/tools/__init__.py": "from repro.tools.shapes import Circle, area, recursive\n",
        "repro/tools/shapes.py": (
            "def area(shape):\n"
            "    return shape.size()\n"
            "\n"
            "def recursive():\n"
            "    return recursive()\n"
            "\n"
            "def _private():\n"
            "    return 0\n"
            "\n"
            "class Circle:\n"
            "    def size(self):\n"
            "        return 1\n"
            "\n"
            "    def grow(self):\n"
            "        return self.grow()\n"
            "\n"
            "    def _hidden(self):\n"
            "        return 2\n"
        ),
    }

    def test_names_used_only_by_themselves_or_an_init_are_uncalled(self, tmp_path):
        assert uncalled_names(_write_tree(tmp_path, self.FILES)) == [
            "repro.tools.shapes:Circle",
            "repro.tools.shapes:Circle.grow",
            "repro.tools.shapes:recursive",
        ]

    def test_an_attribute_spelling_counts_as_a_method_use(self, tmp_path):
        uncalled = uncalled_names(_write_tree(tmp_path, self.FILES))
        assert "repro.tools.shapes:Circle.size" not in uncalled
        assert "repro.tools.shapes:area" not in uncalled

    def test_only_modules_defining_public_names_are_checked(self, tmp_path):
        assert modules_with_public_names(_write_tree(tmp_path, self.FILES)) == [
            "repro.tools.shapes"
        ]

    def test_private_names_are_not_checked(self, tmp_path):
        uncalled = uncalled_names(_write_tree(tmp_path, self.FILES))
        assert not any("_private" in name or "_hidden" in name for name in uncalled)
