"""Every public function and class in ``src/wlansim`` is used by other
package code, so nothing in the package lives only for its tests; the
CSV output format is decided in one place, ``cli``; ``cli`` takes only
``run`` from ``nlms``, and ``survey`` only the channel lookup and the
overlap from ``channels``; no variable is raised to a power with ``**``,
which on a float is libm's ``pow``; no float is summed by the builtin
``sum``, whose rounding depends on the Python version; and nothing
imports or names ``numpy.random``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wlansim"

# Unreferenced on purpose: criterion 2 states the paper's 256-QAM over
# 64-QAM gain through it.
ALLOWED = {("throughput", "bits_per_symbol")}


def unreferenced_public_names(src: Path) -> list[tuple[str, str]]:
    """``(module, name)`` of each public top-level function or class that
    no code outside its own definition refers to.

    A bare name refers to the definition of that name in its own module,
    or to the one it was imported from (``from .mod import name``, at any
    depth); ``mod.name`` refers to ``name`` in a module bound by
    ``from . import mod``.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for module, tree in trees.items():
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for top in tree.body:
            own = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    key = names.get(node.id, (module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    key = (modules.get(node.value.id), node.attr)
                else:
                    continue
                if key != own:
                    used.add(key)
    return sorted(defined - used)


def test_every_public_definition_is_used_by_the_package():
    unused = unreferenced_public_names(SRC)
    assert set(unused) >= ALLOWED, "an allow-listed name is now used or gone; drop it from ALLOWED"
    assert [f"{module}.{name}" for module, name in unused if (module, name) not in ALLOWED] == []


def csv_writer_sites(src: Path) -> list[tuple[str, str]]:
    """``(module, top-level name)`` of each definition in ``src`` that
    refers to ``csv.writer`` or imports ``writer`` from ``csv``."""
    sites = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "writer"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "csv"
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "csv"
                    and any(alias.name == "writer" for alias in node.names)
                ):
                    sites.append((path.stem, getattr(top, "name", "<module>")))
    return sites


def test_no_module_builds_a_csv_writer():
    assert csv_writer_sites(SRC) == []


def crlf_literal_modules(src: Path) -> list[str]:
    """Each module in ``src`` with a string literal, f-string parts
    included, that holds the CSV line end ``\\r\\n``."""
    return [
        path.stem
        for path in sorted(src.glob("*.py"))
        if any(
            isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r\n" in node.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]


def test_csv_line_end_is_written_only_in_cli():
    assert crlf_literal_modules(SRC) == ["cli"]


def names_taken_from(src: Path, module: str, source: str) -> list[str]:
    """Each name that ``module`` in ``src`` imports with ``from .source
    import name`` or, where it binds the module by ``from . import
    source``, reads as ``source.name``; a local variable that happens to
    be called ``source`` is not the module."""
    nodes = list(ast.walk(ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))))
    imports = [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 1]
    names = {alias.name for node in imports if node.module == source for alias in node.names}
    if any(node.module is None and alias.name == source for node in imports for alias in node.names):
        names.update(
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == source
        )
    return sorted(names)


def test_cli_takes_only_run_from_nlms():
    # The trace carries what the CLI writes; the chunk size and the final
    # window are nlms's own decisions.
    assert names_taken_from(SRC, "cli", "nlms") == ["run"]


def test_survey_takes_only_the_lookup_and_the_overlap_from_channels():
    # Which ids exist and how plans compare are channels's own rules.
    assert names_taken_from(SRC, "survey", "channels") == ["channel_by_id", "overlap_fraction"]


def float_power_sites(src: Path) -> list[tuple[str, int]]:
    """``(module, line)`` of each ``**`` in ``src`` whose base is not a
    number literal.  On a float, ``x ** 2`` calls libm ``pow``, whose last
    bit depends on the CPU and the libm build, where ``x * x`` is rounded
    by IEEE 754 alone.  A literal base, as in ``2**64``, ``10**6`` or
    ``2.0**-53``, writes a constant."""
    return [
        (path.stem, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not isinstance(node.left, ast.Constant))
        or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow))
    ]


def test_no_float_power_in_src():
    assert float_power_sites(SRC) == []


def builtin_sum_sites(src: Path) -> list[tuple[str, int]]:
    """``(module, line)`` of each call of the builtin ``sum`` in ``src``.
    Its float result depends on the Python version, as 3.12 made it
    compensated, where ``math.fsum`` is correctly rounded on every one."""
    return [
        (path.stem, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


def test_no_builtin_sum_in_src():
    assert builtin_sum_sites(SRC) == []


def _dotted_names(node: ast.AST) -> list[str]:
    """The dotted names an import statement binds or an attribute of a bare name reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def numpy_random_sites(src: Path) -> list[tuple[str, int]]:
    """``(module, line)`` of each import of ``numpy.random`` (or of a name
    in it) in ``src``, and of each ``np.random`` or ``numpy.random``
    attribute.  Importing it loads every bit generator and the generator
    classes; the one cipher the package needs, Philox, it computes itself."""
    return [
        (path.stem, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.split(".")[:2] in (["numpy", "random"], ["np", "random"]) for name in _dotted_names(node))
    ]


def test_no_numpy_random_in_src():
    assert numpy_random_sites(SRC) == []
